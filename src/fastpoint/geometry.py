"""Oriented 3D box math: corners, rotated IoU, canonization, containment.

Rotated BEV IoU comes in two forms with one clipping rule: the scalar
iou_bev on two boxes, and iou_bev_matrix on (N, 5) rows (x, y, l, w,
theta) from bev_rows, which clips every nearby pair at once.

Conventions: LiDAR frame with +x forward, +z up; yaw theta measured CCW
about +z from the +x axis and normalized to (-pi, pi]. Corner order is
fixed: bottom face CCW starting at (+l/2, +w/2, -h/2), then the top face
in the same planar order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

# intersection areas below this are treated as zero (collinear-vertex noise)
_AREA_EPS = 1e-12


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.fmod(theta + math.pi, 2.0 * math.pi)
    if t <= 0.0:
        t += 2.0 * math.pi
    return t - math.pi


@dataclass(frozen=True)
class Box3D:
    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError(f"box dimensions must be positive, got {(self.l, self.w, self.h)}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    def bev(self) -> "BoxBEV":
        return BoxBEV(self.x, self.y, self.l, self.w, self.theta)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.l, self.w, self.h, self.theta])

    @staticmethod
    def from_array(a) -> "Box3D":
        return Box3D(*(float(v) for v in a))


@dataclass(frozen=True)
class BoxBEV:
    x: float
    y: float
    l: float
    w: float
    theta: float

    def __post_init__(self):
        if not (self.l > 0 and self.w > 0):
            raise ValueError(f"box dimensions must be positive, got {(self.l, self.w)}")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


def corners_bev(b: BoxBEV) -> np.ndarray:
    """Four planar corners in CCW order, (4, 2). Centroid equals (x, y)."""
    c, s = math.cos(b.theta), math.sin(b.theta)
    half = np.array([
        [+b.l / 2, +b.w / 2],
        [-b.l / 2, +b.w / 2],
        [-b.l / 2, -b.w / 2],
        [+b.l / 2, -b.w / 2],
    ])
    rot = np.array([[c, -s], [s, c]])
    return half @ rot.T + np.array([b.x, b.y])


def corners_3d(b: Box3D) -> np.ndarray:
    """Eight corners (8, 3) in canonical order: bottom face CCW then top face."""
    bev = corners_bev(b.bev())
    lo = np.column_stack([bev, np.full(4, b.z - b.h / 2)])
    hi = np.column_stack([bev, np.full(4, b.z + b.h / 2)])
    return np.vstack([lo, hi])


def _polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a CCW polygon, summed about its first vertex: on
    absolute coordinates a small polygon far out cancels |position|^2 / area
    of its digits."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0] - poly[0, 0], poly[:, 1] - poly[0, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clip_by_edge(poly, a, b):
    """Keep the part of a convex polygon on the left of directed edge a->b."""
    out = []
    n = len(poly)
    ex, ey = b[0] - a[0], b[1] - a[1]
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        dp = ex * (p[1] - a[1]) - ey * (p[0] - a[0])
        dq = ex * (q[1] - a[1]) - ey * (q[0] - a[0])
        inside_p = dp >= 0
        inside_q = dq >= 0
        if inside_p:
            out.append(p)
        if inside_p != inside_q:
            t = dp / (dp - dq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def intersection_area_bev(a: BoxBEV, b: BoxBEV) -> float:
    """Area of the convex intersection of two rotated rectangles."""
    poly = [tuple(p) for p in corners_bev(a)]
    cb = corners_bev(b)
    for i in range(4):
        # interior of a CCW polygon lies on the left of each directed edge
        poly = _clip_by_edge(poly, cb[i], cb[(i + 1) % 4])
        if not poly:
            return 0.0
    area = abs(_polygon_area(np.array(poly)))
    return 0.0 if area < _AREA_EPS else area


def iou_bev(a: BoxBEV, b: BoxBEV) -> float:
    inter = intersection_area_bev(a, b)
    union = a.l * a.w + b.l * b.w - inter
    return inter / union if union > 0 else 0.0


def bev_rows(boxes: list) -> np.ndarray:
    """(N, 5) rows (x, y, l, w, theta) of a list of BoxBEV or Box3D."""
    return np.array([(b.x, b.y, b.l, b.w, b.theta) for b in boxes],
                    dtype=np.float64).reshape(-1, 5)


def _corners_rows(rows: np.ndarray) -> np.ndarray:
    """Corners (P, 4, 2) of BEV rows, in corners_bev's order and arithmetic."""
    x, y, l, w, theta = (rows[:, k:k + 1] for k in range(5))
    c, s = np.cos(theta), np.sin(theta)
    hx = l / 2 * np.array([1.0, -1.0, -1.0, 1.0])
    hy = w / 2 * np.array([1.0, 1.0, -1.0, -1.0])
    return np.stack([hx * c - hy * s + x, hx * s + hy * c + y], axis=-1)


def _next_vertex(n: np.ndarray, width: int) -> np.ndarray:
    """(P, width) index of each vertex's successor in a polygon of n[p] vertices."""
    i = np.arange(width)
    return np.where(i + 1 < n[:, None], i + 1, 0)


def _iou_bev_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BEV IoU (P,) of the row pairs a[k], b[k] ((P, 5) each).

    Sutherland-Hodgman clipping of every a rectangle by the four edges of
    its b partner at once, with iou_bev's side test, intersection point,
    shoelace area and _AREA_EPS cut-off. Polygons live in zero-padded
    (P, width, 2) vertex arrays with a vertex count per pair; width is at
    most 8 in exact arithmetic and follows the largest count otherwise.
    """
    poly, cb = _corners_rows(a), _corners_rows(b)
    pair = np.arange(len(a))[:, None]
    n = np.full(len(a), 4)
    for k in range(4):
        e0 = cb[:, k, None, :]
        e = cb[:, (k + 1) % 4, None, :] - e0
        nxt = _next_vertex(n, poly.shape[1])
        # interior of a CCW polygon lies on the left of each directed edge
        dp = e[..., 0] * (poly[..., 1] - e0[..., 1]) - e[..., 1] * (poly[..., 0] - e0[..., 0])
        dq = dp[pair, nxt]
        valid = np.arange(poly.shape[1]) < n[:, None]
        inside = valid & (dp >= 0)
        cross = valid & (inside != (dq >= 0))
        # each vertex emits itself if inside, then the edge crossing if any
        emitted = inside.astype(np.int64) + cross
        start = np.cumsum(emitted, axis=1) - emitted
        n = emitted.sum(axis=1)
        out = np.zeros((len(a), n.max(initial=0), 2))
        r, c = np.nonzero(inside)
        out[r, start[r, c]] = poly[r, c]
        r, c = np.nonzero(cross)
        p, q = poly[r, c], poly[r, nxt[r, c]]
        t = dp[r, c] / (dp[r, c] - dq[r, c])
        out[r, start[r, c] + inside[r, c]] = p + t[:, None] * (q - p)
        poly = out
    # shoelace about each polygon's first vertex, as _polygon_area sums it;
    # padding rows' successor is that vertex, now 0, so they add exact zeros
    poly = poly - poly[:, :1]
    q = poly[pair, _next_vertex(n, poly.shape[1])]
    shoelace = (np.sum(poly[..., 0] * q[..., 1], axis=1)
                - np.sum(poly[..., 1] * q[..., 0], axis=1))
    area = np.abs(0.5 * shoelace)
    inter = np.where((n >= 3) & (area >= _AREA_EPS), area, 0.0)
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def _checked_rows(rows) -> np.ndarray:
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise ShapeMismatch(f"BEV rows must be (N, 5) (x, y, l, w, theta), got {rows.shape}")
    rows = rows.astype(np.float64, copy=False)
    if not np.all(np.isfinite(rows)):
        raise ValueError("BEV rows must be finite")
    if not np.all(rows[:, 2:4] > 0):
        raise ValueError("BEV box dimensions must be positive")
    return rows


def iou_bev_matrix(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Pairwise BEV IoU (N, M) of (N, 5) and (M, 5) rows (x, y, l, w, theta),
    as built by bev_rows.

    Only pairs whose centers lie within the sum of their circumradii reach
    the pair kernel, all in one call (none when no pair is that close);
    every other pair cannot overlap and reads 0.
    """
    a, b = _checked_rows(rows_a), _checked_rows(rows_b)
    ra, rb = np.hypot(a[:, 2], a[:, 3]) / 2, np.hypot(b[:, 2], b[:, 3]) / 2
    dist = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    out = np.zeros(dist.shape)
    i, j = np.nonzero(dist <= ra[:, None] + rb[None, :])
    if len(i):
        # looked up as the module global, so a wrapped kernel sees every pair
        out[i, j] = _iou_bev_pairs(a[i], b[j])
    return out


def iou_3d(a: Box3D, b: Box3D) -> float:
    inter_bev = intersection_area_bev(a.bev(), b.bev())
    if inter_bev == 0.0:
        return 0.0
    z_lo = max(a.z - a.h / 2, b.z - b.h / 2)
    z_hi = min(a.z + a.h / 2, b.z + b.h / 2)
    dz = max(0.0, z_hi - z_lo)
    inter = inter_bev * dz
    union = a.l * a.w * a.h + b.l * b.w * b.h - inter
    return inter / union if union > 0 else 0.0


# ------------------------------------------------------------- canonization
def canonize_points(frame: Box3D, points: np.ndarray) -> np.ndarray:
    """Express points (N, 3) in the frame box's coordinates.

    Translate by -(frame center) then rotate by -theta about the vertical.
    """
    points = np.asarray(points, dtype=np.float64)
    c, s = math.cos(-frame.theta), math.sin(-frame.theta)
    rot = np.array([[c, -s], [s, c]])
    out = points.copy()
    out[:, :2] = (points[:, :2] - np.array([frame.x, frame.y])) @ rot.T
    out[:, 2] = points[:, 2] - frame.z
    return out


def uncanonize_points(frame: Box3D, points: np.ndarray) -> np.ndarray:
    """Inverse of canonize_points."""
    points = np.asarray(points, dtype=np.float64)
    c, s = math.cos(frame.theta), math.sin(frame.theta)
    rot = np.array([[c, -s], [s, c]])
    out = points.copy()
    out[:, :2] = points[:, :2] @ rot.T + np.array([frame.x, frame.y])
    out[:, 2] = points[:, 2] + frame.z
    return out


def canonize_box(frame: Box3D, subject: Box3D) -> Box3D:
    center = canonize_points(frame, subject.as_array()[None, :3])[0]
    return Box3D(center[0], center[1], center[2], subject.l, subject.w, subject.h,
                 normalize_angle(subject.theta - frame.theta))


def points_in_box(points: np.ndarray, b: Box3D, margin: float = 0.0) -> np.ndarray:
    """Boolean mask of points (N, >=3) inside the box expanded by margin on every face.

    Only the points within the expanded box's axis-aligned BEV bounds, widened
    by a rounding tolerance, and within its z range are canonized; the rest
    cannot pass the canonized test, so the mask is that test's on every point.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    pts = np.asarray(points, dtype=np.float64)
    hl, hw, hh = b.l / 2 + margin, b.w / 2 + margin, b.h / 2 + margin
    c, s = abs(math.cos(b.theta)), abs(math.sin(b.theta))
    # canonizing rounds each coordinate by a few ulps of the box's extent
    tol = 1e-9 * (hl + hw)
    near = np.flatnonzero(np.abs(pts[:, 0] - b.x) <= c * hl + s * hw + tol)
    near = near[(np.abs(pts[near, 1] - b.y) <= s * hl + c * hw + tol)
                # canonize_points' z is this same difference, so the test is exact
                & (np.abs(pts[near, 2] - b.z) <= hh)]
    local = canonize_points(b, pts[near, :3])
    mask = np.zeros(len(pts), dtype=bool)
    mask[near] = (np.abs(local[:, 0]) <= hl) & (np.abs(local[:, 1]) <= hw)
    return mask
