"""Oriented 3D box math: corners, rotated IoU, canonization, containment.

Conventions: LiDAR frame with +x forward, +z up; yaw theta measured CCW
about +z from the +x axis and normalized to (-pi, pi]. Corner order is
fixed: bottom face CCW starting at (+l/2, +w/2, -h/2), then the top face
in the same planar order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Shoelace area of a CCW polygon."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
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


def bev_of(box) -> BoxBEV:
    """A BoxBEV as is, a Box3D projected to BEV."""
    return box.bev() if isinstance(box, Box3D) else box


def iou_bev_matrix(boxes_a: list, boxes_b: list) -> np.ndarray:
    """Pairwise BEV IoU (N, M) of two lists of BoxBEV or Box3D (projected).

    iou_bev runs only on pairs whose centers lie within the sum of their
    circumradii; every other pair cannot overlap and reads 0.
    """
    a, b = [bev_of(p) for p in boxes_a], [bev_of(p) for p in boxes_b]
    ca = np.array([(p.x, p.y, math.hypot(p.l, p.w)) for p in a]).reshape(-1, 3)
    cb = np.array([(p.x, p.y, math.hypot(p.l, p.w)) for p in b]).reshape(-1, 3)
    dist = np.hypot(ca[:, None, 0] - cb[None, :, 0], ca[:, None, 1] - cb[None, :, 1])
    out = np.zeros(dist.shape)
    for i, j in zip(*np.nonzero(dist <= (ca[:, None, 2] + cb[None, :, 2]) / 2)):
        # looked up as the module global on each call, so a wrapped iou_bev
        # sees every pair
        out[i, j] = iou_bev(a[i], b[j])
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
def canonize_points(frame, points: np.ndarray) -> np.ndarray:
    """Express points (N, 3) or (N, 2) in the frame box's coordinates.

    Translate by -(frame center) then rotate by -theta about the vertical.
    """
    points = np.asarray(points, dtype=np.float64)
    c, s = math.cos(-frame.theta), math.sin(-frame.theta)
    rot = np.array([[c, -s], [s, c]])
    out = points.copy()
    if points.shape[1] == 2:
        out = (points - np.array([frame.x, frame.y])) @ rot.T
    else:
        z0 = frame.z if isinstance(frame, Box3D) else 0.0
        out[:, :2] = (points[:, :2] - np.array([frame.x, frame.y])) @ rot.T
        out[:, 2] = points[:, 2] - z0
    return out


def uncanonize_points(frame, points: np.ndarray) -> np.ndarray:
    """Inverse of canonize_points."""
    points = np.asarray(points, dtype=np.float64)
    c, s = math.cos(frame.theta), math.sin(frame.theta)
    rot = np.array([[c, -s], [s, c]])
    out = points.copy()
    if points.shape[1] == 2:
        out = points @ rot.T + np.array([frame.x, frame.y])
    else:
        z0 = frame.z if isinstance(frame, Box3D) else 0.0
        out[:, :2] = points[:, :2] @ rot.T + np.array([frame.x, frame.y])
        out[:, 2] = points[:, 2] + z0
    return out


def canonize_box(frame: Box3D, subject: Box3D) -> Box3D:
    center = canonize_points(frame, subject.as_array()[None, :3])[0]
    return Box3D(center[0], center[1], center[2], subject.l, subject.w, subject.h,
                 normalize_angle(subject.theta - frame.theta))


def uncanonize_box(frame: Box3D, subject: Box3D) -> Box3D:
    center = uncanonize_points(frame, subject.as_array()[None, :3])[0]
    return Box3D(center[0], center[1], center[2], subject.l, subject.w, subject.h,
                 normalize_angle(subject.theta + frame.theta))


def points_in_box(points: np.ndarray, b: Box3D, margin: float = 0.0) -> np.ndarray:
    """Boolean mask of points (N, >=3) inside the box expanded by margin on every face."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    local = canonize_points(b, pts[:, :3])
    return (
        (np.abs(local[:, 0]) <= b.l / 2 + margin)
        & (np.abs(local[:, 1]) <= b.w / 2 + margin)
        & (np.abs(local[:, 2]) <= b.h / 2 + margin)
    )
