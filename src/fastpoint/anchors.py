"""Anchor grid generation, target assignment, and box parameterizations.

Two parameterizations live here: the 7-vector anchor-relative encoding
(planar offsets scaled by the anchor BEV diagonal, vertical offset scaled
by anchor height, log dim ratios, raw angle difference) and the 24-vector
canonized corner encoding used by the refinement stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigError
from .geometry import Box3D, normalize_angle
from .voxels import VoxelSpec

POSITIVE = 1
NEGATIVE = -1
IGNORE = 0

# decoded sizes grow or shrink at most 1000/16-fold against the anchor's (the
# clip of Faster R-CNN's box decoder, made symmetric); unclamped, a log-size
# delta past ~710 gives inf, and one below ~-745 gives a size of 0
MAX_LOG_SIZE_DELTA = math.log(1000.0 / 16)


@dataclass(frozen=True)
class AnchorSpec:
    sizes: tuple       # ((l, w, h), ...) meters
    angles: tuple      # radians, distinct modulo pi
    z_center: float

    def __post_init__(self):
        for i, size in enumerate(self.sizes):
            if len(size) != 3 or not all(0 < s < math.inf for s in size):
                raise ConfigError(f"anchor size {i} {size} of sizes must be three finite, "
                                  f"positive entries (l, w, h)")
        for i, a in enumerate(self.angles):
            for b in self.angles[i + 1:]:
                if abs(normalize_angle(a - b)) % math.pi < 1e-9:
                    raise ConfigError(f"anchor angles {self.angles} must be distinct modulo pi")

    def diagonals(self) -> np.ndarray:
        # d_a = sqrt(l^2 + w^2), the anchor BEV diagonal
        return np.array([math.hypot(l, w) for l, w, _ in self.sizes])


@dataclass
class AnchorSet:
    boxes: np.ndarray      # (N, 7) rows (x, y, z, l, w, h, theta)
    bev: np.ndarray        # (N, 5) geometry.bev_rows of the boxes
    diag: np.ndarray       # (N,) BEV diagonal per anchor

    def __len__(self):
        return len(self.boxes)


@dataclass
class TargetAssignment:
    labels: np.ndarray        # (N,) POSITIVE / NEGATIVE / IGNORE
    reg_targets: np.ndarray   # (N, 7), defined only where positive
    matched_gt: np.ndarray    # (N,) gt index, -1 where not positive

    @property
    def positive_indices(self) -> np.ndarray:
        return np.where(self.labels == POSITIVE)[0]

    @property
    def negative_indices(self) -> np.ndarray:
        return np.where(self.labels == NEGATIVE)[0]


def build_anchor_grid(map_dims: tuple, spec: AnchorSpec, world: VoxelSpec) -> AnchorSet:
    """One anchor per (cell, size, angle).

    map_dims = (H_f, W_f) with H_f cells along y and W_f along x, matching
    the head layout. Anchor centers are world coordinates of cell centers.
    Flattening order is (y, x, size, angle), the same as the flattened
    head maps.
    """
    h_f, w_f = map_dims
    (x0, x1), (y0, y1), _ = world.axis_range
    cell_x = (x1 - x0) / w_f
    cell_y = (y1 - y0) / h_f
    xs = x0 + (np.arange(w_f) + 0.5) * cell_x
    ys = y0 + (np.arange(h_f) + 0.5) * cell_y

    sizes = np.array(spec.sizes)
    angles = np.array(spec.angles)
    s, a = len(sizes), len(angles)
    n = h_f * w_f * s * a
    boxes = np.empty((n, 7))
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    centers = np.stack([xx.ravel(), yy.ravel()], axis=1)           # (HW, 2)
    boxes_view = boxes.reshape(h_f * w_f, s, a, 7)
    boxes_view[..., 0] = centers[:, None, None, 0]
    boxes_view[..., 1] = centers[:, None, None, 1]
    boxes_view[..., 2] = spec.z_center
    boxes_view[..., 3] = sizes[None, :, None, 0]
    boxes_view[..., 4] = sizes[None, :, None, 1]
    boxes_view[..., 5] = sizes[None, :, None, 2]
    boxes_view[..., 6] = angles[None, None, :]
    diag = np.broadcast_to(spec.diagonals()[None, :, None], (h_f * w_f, s, a)).ravel().copy()
    # theta normalized as a BoxBEV would hold it
    bev = boxes[:, [0, 1, 3, 4, 6]]
    bev_angles = np.array([normalize_angle(t) for t in spec.angles])
    bev[:, 4] = np.broadcast_to(bev_angles[None, None, :], (h_f * w_f, s, a)).ravel()
    return AnchorSet(boxes, bev, diag)


def assign_targets(anchors: AnchorSet, gts: list, pos_iou: float, neg_iou: float) -> TargetAssignment:
    """Label anchors by BEV IoU against ground truth.

    positive: max IoU >= pos_iou (matched to the argmax gt); negative:
    max IoU < neg_iou; anything between is ignored. Each gt left without a
    positive anchor additionally claims its own highest-IoU anchor.
    """
    if pos_iou <= neg_iou:
        raise ValueError("pos_iou must exceed neg_iou")
    n = len(anchors)
    labels = np.full(n, NEGATIVE, dtype=np.int8)
    matched = np.full(n, -1, dtype=np.int64)
    reg = np.zeros((n, 7))
    if not gts:
        return TargetAssignment(labels, reg, matched)

    iou = geometry.iou_bev_matrix(anchors.bev, geometry.bev_rows(gts))
    best_gt = iou.argmax(axis=1)
    best_iou = iou[np.arange(n), best_gt]

    labels[best_iou >= pos_iou] = POSITIVE
    labels[(best_iou >= neg_iou) & (best_iou < pos_iou)] = IGNORE
    matched[labels == POSITIVE] = best_gt[labels == POSITIVE]

    # rescue: every unmatched gt claims its single best anchor
    for j in range(len(gts)):
        if not np.any((labels == POSITIVE) & (matched == j)) and iou[:, j].max() > 0:
            i = int(iou[:, j].argmax())
            labels[i] = POSITIVE
            matched[i] = j

    pos = np.where(labels == POSITIVE)[0]
    for i in pos:
        reg[i] = encode_rpn(gts[matched[i]], Box3D.from_array(anchors.boxes[i]),
                            float(anchors.diag[i]))
    return TargetAssignment(labels, reg, matched)


# --------------------------------------------------------- 7-vector encoding
def _wrap_half_pi(t: float) -> float:
    """Wrap to (-pi/2, pi/2]; heading is ambiguous modulo pi with 45-degree anchors."""
    t = math.fmod(t, math.pi)
    if t > math.pi / 2:
        t -= math.pi
    elif t <= -math.pi / 2:
        t += math.pi
    return t


def encode_rpn(gt: Box3D, anchor: Box3D, d_a: float) -> np.ndarray:
    if d_a <= 0:
        raise ValueError("anchor diagonal must be positive")
    return np.array([
        (gt.x - anchor.x) / d_a,
        (gt.y - anchor.y) / d_a,
        (gt.z - anchor.z) / anchor.h,
        math.log(gt.h / anchor.h),
        math.log(gt.w / anchor.w),
        math.log(gt.l / anchor.l),
        _wrap_half_pi(gt.theta - anchor.theta),
    ])


def decode_rpn(deltas: np.ndarray, boxes: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """(N, 7) box rows from (N, 7) encode_rpn deltas against (N, 7) anchor
    rows with (N,) BEV diagonals; log-size deltas are clamped to
    +-MAX_LOG_SIZE_DELTA, so a finite delta decodes to a finite, positive
    size, and theta is normalized as a Box3D holds it."""
    out = np.empty_like(boxes)
    out[:, 0] = boxes[:, 0] + deltas[:, 0] * diag
    out[:, 1] = boxes[:, 1] + deltas[:, 1] * diag
    out[:, 2] = boxes[:, 2] + deltas[:, 2] * boxes[:, 5]
    dh, dw, dl = np.clip(deltas[:, 3:6], -MAX_LOG_SIZE_DELTA, MAX_LOG_SIZE_DELTA).T
    out[:, 5] = boxes[:, 5] * np.exp(dh)
    out[:, 4] = boxes[:, 4] * np.exp(dw)
    out[:, 3] = boxes[:, 3] * np.exp(dl)
    theta = boxes[:, 6] + deltas[:, 6]
    out[:, 6] = np.mod(theta + np.pi, 2 * np.pi) - np.pi
    out[out[:, 6] == -np.pi, 6] = np.pi
    return out


# ----------------------------------------------------------- corner encoding
def encode_corners(gt: Box3D, proposal: Box3D) -> np.ndarray:
    """24-vector of canonized gt corner offsets from the proposal center."""
    local = geometry.canonize_box(proposal, gt)
    return geometry.corners_3d(local).ravel()


def decode_corners(target: np.ndarray, proposal: Box3D) -> np.ndarray:
    """(8, 3) world-frame corner set from a 24-vector corner target."""
    local = np.asarray(target, dtype=np.float64).reshape(8, 3)
    return geometry.uncanonize_points(proposal, local)
