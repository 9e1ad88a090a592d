"""Detection assembly: rotated NMS, anchor decoding, corner-set fitting,
and the KITTI-style result dump."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .anchors import AnchorSet, decode_rpn_batch
from .errors import ShapeMismatch
from .geometry import Box3D, BoxBEV, normalize_angle

# canonical corner adjacency: edges along the length axis, bottom/top faces
_LENGTH_EDGES = ((0, 1), (3, 2), (4, 5), (7, 6))
_WIDTH_EDGES = ((1, 2), (0, 3), (5, 6), (4, 7))


class DegenerateCorners(ValueError):
    pass


@dataclass
class Detection:
    box: Box3D
    score: float
    cls: str = "Car"


def nms_rotated(boxes: list, scores: np.ndarray, iou_thresh: float) -> list:
    """Greedy descending-score suppression with BEV IoU; ties broken by index.

    boxes may be BoxBEV or Box3D (projected). Returns kept indices in
    descending score order.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError("iou_thresh must be in [0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    bevs = [b.bev() if isinstance(b, Box3D) else b for b in boxes]
    order = np.argsort(-scores, kind="stable")
    kept = []
    suppressed = np.zeros(len(bevs), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        kept.append(int(i))
        for j in order:
            if j == i or suppressed[j]:
                continue
            if geometry.iou_bev(bevs[i], bevs[j]) > iou_thresh:
                suppressed[j] = True
    return kept


def decode_detections(cls_map: np.ndarray, reg_map: np.ndarray, anchors: AnchorSet,
                      score_thresh: float) -> list:
    """Per-anchor decode of head maps into scored boxes, sorted by score.

    cls_map: (H_f, W_f, A) probabilities; reg_map: (H_f, W_f, A, 7).
    """
    n = len(anchors)
    probs = np.asarray(cls_map, dtype=np.float64).reshape(-1)
    deltas = np.asarray(reg_map, dtype=np.float64).reshape(-1, 7)
    if probs.shape[0] != n or deltas.shape[0] != n:
        raise ShapeMismatch(
            f"maps decode to {probs.shape[0]}/{deltas.shape[0]} anchors, grid has {n}")
    keep = np.where(probs >= score_thresh)[0]
    if len(keep) == 0:
        return []
    decoded = decode_rpn_batch(deltas[keep], anchors.boxes[keep], anchors.diag[keep])
    order = np.argsort(-probs[keep], kind="stable")
    return [Detection(Box3D.from_array(decoded[i]), float(probs[keep[i]])) for i in order]


def corners_to_box(corners: np.ndarray) -> Box3D:
    """Least-squares oriented box from an 8-corner set in canonical order.

    Center is the corner mean; yaw comes from the mean bottom/top
    length-edge direction; dims from mean edge lengths. Exact for a
    perfect cuboid.
    """
    c = np.asarray(corners, dtype=np.float64).reshape(8, 3)
    center = c.mean(axis=0)
    lvecs = np.array([c[a, :2] - c[b, :2] for a, b in _LENGTH_EDGES])
    wvecs = np.array([c[a, :2] - c[b, :2] for a, b in _WIDTH_EDGES])
    l = float(np.mean(np.linalg.norm(lvecs, axis=1)))
    w = float(np.mean(np.linalg.norm(wvecs, axis=1)))
    h = float(np.mean(c[4:, 2] - c[:4, 2]))
    if min(l, w, h) < 1e-9:
        raise DegenerateCorners(f"near-zero mean edge length (l={l}, w={w}, h={h})")
    # average direction; flip edges that disagree with the first to avoid cancel
    ref = lvecs[0]
    aligned = np.where((lvecs @ ref)[:, None] >= 0, lvecs, -lvecs)
    d = aligned.mean(axis=0)
    theta = normalize_angle(math.atan2(d[1], d[0]))
    return Box3D(center[0], center[1], center[2], l, w, h, theta)


# ------------------------------------------------------------ result dumps
def write_detections(path, dets: list, calib=None) -> None:
    """KITTI result-format dump: label fields plus a trailing score column."""
    from .kitti import Calibration, FrameLabel, format_label_line

    calib = calib or Calibration.identity()
    lines = []
    for d in dets:
        label = FrameLabel(d.cls, d.box, truncation=0.0, occlusion=0,
                           bbox2d=np.zeros(4), alpha=0.0, score=d.score)
        lines.append(format_label_line(label, calib))
    with open(path, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def read_detections(path, calib=None) -> list:
    from .kitti import Calibration, read_label_file

    calib = calib or Calibration.identity()
    dets = []
    for lab in read_label_file(path, calib):
        if lab.box is not None:
            dets.append(Detection(lab.box, lab.score if lab.score is not None else 0.0,
                                  lab.cls))
    return dets
