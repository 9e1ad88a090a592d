"""KITTI-style average precision for 3D and BEV boxes with difficulty and
range bucketing."""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from . import geometry
from .geometry import Box3D

AP_RECALLS = {"R11": np.linspace(0.0, 1.0, 11), "R40": np.arange(1, 41) / 40.0}


class MissingFrame(KeyError):
    pass


@dataclass
class EvalGt:
    box: Box3D
    difficulty: str = "easy"
    ignored: bool = False


@dataclass
class EvalConfig:
    metric: str = "3D"                   # "3D" | "BEV"
    iou_thresh: float = 0.7
    difficulty: str | None = None        # None = accept every non-ignored gt
    range_bucket: tuple | None = None    # (min_m, max_m) on gt BEV center distance
    ap_mode: str = "R11"

    def __post_init__(self):
        _iou_fn(self.metric)
        _recalls(self.ap_mode)


def _iou_fn(metric: str):
    if metric == "3D":
        return geometry.iou_3d
    if metric == "BEV":
        return lambda a, b: geometry.iou_bev(a.bev(), b.bev())
    raise ValueError(f"unknown metric {metric!r}")


def _recalls(mode: str) -> np.ndarray:
    if mode not in AP_RECALLS:
        raise ValueError(f"unknown AP mode {mode!r}, expected one of {sorted(AP_RECALLS)}")
    return AP_RECALLS[mode]


def match_detections(dets: list, gts: list, iou_fn, thresh: float):
    """Greedy matching of score-sorted detections against ground truth.

    Each detection claims the highest-IoU unmatched non-ignored gt with
    IoU >= thresh (TP), else it is an FP -- unless its best match above
    threshold is an ignored gt, in which case it is neither.
    Returns (tp flags, fp flags, matched gt index or -1 per detection).
    """
    n = len(dets)
    tp = np.zeros(n, dtype=bool)
    fp = np.zeros(n, dtype=bool)
    matched = np.full(n, -1, dtype=np.int64)
    gt_taken = np.zeros(len(gts), dtype=bool)
    for i, det in enumerate(dets):
        best_j, best_iou = -1, -1.0
        best_ign_j, best_ign_iou = -1, -1.0
        for j, gt in enumerate(gts):
            if gt_taken[j]:
                continue
            iou = iou_fn(det.box, gt.box)
            if iou < thresh:
                continue
            # ties broken by the first gt index
            if gt.ignored:
                if iou > best_ign_iou:
                    best_ign_j, best_ign_iou = j, iou
            elif iou > best_iou:
                best_j, best_iou = j, iou
        if best_j >= 0:
            tp[i] = True
            matched[i] = best_j
            gt_taken[best_j] = True
        elif best_ign_j >= 0:
            matched[i] = best_ign_j
            gt_taken[best_ign_j] = True
        else:
            fp[i] = True
    return tp, fp, matched


def average_precision(tp: np.ndarray, fp: np.ndarray, n_gt: int, mode: str = "R11") -> float:
    """Interpolated AP from cumulative TP/FP ordered by descending score."""
    if n_gt < 0:
        raise ValueError("n_gt must be non-negative")
    recalls = _recalls(mode)
    if n_gt == 0 or len(tp) == 0:
        return 0.0
    ctp = np.cumsum(tp.astype(np.float64))
    cfp = np.cumsum(fp.astype(np.float64))
    recall = ctp / n_gt
    denom = ctp + cfp
    precision = np.divide(ctp, denom, out=np.zeros_like(ctp), where=denom > 0)
    ap = 0.0
    for r in recalls:
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if np.any(mask) else 0.0
    return ap / len(recalls)


def evaluate(frames: dict, cfg: EvalConfig) -> float:
    """AP over a {frame_id: (detections, gts)} set for one configuration.

    Ground truths outside the requested difficulty or range bucket are
    ignored (matched detections are neither TP nor FP). TP/FP are pooled
    across frames before the PR sweep.
    """
    iou_fn = _iou_fn(cfg.metric)
    records = []     # (score, tp, fp)
    n_gt = 0
    for frame_id in sorted(frames):
        entry = frames[frame_id]
        if entry is None:
            raise MissingFrame(frame_id)
        dets, gts = entry
        local = []
        for gt in gts:
            ignored = gt.ignored
            if cfg.difficulty is not None and gt.difficulty != cfg.difficulty:
                ignored = True
            if cfg.range_bucket is not None:
                d = math.hypot(gt.box.x, gt.box.y)
                if not (cfg.range_bucket[0] <= d < cfg.range_bucket[1]):
                    ignored = True
            local.append(EvalGt(gt.box, gt.difficulty, ignored))
        n_gt += sum(not g.ignored for g in local)
        dets_sorted = sorted(dets, key=lambda d: -d.score)
        tp, fp, _ = match_detections(dets_sorted, local, iou_fn, cfg.iou_thresh)
        for d, t, f in zip(dets_sorted, tp, fp):
            records.append((d.score, t, f))
    records.sort(key=lambda r: -r[0])
    tp = np.array([r[1] for r in records], dtype=bool)
    fp = np.array([r[2] for r in records], dtype=bool)
    return average_precision(tp, fp, n_gt, cfg.ap_mode)


def evaluate_table(frames: dict, metrics=("3D", "BEV"), iou_threshs=(0.7,),
                   difficulties=(None,), range_buckets=(None,), ap_mode="R11") -> dict:
    """AP for every (metric, iou, difficulty, range) cell."""
    table = {}
    for metric in metrics:
        for iou in iou_threshs:
            for diff in difficulties:
                for bucket in range_buckets:
                    cfg = EvalConfig(metric, iou, diff, bucket, ap_mode)
                    table[(metric, iou, diff, bucket)] = evaluate(frames, cfg)
    return table


def format_table(table: dict) -> str:
    lines = ["metric iou difficulty range ap"]
    for (metric, iou, diff, bucket), ap in sorted(table.items(), key=lambda kv: str(kv[0])):
        diff_s = diff or "all"
        bucket_s = f"{bucket[0]:g}-{bucket[1]:g}" if bucket else "all"
        lines.append(f"{metric} {iou:g} {diff_s} {bucket_s} {ap:.6f}")
    return "\n".join(lines)
