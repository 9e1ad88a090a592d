"""End-to-end orchestration: ingest -> voxelize -> first stage -> decode ->
NMS -> refinement -> final boxes, plus the surrogate quality metrics used
to judge toy-scale runs."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, refiner_features
from .anchors import build_anchor_grid
from .config import PipelineConfig
from .kitti import PointCloud
from .nn import RefinerNet, VoxelRPN
from .postprocess import (DegenerateCorners, Detection, corners_to_box,
                          decode_detections, nms_rotated)
from .voxels import slot_counts, to_dense, voxelize


@dataclass
class FrameResult:
    frame_id: str
    detections: list
    proposals: list
    stage_times: dict = field(default_factory=dict)


def infer_frame(frame_id: str, pc: PointCloud, rpn: VoxelRPN,
                refiner: RefinerNet | None, cfg: PipelineConfig,
                skip_refiner: bool = False) -> FrameResult:
    spec = cfg.voxel_spec()
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), spec)
    times = {}

    t0 = time.perf_counter()
    grid = voxelize(pc, spec, seed=cfg.seed)
    slots, counts = to_dense(grid), slot_counts(grid)
    times["voxelize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cls_map, reg_map, fused = rpn.forward(slots, counts, grid.coords, grid.dims, train=False)
    times["rpn_forward"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dets = decode_detections(cls_map.data, reg_map.data, anchor_set, cfg.post.score_thresh)
    if dets:
        kept = nms_rotated([d.box for d in dets], np.array([d.score for d in dets]),
                           cfg.post.nms_iou)
        proposals = [dets[i] for i in kept[:cfg.post.top_k]]
    else:
        proposals = []
    times["decode_nms"] = time.perf_counter() - t0

    if skip_refiner or refiner is None:
        return FrameResult(frame_id, list(proposals), proposals, times)

    t0 = time.perf_counter()
    extent = (spec.axis_range[0][1] - spec.axis_range[0][0],
              spec.axis_range[1][1] - spec.axis_range[1][0])
    origin = (spec.axis_range[0][0], spec.axis_range[1][0])
    refined = []
    for det in proposals:
        try:
            bf = refiner_features.build_box_feature(
                pc, fused.data, det.box, det.score, extent, origin, cfg.post.crop_margin)
        except refiner_features.EmptyProposal:
            refined.append(det)      # pointless to refine without points
            continue
        pred = refiner.forward(bf.coords, bf.feats, train=False)
        corners = geometry.uncanonize_points(det.box, pred.data.reshape(8, 3))
        try:
            refined.append(Detection(corners_to_box(corners), det.score, det.cls))
        except DegenerateCorners:
            refined.append(det)      # collapsed corners fit no box
    times["refine"] = time.perf_counter() - t0
    return FrameResult(frame_id, refined, proposals, times)


# ----------------------------------------------------------- toy metrics
def proposal_recall(results: list, gts_by_frame: dict, iou_thresh: float = 0.5) -> float:
    """Fraction of gts covered in BEV by some top-K proposal."""
    covered = total = 0
    for res in results:
        gts = gts_by_frame[res.frame_id]
        total += len(gts)
        for gt in gts:
            if any(geometry.iou_bev(p.box.bev(), gt.bev()) >= iou_thresh
                   for p in res.proposals):
                covered += 1
    return covered / total if total else 0.0


def mean_matched_iou3d(dets_by_frame: dict, gts_by_frame: dict,
                       match_iou_bev: float = 0.5) -> float:
    """Mean 3D IoU over (gt, best-BEV-matched detection) pairs."""
    vals = []
    for frame_id, gts in gts_by_frame.items():
        dets = dets_by_frame.get(frame_id, [])
        for gt in gts:
            best = None
            best_bev = match_iou_bev
            for d in dets:
                iou = geometry.iou_bev(d.box.bev(), gt.bev())
                if iou >= best_bev:
                    best, best_bev = d, iou
            if best is not None:
                vals.append(geometry.iou_3d(best.box, gt))
    return float(np.mean(vals)) if vals else 0.0
