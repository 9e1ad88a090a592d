"""End-to-end orchestration: ingest -> voxelize -> first stage -> decode ->
NMS -> refinement -> final boxes, plus the surrogate quality metrics used
to judge toy-scale runs."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, refiner_features
from .anchors import AnchorSet, build_anchor_grid, decode_corners
from .autodiff import no_grad
from .config import PipelineConfig, PostParams
from .errors import EmptyProposal
from .kitti import PointCloud
from .nn import RefinerNet, VoxelRPN
from .postprocess import (DegenerateCorners, Detection, corners_to_box,
                          decode_detections, nms_rotated)
from .voxels import voxelize
# bound here only so that the benchmark's tracer can patch them under pipeline
from .voxels import slot_counts, to_dense  # noqa: F401


@dataclass
class FrameResult:
    frame_id: str
    detections: list
    proposals: list
    stage_times: dict = field(default_factory=dict)


def select_proposals(cls_map: np.ndarray, reg_map: np.ndarray, anchor_set: AnchorSet,
                     post: PostParams) -> list:
    """First-stage maps -> decoded (N, 8) box rows above post.score_thresh ->
    rotated NMS on their BEV rows -> Detections of the top post.top_k, in
    descending score order. Training and inference both pick the refiner's
    proposals here."""
    cand = decode_detections(cls_map, reg_map, anchor_set, post.score_thresh)
    kept = nms_rotated(cand[:, [0, 1, 3, 4, 6]], cand[:, 7], post.nms_iou, post.top_k)
    return [Detection(geometry.Box3D.from_array(cand[i, :7]), float(cand[i, 7])) for i in kept]


def infer_frame(frame_id: str, pc: PointCloud, rpn: VoxelRPN,
                refiner: RefinerNet | None, cfg: PipelineConfig) -> FrameResult:
    """Both stages on one frame; with refiner None the detections are the
    proposals."""
    spec = cfg.voxel_spec()
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), spec)
    times = {}

    t0 = time.perf_counter()
    grid = voxelize(pc, spec, seed=cfg.seed)
    times["voxelize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with no_grad():     # inference never runs backward: record no graph
        cls_map, reg_map, fused = rpn.forward(grid, train=False)
    times["rpn_forward"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    proposals = select_proposals(cls_map.data, reg_map.data, anchor_set, cfg.post)
    times["decode_nms"] = time.perf_counter() - t0

    if refiner is None:
        return FrameResult(frame_id, list(proposals), proposals, times)

    t0 = time.perf_counter()
    refined = []
    for det in proposals:
        try:
            bf = refiner_features.build_box_feature(
                pc, fused.data, det.box, spec, cfg.post.crop_margin)
        except EmptyProposal:
            refined.append(det)      # pointless to refine without points
            continue
        with no_grad():
            pred = refiner.forward(bf.coords, bf.feats, bf.cells)
        corners = decode_corners(pred.data, det.box)
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
        iou = geometry.iou_bev_matrix(geometry.bev_rows([p.box for p in res.proposals]),
                                      geometry.bev_rows(gts))
        covered += int(np.sum(np.any(iou >= iou_thresh, axis=0)))
    return covered / total if total else 0.0


def mean_matched_iou3d(dets_by_frame: dict, gts_by_frame: dict,
                       match_iou_bev: float = 0.5) -> float:
    """Mean 3D IoU over (gt, best-BEV-matched detection) pairs; of equal best
    detections the last is matched."""
    vals = []
    for frame_id, gts in gts_by_frame.items():
        dets = dets_by_frame.get(frame_id, [])
        if not dets:
            continue
        iou = geometry.iou_bev_matrix(geometry.bev_rows([d.box for d in dets]),
                                      geometry.bev_rows(gts))
        for j, gt in enumerate(gts):
            col = iou[:, j]
            if col.max() >= match_iou_bev:
                last_best = len(dets) - 1 - int(np.argmax(col[::-1]))
                vals.append(geometry.iou_3d(dets[last_best].box, gt))
    return float(np.mean(vals)) if vals else 0.0
