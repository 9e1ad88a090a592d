import hashlib

import numpy as np

from fastpoint import pipeline, train
from fastpoint.anchors import build_anchor_grid
from fastpoint.autodiff import Tensor
from fastpoint.config import toy_config
from fastpoint.geometry import Box3D
from fastpoint.nn import RefinerNet, VoxelRPN
from fastpoint.pipeline import (FrameResult, infer_frame, mean_matched_iou3d,
                                proposal_recall, select_proposals)
from fastpoint.postprocess import Detection
from fastpoint.synthetic import generate_dataset


def toy_frame(cfg):
    return generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, cfg.seed)[0]


def test_infer_frame_untrained_runs_end_to_end():
    cfg = toy_config()
    frame_id, pc, gts = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    refiner = RefinerNet(cfg.refiner_config(), seed=1)
    res = infer_frame(frame_id, pc, rpn, refiner, cfg)
    assert isinstance(res, FrameResult)
    assert res.frame_id == frame_id
    assert len(res.proposals) <= cfg.post.top_k
    assert len(res.detections) == len(res.proposals)
    assert {"voxelize", "rpn_forward", "decode_nms"} <= set(res.stage_times)
    for d in res.detections:
        assert 0.0 <= d.score <= 1.0
        assert np.isfinite(d.box.as_array()).all()


def test_infer_frame_without_refiner_returns_proposals():
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    res = infer_frame(frame_id, pc, rpn, None, cfg)
    assert res.detections == res.proposals
    assert "refine" not in res.stage_times


class CollapsedRefiner:
    """Predicts all eight corners at the proposal center."""

    calls = 0

    def forward(self, coords, feats, train=False):
        self.calls += 1
        return Tensor(np.zeros(24))


def test_infer_frame_keeps_proposal_when_corners_degenerate():
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    refiner = CollapsedRefiner()
    res = infer_frame(frame_id, pc, rpn, refiner, cfg)
    assert refiner.calls > 0
    assert res.detections == res.proposals


def test_infer_frame_deterministic():
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    a = infer_frame(frame_id, pc, rpn, None, cfg)
    b = infer_frame(frame_id, pc, rpn, None, cfg)
    assert len(a.detections) == len(b.detections)
    for da, db in zip(a.detections, b.detections):
        assert da.score == db.score
        assert np.array_equal(da.box.as_array(), db.box.as_array())


def test_select_proposals_is_shared_by_training_and_inference():
    assert train.select_proposals is select_proposals
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), cfg.voxel_spec())
    prepared = train.prepare_frames([(frame_id, pc, [])], cfg, anchor_set)[0]
    cls_map, reg_map, _ = rpn.forward(prepared.slots, prepared.counts, prepared.coords,
                                      cfg.voxel_spec().dims)
    got = select_proposals(cls_map.data, reg_map.data, anchor_set, cfg.post)
    assert 0 < len(got) <= cfg.post.top_k
    assert all(a.score >= b.score for a, b in zip(got, got[1:]))
    assert select_proposals(np.zeros_like(cls_map.data), reg_map.data, anchor_set,
                            cfg.post) == []


def detections_digest(res):
    def rows(dets):
        return np.array([list(d.box.as_array()) + [d.score] for d in dets]).tobytes()
    return hashlib.sha256(rows(res.proposals) + b"|" + rows(res.detections)).hexdigest()


def test_infer_frame_dense_scene_outputs_pinned():
    # taken before training and inference shared one proposal selection and
    # one feature-map frame: the refactor must not move a bit
    cfg = toy_config()
    cfg.synthetic.clutter_points = 20000
    cfg.synthetic.surface_points = (1500, 2250)
    frame_id, pc, _ = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, 2)[0]
    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    refiner = RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
    res = infer_frame(frame_id, pc, rpn, refiner, cfg)
    assert len(res.proposals) == 28
    assert detections_digest(res) == (
        "0c6538f3d106529e9e52fb981cf7146032489622582f1b051ed2aa938e23453d")


def box_at(x, y=0.0):
    return Box3D(x, y, 0.0, 4.0, 2.0, 1.5, 0.0)


def test_proposal_recall_counts_covered_gts():
    gts = {"f": [box_at(0), box_at(20)]}
    res = FrameResult("f", [], [Detection(box_at(0.1), 0.9)])
    assert proposal_recall([res], gts, iou_thresh=0.5) == 0.5


def test_proposal_recall_empty_gts_is_zero():
    assert proposal_recall([FrameResult("f", [], [])], {"f": []}) == 0.0


def test_mean_matched_iou3d_picks_best_bev_match():
    gt = box_at(0)
    near = Detection(box_at(0.2), 0.9)
    nearer = Detection(box_at(0.1), 0.1)
    got = mean_matched_iou3d({"f": [near, nearer]}, {"f": [gt]})
    from fastpoint import geometry
    assert got == geometry.iou_3d(nearer.box, gt)


def test_mean_matched_iou3d_unmatched_is_zero():
    assert mean_matched_iou3d({"f": [Detection(box_at(30), 0.9)]},
                              {"f": [box_at(0)]}) == 0.0
