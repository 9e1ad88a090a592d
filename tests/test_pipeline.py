import numpy as np

from fastpoint import pipeline
from fastpoint.autodiff import Tensor
from fastpoint.config import toy_config
from fastpoint.geometry import Box3D
from fastpoint.nn import RefinerNet, VoxelRPN
from fastpoint.pipeline import (FrameResult, infer_frame, mean_matched_iou3d,
                                proposal_recall)
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


def test_infer_frame_skip_refiner_returns_proposals():
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    res = infer_frame(frame_id, pc, rpn, None, cfg, skip_refiner=True)
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
    a = infer_frame(frame_id, pc, rpn, None, cfg, skip_refiner=True)
    b = infer_frame(frame_id, pc, rpn, None, cfg, skip_refiner=True)
    assert len(a.detections) == len(b.detections)
    for da, db in zip(a.detections, b.detections):
        assert da.score == db.score
        assert np.array_equal(da.box.as_array(), db.box.as_array())


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
