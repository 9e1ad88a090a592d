import contextlib
import hashlib
import tracemalloc

import numpy as np

from fastpoint import autodiff as ad
from fastpoint import geometry, pipeline, train
from fastpoint.anchors import assign_targets, build_anchor_grid
from fastpoint.autodiff import Tensor
from fastpoint.config import toy_config
from fastpoint.geometry import Box3D
from fastpoint.nn import RefinerNet, VoxelRPN
from fastpoint.pipeline import (FrameResult, infer_frame, mean_matched_iou3d,
                                proposal_recall, select_proposals)
from fastpoint.postprocess import Detection, nms_rotated
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


class ConstantRefiner:
    """Predicts every corner coordinate as one value: 0 puts all eight
    corners at the proposal center, nan gives no corners at all."""

    def __init__(self, value: float):
        self.value = value
        self.calls = 0

    def forward(self, coords, feats, cells, starts):
        self.calls += 1
        return Tensor(np.full((len(starts), 24), self.value))


def test_infer_frame_keeps_proposal_when_corners_degenerate():
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    refiner = ConstantRefiner(0.0)
    res = infer_frame(frame_id, pc, rpn, refiner, cfg)
    assert refiner.calls > 0
    assert res.detections == res.proposals


def test_infer_frame_keeps_proposal_when_corners_are_not_finite():
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    refiner = ConstantRefiner(np.nan)
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
    cls_map, reg_map, _ = rpn.forward(prepared.grid)
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
    # taken when overflowing voxels took one seeded key per point (855 of the
    # scene's 4,903 voxels overflow); the proposal selection and feature-map
    # refactors before it moved no bit. Re-pinned once when the refiner came
    # to run a frame's proposals as one batch: the gate's and the layers'
    # products round per batch, not per proposal, which moved 2 of the 27
    # refined boxes by <= 8.9e-16 absolute (2.6e-16 of the entry); the
    # proposals did not move. Re-pinned when the refiner came to fold its
    # affine norms into the layers before them and to compute the feature
    # half of its first layer once per cell: the products round in another
    # order, which moved 3 of the 27 refined boxes by <= 8.9e-16 absolute
    # (2.6e-16 of the entry); the proposals did not move
    cfg = toy_config()
    cfg.synthetic.clutter_points = 20000
    cfg.synthetic.surface_points = (1500, 2250)
    frame_id, pc, _ = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, 2)[0]
    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    refiner = RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
    res = infer_frame(frame_id, pc, rpn, refiner, cfg)
    assert len(res.proposals) == 27
    assert detections_digest(res) == (
        "c0715f194a2032da0a40ca86c60fcfd360a8d67fbfd3ef2fd465c77865f2b8d0")


def test_infer_frame_records_no_graph(monkeypatch):
    # every op asks autodiff.recording whether to record a node, and under
    # infer_frame none may. Measured: a 8.4 MB traced peak against 11.3 MB
    # with the graph recorded, whose layers keep no im2col (77 MB when they did)
    cfg = toy_config()
    frame_id, pc, _ = toy_frame(cfg)
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    refiner = RefinerNet(cfg.refiner_config(), seed=1)
    infer_frame(frame_id, pc, rpn, refiner, cfg)
    asked, recording = [], ad.recording

    def spy(*tensors):
        asked.append(recording(*tensors))
        return asked[-1]

    def traced_peak():
        asked.clear()
        tracemalloc.start()
        try:
            res = infer_frame(frame_id, pc, rpn, refiner, cfg)
            return tracemalloc.get_traced_memory()[1], detections_digest(res)
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(ad, "recording", spy)
    lean, lean_digest = traced_peak()
    assert asked and not any(asked)
    monkeypatch.setattr(pipeline, "no_grad", contextlib.nullcontext)
    full, full_digest = traced_peak()
    assert any(asked)
    assert lean < full, (lean, full)
    assert lean_digest == full_digest


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


def test_pairwise_iou_consumers_pinned():
    # taken before NMS, assign_targets and the toy metrics shared one pairwise
    # IoU: kept lists, labels and metrics must not move a bit. Each gt gets a
    # jittered proposal and a copy of it shifted in z (equal BEV IoU, unequal
    # 3D IoU), so the metrics' tie rules show in the digest. Re-pinned once
    # when the shoelace began summing about the polygon's first vertex: the
    # labels and kept lists held, and the three mean_matched_iou3d values
    # moved by <= 4.4e-16.
    cfg = toy_config()
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), cfg.voxel_spec())
    frames = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 4, 3)
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    results, gts = [], {}
    for frame_id, _, frame_gts in frames:
        asn = assign_targets(anchor_set, frame_gts, cfg.anchors.pos_iou, cfg.anchors.neg_iou)
        digest.update(asn.labels.tobytes() + asn.matched_gt.tobytes())
        boxes = []
        for g in frame_gts:
            near = Box3D(g.x + rng.normal(0, 0.3), g.y + rng.normal(0, 0.3), g.z,
                         g.l, g.w, g.h, g.theta + rng.normal(0, 0.1))
            boxes += [near, Box3D(near.x, near.y, near.z + 0.3, near.l, near.w, near.h,
                                  near.theta)]
        boxes += [Box3D(rng.uniform(0, 12.8), rng.uniform(-6.4, 6.4), -0.8,
                        rng.uniform(2, 5), rng.uniform(1, 2), 1.5, rng.uniform(-3, 3))
                  for _ in range(12)]
        scores = np.round(rng.uniform(0, 1, len(boxes)), 1)
        for thresh in (0.0, 0.1, 0.5):
            digest.update(np.array(nms_rotated(geometry.bev_rows(boxes), scores,
                                               thresh, len(boxes))).tobytes())
        dets = [Detection(b, float(s)) for b, s in zip(boxes, scores)]
        kept = nms_rotated(geometry.bev_rows(boxes), scores, cfg.post.nms_iou, len(boxes))
        results.append(FrameResult(frame_id, dets, [dets[i] for i in kept]))
        gts[frame_id] = frame_gts
    dets = {r.frame_id: r.detections for r in results}
    props = {r.frame_id: r.proposals for r in results}
    digest.update(np.array([proposal_recall(results, gts, 0.5),
                            proposal_recall(results, gts, 0.0),
                            mean_matched_iou3d(dets, gts),
                            mean_matched_iou3d(props, gts),
                            mean_matched_iou3d(dets, gts, 0.0)]).tobytes())
    assert digest.hexdigest() == (
        "8d4f659e6b4e73a827c1634329208166e4fe8863a95fc5828602096fd7a1e795")
