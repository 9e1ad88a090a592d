"""Acceptance gate: oracle-backed checks on geometry, codecs, losses,
gradients, shapes, suppression/AP, the toy end-to-end run, determinism,
and augmentation invariants."""

import math
import time

import numpy as np
import pytest

from fastpoint import augmentation, cli, geometry, losses, pipeline
from fastpoint import autodiff as ad
from fastpoint import train as train_mod
from fastpoint.anchors import (build_anchor_grid, decode_corners, decode_rpn,
                               encode_corners, encode_rpn)
from fastpoint.autodiff import Tensor
from fastpoint.config import save_config, toy_config
from fastpoint.evalkit import EvalConfig, EvalGt, average_precision, evaluate
from fastpoint.geometry import Box3D
from fastpoint.nn import (batchnorm_relu, conv_nd, conv_voxels, deconv_nd, linear,
                          reference_netconfig)
from fastpoint.postprocess import Detection, nms_rotated
from fastpoint.selfcheck import (brute_force_nms, finite_diff_check, mc_iou_bev,
                                 random_bev_box, random_box3d)
from fastpoint.synthetic import generate_dataset, generate_scene


# ------------------------------------------------- 1. geometry vs Monte-Carlo
def test_iou_bev_matches_monte_carlo_oracle():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    for k in range(200):
        a, b = random_bev_box(rng), random_bev_box(rng)
        got = geometry.iou_bev(a, b)
        ref = mc_iou_bev(a, b, n_samples=1_000_000, seed=k)
        assert abs(got - ref) <= 5e-3, f"pair {k}: {got} vs {ref}"
    assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------- 2. codec identity
def test_rpn_codec_roundtrip_thousand_pairs():
    rng = np.random.default_rng(7)
    pairs = [(random_box3d(rng), random_box3d(rng)) for _ in range(1000)]
    gts = np.array([gt.as_array() for gt, _ in pairs])
    boxes = np.array([anchor.as_array() for _, anchor in pairs])
    diag = np.hypot(boxes[:, 3], boxes[:, 4])
    deltas = np.array([encode_rpn(gt, anchor, d_a) for (gt, anchor), d_a in zip(pairs, diag)])
    dec = decode_rpn(deltas, boxes, diag)
    assert np.allclose(dec[:, :6], gts[:, :6], atol=1e-9)
    dtheta = np.abs([geometry.normalize_angle(t) for t in dec[:, 6] - gts[:, 6]])
    assert np.all(np.minimum(dtheta, np.abs(dtheta - math.pi)) < 1e-9)


def test_corner_codec_roundtrip_thousand_pairs():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        gt, proposal = random_box3d(rng), random_box3d(rng)
        corners = decode_corners(encode_corners(gt, proposal), proposal)
        assert np.allclose(corners, geometry.corners_3d(gt), atol=1e-9)


# -------------------------------------------------------- 4. gradient suite
def _fd_case(make_loss, params, seed, rtol=1e-4):
    worst = finite_diff_check(make_loss, params, n_coords=3, seed=seed)
    assert worst <= rtol, f"seed {seed}: worst relative error {worst}"


def _squared(y):
    return (y * y).sum()


def _smooth_safe(rng, shape):
    """Values clear of the |x|=0 and |x|=1/sigma^2 gradient kinks."""
    mag = np.where(rng.random(shape) < 0.5,
                   rng.uniform(0.02, 0.08, shape),
                   rng.uniform(0.2, 1.0, shape))
    return mag * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def test_gradients_linear():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        _fd_case(lambda: _squared(linear(x, w, b)), [x, w, b], seed)


def test_gradients_conv2d():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stride = (1, 1) if seed % 2 else (2, 2)
        x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        _fd_case(lambda: _squared(conv_nd(x, w, b, stride, (1, 1))), [x, w, b], seed)


def test_gradients_conv3d():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 4, 4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        _fd_case(lambda: _squared(conv_nd(x, w, b, (1, 1, 1), (0, 0, 0))), [x, w, b], seed)


def test_gradients_conv_voxels():
    dims = (4, 4, 3)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        flat = rng.choice(int(np.prod(dims)), 6, replace=False)
        coords = np.stack(np.unravel_index(flat, dims), axis=1)
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        _fd_case(lambda: _squared(conv_voxels(x, coords, dims, w, b, (2, 1, 2), (1, 1, 0))),
                 [x, w, b], seed)


def test_gradients_deconv2d():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        _fd_case(lambda: _squared(deconv_nd(x, w, b, (2, 2), (1, 1))), [x, w, b], seed)


def test_gradients_scatter():
    # conv_voxels with one 1x1x1 identity tap is the scatter of voxel rows
    # into the dense grid that the first 3D conv reads
    dims = (4, 3, 2)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        flat = rng.choice(int(np.prod(dims)), 5, replace=False)
        coords = np.stack(np.unravel_index(flat, dims), axis=1)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        eye = Tensor(np.eye(3).reshape(3, 3, 1, 1, 1))
        r = rng.normal(size=(3,) + dims)
        _fd_case(lambda: _squared(conv_voxels(x, coords, dims, eye, Tensor(np.zeros(3)),
                                              (1, 1, 1), (0, 0, 0)) * r), [x], seed)


def _batchnorm_relu_cases(train):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        scale = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        shift = Tensor(rng.normal(size=3), requires_grad=True)
        # linear functional of the output: sum-of-squares is degenerate here
        # because the normalized activations have a fixed second moment
        r = rng.normal(size=(3, 6))
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)

        def make():
            stats = {"n/mean": mean, "n/var": var}
            return (batchnorm_relu(x, scale, shift, stats, "n", train) * r).sum()

        _fd_case(make, [x, scale, shift], seed)


def test_gradients_batchnorm():
    _batchnorm_relu_cases(train=True)


def test_gradients_batchnorm_eval():
    _batchnorm_relu_cases(train=False)


def test_gradients_cls_loss():
    # every third seed has no positives, and every third no negatives
    cfg = losses.LossConfig(ohem_keep=8)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pos = Tensor(rng.uniform(0.1, 0.9, 0 if seed % 3 == 1 else 3), requires_grad=True)
        neg = Tensor(rng.uniform(0.1, 0.9, 0 if seed % 3 == 2 else 5), requires_grad=True)
        _fd_case(lambda: losses.cls_loss(pos, neg, cfg), [pos, neg], seed)


def test_gradients_reg_loss():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        target = np.zeros((4, 7))
        pred = Tensor(_smooth_safe(rng, (4, 7)), requires_grad=True)
        _fd_case(lambda: losses.reg_loss_rpn(pred, target, 3.0), [pred], seed)


def test_gradients_corner_loss():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        target = np.zeros(24)
        pred = Tensor(_smooth_safe(rng, 24), requires_grad=True)
        _fd_case(lambda: losses.corner_loss(pred, target, 3.0), [pred], seed)


# ---------------------------------------------------------- 5. shape contract
def test_reference_shape_contract():
    cfg = reference_netconfig(1.0)
    shapes = cfg.infer_shapes((704, 800, 20))
    assert shapes["map_dims"] == (200, 176)
    assert shapes["cls_channels"] == 4
    assert shapes["reg_channels"] == 28


# ------------------------------------------------------- 6. NMS / AP oracles
def test_nms_equals_brute_force_hundred_boxes():
    rng = np.random.default_rng(11)
    for trial in range(5):
        boxes = [random_bev_box(rng, 8.0) for _ in range(100)]
        scores = rng.uniform(0, 1, 100)
        for thresh in (0.1, 0.3, 0.5):
            assert nms_rotated(geometry.bev_rows(boxes), scores, thresh, len(boxes)) == \
                brute_force_nms(boxes, scores, thresh)


def test_ap_hand_case_exact():
    ap = average_precision(np.array([True, False]), np.array([False, True]), 2)
    assert ap == 6.0 / 11.0


def test_three_frame_evaluation_matches_hand_built_pr():
    def b(x):
        return Box3D(x, 0, 0, 4, 2, 1.5, 0)

    frames = {
        "a": ([Detection(b(0), 0.9)], [EvalGt(b(0))]),
        "b": ([Detection(b(50), 0.8)], [EvalGt(b(0))]),
        "c": ([Detection(b(0), 0.7)], [EvalGt(b(0))]),
    }
    # pooled by score: TP (r=1/3, p=1), FP (p=1/2), TP (r=2/3, p=2/3).
    # R11 points 0, .1, .2, .3 interpolate to 1; .4, .5, .6 to 2/3; rest 0.
    want = (4 * 1.0 + 3 * (2.0 / 3.0)) / 11.0
    got = evaluate(frames, EvalConfig("3D", 0.5))
    assert got == pytest.approx(want, abs=1e-15)


# ------------------------------------------------------- 7. toy end-to-end
def test_toy_end_to_end_recall_and_refinement():
    cfg = toy_config()
    t0 = time.perf_counter()
    frames = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range),
                              cfg.synthetic.n_scenes, cfg.seed)
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(),
                                   cfg.voxel_spec())
    prepared = train_mod.prepare_frames(frames, cfg, anchor_set)
    rpn = train_mod.train_voxelrpn(prepared, cfg)
    refiner = train_mod.train_refiner(prepared, rpn, cfg)

    gts_by_frame = {fid: gts for fid, _, gts in frames}
    results = [pipeline.infer_frame(fid, pc, rpn, refiner, cfg)
               for fid, pc, _ in frames]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"budget exceeded: {elapsed:.0f}s"

    recall = pipeline.proposal_recall(results, gts_by_frame, iou_thresh=0.5)
    assert recall >= 0.95, f"top-30 proposal recall {recall}"

    stage1 = {r.frame_id: r.proposals for r in results}
    refined = {r.frame_id: r.detections for r in results}
    iou_stage1 = pipeline.mean_matched_iou3d(stage1, gts_by_frame)
    iou_refined = pipeline.mean_matched_iou3d(refined, gts_by_frame)
    assert iou_refined - iou_stage1 >= 0.02, \
        f"refinement gain {iou_refined - iou_stage1:.4f} " \
        f"({iou_stage1:.4f} -> {iou_refined:.4f})"


# ----------------------------------------------------------- 8. determinism
def test_train_and_infer_byte_identical(tmp_path):
    cfg = toy_config()
    cfg.train.rpn_epochs = 2
    cfg.train.rpn_decay_epochs = (1,)
    cfg.train.refiner_epochs = 2
    cfg.train.refiner_decay_epochs = (1,)
    cfg.train.refiner_jitter = 1
    cfg.synthetic.n_scenes = 3
    cfg_path = tmp_path / "cfg.yaml"
    save_config(cfg, cfg_path)

    dumps = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["--config", str(cfg_path), "--out", str(out),
                         "train-toy"]) == 0
        assert cli.main(["--config", str(cfg_path), "--out", str(out), "infer",
                         "--checkpoint", str(out / "checkpoint.npz")]) == 0
        files = {"checkpoint.npz": (out / "checkpoint.npz").read_bytes()}
        for det in sorted(out.glob("0*.txt")):
            files[det.name] = det.read_bytes()
        dumps.append(files)
    assert dumps[0].keys() == dumps[1].keys()
    for name in dumps[0]:
        assert dumps[0][name] == dumps[1][name], f"{name} differs between runs"


# ------------------------------------------------------ 9. augmentation audit
def test_augmentation_audit_thousand_scenes():
    spec = toy_config().synthetic.scene_spec(toy_config().voxel_range)
    for i in range(1000):
        pc, gts = generate_scene(spec, seed=i)
        counts = [int(geometry.points_in_box(pc.points, g).sum()) for g in gts]
        pc2, gts2 = augmentation.global_augment(pc, gts, seed=i)
        counts2 = [int(geometry.points_in_box(pc2.points, g).sum()) for g in gts2]
        assert counts == counts2, f"scene {i}: interior counts changed"
        for a in range(len(gts2)):
            for b in range(a + 1, len(gts2)):
                assert geometry.iou_bev(gts2[a].bev(), gts2[b].bev()) == 0.0
