import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fastpoint import geometry, train
from fastpoint.anchors import build_anchor_grid, encode_corners
from fastpoint.autodiff import Tensor
from fastpoint.config import toy_config
from fastpoint.geometry import Box3D
from fastpoint.losses import corner_loss
from fastpoint.nn import Parameters, RefinerNet, VoxelRPN
from fastpoint.postprocess import Detection
from fastpoint.refiner_features import build_box_feature, stack_features
from fastpoint.synthetic import generate_dataset
from fastpoint.train import (Adam, SGD, _jitter_proposal, _lr_at, merge_parameters,
                             prepare_frames, rpn_loss)


def params_with(**named):
    p = Parameters()
    for k, v in named.items():
        p.tensors[k] = Tensor(np.asarray(v, dtype=float), requires_grad=True)
    return p


def test_sgd_step_hand_math():
    p = params_with(**{"layer/w": [1.0, 2.0]})
    p.tensors["layer/w"].grad = np.array([0.5, -1.0])
    SGD(p, lr=0.1).step()
    assert np.allclose(p.tensors["layer/w"].data, [0.95, 2.1])


def test_sgd_weight_decay_only_on_weights():
    p = params_with(**{"layer/w": [1.0], "layer/b": [1.0]})
    for t in p.tensors.values():
        t.grad = np.array([0.0])
    SGD(p, lr=0.1, weight_decay=0.1).step()
    assert p.tensors["layer/w"].data[0] == pytest.approx(1.0 - 0.1 * 0.1)
    assert p.tensors["layer/b"].data[0] == pytest.approx(1.0)


def test_adam_first_step_is_signed_lr():
    # with bias correction, the first update is lr * g / (|g| + eps)
    p = params_with(**{"m/w": [1.0, 1.0]})
    p.tensors["m/w"].grad = np.array([3.0, -0.01])
    Adam(p, lr=0.1).step()
    assert np.allclose(p.tensors["m/w"].data, [0.9, 1.1], atol=1e-5)


def test_adam_skips_gradless_tensors():
    p = params_with(**{"a/w": [1.0], "b/w": [2.0]})
    p.tensors["a/w"].grad = np.array([1.0])
    Adam(p, lr=0.1).step()
    assert p.tensors["b/w"].data[0] == 2.0


def test_lr_schedule_steps_down():
    decay = (5, 8)
    assert _lr_at(1.0, 0, decay, 0.1) == 1.0
    assert _lr_at(1.0, 4, decay, 0.1) == 1.0
    assert _lr_at(1.0, 5, decay, 0.1) == pytest.approx(0.1)
    assert _lr_at(1.0, 8, decay, 0.1) == pytest.approx(0.01)


def test_jitter_proposal_overlaps_gt():
    rng = np.random.default_rng(0)
    gt = Box3D(5.0, 1.0, -0.8, 3.9, 1.7, 1.56, 0.4)
    for _ in range(20):
        prop = _jitter_proposal(gt, rng, min_iou=0.5)
        assert geometry.iou_bev(prop.bev(), gt.bev()) > 0.5


def test_refiner_pairs_match_first_best_gt_strictly_above_threshold():
    cfg = toy_config()
    gt = Box3D(5.0, 1.0, -0.8, 3.9, 1.7, 1.56, 0.4)
    twin = Box3D(gt.x, gt.y, gt.z + 1.0, gt.l, gt.w, gt.h, gt.theta)   # same BEV
    on_gt = Detection(Box3D(gt.x + 0.2, gt.y, gt.z, gt.l, gt.w, gt.h, gt.theta), 0.9)
    far = Detection(Box3D(20.0, 1.0, -0.8, 3.9, 1.7, 1.56, 0.0), 0.8)
    frame = SimpleNamespace(gts=[gt, twin])
    pairs = train._refiner_training_pairs([far, on_gt], frame, cfg)
    assert [(d, g) for d, g in pairs] == [(on_gt, gt)]
    cfg.post.refiner_pos_iou = geometry.iou_bev(on_gt.box.bev(), gt.bev())
    assert train._refiner_training_pairs([on_gt], frame, cfg) == []
    assert train._refiner_training_pairs([on_gt], SimpleNamespace(gts=[]), cfg) == []


def test_merge_parameters_combines_both_networks():
    cfg = toy_config()
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    refiner = RefinerNet(cfg.refiner_config(), seed=1)
    merged = merge_parameters(rpn, refiner)
    assert set(merged.tensors) == set(rpn.params.tensors) | set(refiner.params.tensors)
    assert set(rpn.params.tensors).isdisjoint(refiner.params.tensors)


def test_prepare_frames_and_rpn_loss_backward():
    cfg = toy_config()
    cfg.synthetic.n_scenes = 1
    frames = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, cfg.seed)
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), cfg.voxel_spec())
    prepared = prepare_frames(frames, cfg, anchor_set)
    assert len(prepared) == 1
    frame = prepared[0]
    assert len(frame.assignment.positive_indices) >= len(frame.gts)

    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    loss = rpn_loss(rpn, frame, cfg, train=True)
    assert math.isfinite(loss.item()) and loss.item() > 0
    loss.backward()
    head_grads = [t.grad for n, t in rpn.params.tensors.items()
                  if n.startswith(("rpn/cls", "rpn/reg")) and t.grad is not None]
    assert head_grads and any(np.abs(g).max() > 0 for g in head_grads)


def test_rpn_and_refiner_gradients_pinned():
    # taken before backward freed the graph it walks: the sweep order and the
    # accumulation order are unchanged, so no gradient may move a bit.
    # Re-pinned once when deconv_nd became the adjoint of conv_nd's gather:
    # the branches sum their taps in another order, which moved the gradients
    # by <= 5.7e-15 of each tensor's largest entry (the conv biases before
    # batch norm, whose exact gradient is 0, by <= 3.2e-13 absolute).
    # Re-pinned when the refiner's last PointNet layer came to run on its
    # pooled row alone: no gradient value moved, but a channel that the ReLU
    # cuts off on every point now hands its norm scale and shift a zero from
    # that one row instead of a sum of zeros over all rows, so 22 zero
    # entries of refiner/pn1/bn/{scale,shift} now read -0.0. Re-pinned when
    # the attention gate came to run once per BEV cell: refiner/att/{w,b}
    # now sum their gradient per cell before summing over cells, which moved
    # them by <= 3.3e-16 of each tensor's largest entry; no other value moved.
    # Re-pinned when conv_nd came to re-gather its columns in backward and
    # batch norm + ReLU became one node with a closed-form backward: dW sums
    # over chunks of columns and dx adds chunk by chunk, and the batch-norm
    # input gradient is r * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    # instead of the chain of its ops. The RPN gradients moved by <= 3.6e-15
    # of each tensor's largest entry (the conv biases before batch norm,
    # whose exact gradient is 0, by <= 9.1e-13 absolute); the heads' and the
    # refiner's did not move. Re-pinned when the three losses became one node
    # each with a closed-form backward: bce's derivative is
    # (1 - t) / (1 - p) - t / p instead of the chain of its log, clip and
    # sum ops. 150 of the 192 (frame, tensor) gradients moved, by <= 2.4e-15
    # of each tensor's largest entry (the conv biases before batch norm by
    # <= 1.1e-12 absolute); the regression head's and the refiner's did not
    # move. Re-pinned when the refiner came to run a frame's proposals as one
    # batch, with one corner loss over their stacked targets: 17 of the 192
    # (frame, tensor) gradients moved, all of them the refiner's, by
    # <= 6.1e-16 of each tensor's largest entry (refiner/pn0/b). Re-pinned
    # when the refiner came to fold its affine norms into the layers before
    # them and to compute the feature half of its first layer once per cell:
    # 22 of the 192 (frame, tensor) gradients moved, all of them the
    # refiner's, by <= 7.4e-16 of each tensor's largest entry (refiner/pn0/b)
    cfg = toy_config()
    spec = cfg.voxel_spec()
    frames = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 2, cfg.seed)
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), spec)
    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    refiner = RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
    digest = hashlib.sha256()
    for frame in prepare_frames(frames, cfg, anchor_set):
        rpn.params.zero_grad()
        refiner.params.zero_grad()
        rpn_loss(rpn, frame, cfg, train=True).backward()
        fused = rpn.forward(frame.grid)[2].data
        features, targets = [], []
        for gt in frame.gts:
            box = Box3D(gt.x + 0.2, gt.y - 0.1, gt.z, gt.l * 1.05, gt.w, gt.h, gt.theta + 0.1)
            features.append(build_box_feature(frame.pc, fused, box, spec, cfg.post.crop_margin))
            targets.append(encode_corners(gt, box))
        pred = refiner.forward(*stack_features(features))
        # the sum of the proposals' corner losses
        (corner_loss(pred, np.stack(targets), cfg.loss.sigma) * float(len(targets))).backward()
        for name, t in sorted({**rpn.params.tensors, **refiner.params.tensors}.items()):
            digest.update(name.encode() + (b"none" if t.grad is None else t.grad.tobytes()))
    assert digest.hexdigest() == (
        "f1ca6a5a9ec8c239dba87a919464af84a75eb16676bacf6b2e4c3ea775937e76")


def test_train_mode_rpn_loss_and_running_statistics_pinned():
    # forward bytes: no change to a layer's backward may move them
    cfg = toy_config()
    frame = one_prepared_frame(cfg)[0]
    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    loss = rpn_loss(rpn, frame, cfg, train=True)
    digest = hashlib.sha256(loss.data.tobytes())
    for name, v in sorted(rpn.params.stats.items()):
        digest.update(name.encode() + v.tobytes())
    assert loss.item() == 12.149102490551911
    assert digest.hexdigest() == (
        "f96ea0b8bb6781dd57f9d44ead789ccd0fbe1955bd122779617bfe29d9706ee7")


def one_prepared_frame(cfg):
    frames = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, cfg.seed)
    return prepare_frames(frames, cfg, build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(),
                                                         cfg.voxel_spec()))


def test_refiner_trains_one_forward_and_one_loss_per_frame(monkeypatch):
    # the frame's loss is one corner loss over the stacked (P, 24) targets:
    # its mean over P * 24 offsets is the mean of the per-sample losses, and
    # its gradients equal theirs to 1e-12
    cfg = toy_config()
    cfg.train.refiner_epochs = 1
    prepared = one_prepared_frame(cfg)
    forwards, losses_seen = [], []
    forward, corner = RefinerNet.forward, train.losses.corner_loss
    monkeypatch.setattr(RefinerNet, "forward",
                        lambda self, *a: forwards.append(a) or forward(self, *a))
    monkeypatch.setattr(train.losses, "corner_loss",
                        lambda *a: losses_seen.append(a) or corner(*a))
    train.train_refiner(prepared, VoxelRPN(cfg.net_config(), seed=cfg.seed), cfg)
    (batch,), ((_, targets, sigma),) = forwards, losses_seen
    coords, feats, cells, starts = batch
    assert len(starts) == len(targets) > 1 and targets.shape[1] == 24
    monkeypatch.undo()

    refiner = RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
    tensors = refiner.params.tensors

    def gradients(make_loss):
        refiner.params.zero_grad()
        loss = make_loss()
        loss.backward()
        return loss.item(), {k: np.zeros(t.data.shape) if t.grad is None else t.grad
                             for k, t in tensors.items()}

    def per_sample():
        loss = Tensor(0.0)
        for p, (a, b) in enumerate(zip(starts, np.append(starts[1:], len(coords)))):
            pred = refiner.forward(coords[a:b], feats, cells[a:b], np.array([0]))
            loss = loss + corner_loss(pred, targets[p:p + 1], sigma)
        return loss * (1.0 / len(starts))

    got_loss, got = gradients(lambda: corner_loss(refiner.forward(*batch), targets, sigma))
    want_loss, want = gradients(per_sample)
    assert abs(got_loss - want_loss) <= 1e-12 * want_loss
    for name in want:
        err = np.max(np.abs(got[name] - want[name]), initial=0.0)
        assert err <= 1e-12 * max(1.0, np.abs(want[name]).max()), (name, err)


def test_empty_training_set_is_rejected():
    cfg = toy_config()
    with pytest.raises(ValueError, match="train_voxelrpn: no training frames"):
        train.train_voxelrpn([], cfg)
    with pytest.raises(ValueError, match="train_refiner: no training frames"):
        train.train_refiner([], VoxelRPN(cfg.net_config(), seed=0), cfg)


def test_refiner_without_a_sample_is_rejected():
    # no jittered copies, and no proposal of the seeded RPN overlaps a gt
    # above refiner_pos_iou: no frame has a sample to train on
    cfg = toy_config()
    cfg.train.refiner_jitter = 0
    frames = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 2, cfg.seed)
    prepared = prepare_frames(frames, cfg, build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(),
                                                             cfg.voxel_spec()))
    with pytest.raises(ValueError, match="train_refiner: none of the 2 frames yields a sample"):
        train.train_refiner(prepared, VoxelRPN(cfg.net_config(), seed=cfg.seed), cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("phase", ["rpn", "refiner"])
def test_non_finite_loss_raises_diverged_loss_before_any_step(monkeypatch, phase, bad):
    cfg = toy_config()
    prepared = one_prepared_frame(cfg)
    built, steps = [], []
    adam_init = train.Adam.__init__

    def spy(opt, params, lr, **kwargs):
        built.append(params)
        adam_init(opt, params, lr, **kwargs)

    monkeypatch.setattr(train.Adam, "__init__", spy)
    adam_step = train.Adam.step

    def step(opt):
        steps.append(opt)
        adam_step(opt)

    monkeypatch.setattr(train.Adam, "step", step)
    if phase == "rpn":
        rpn_loss = train.rpn_loss
        monkeypatch.setattr(train, "rpn_loss", lambda *a, **k: rpn_loss(*a, **k) * bad)
        fit, args = train.train_voxelrpn, (prepared, cfg)
        seeded = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    else:
        corner_loss = train.losses.corner_loss
        monkeypatch.setattr(train.losses, "corner_loss", lambda *a: corner_loss(*a) * bad)
        fit, args = train.train_refiner, (prepared, VoxelRPN(cfg.net_config(), seed=cfg.seed), cfg)
        seeded = RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
    with pytest.raises(train.DivergedLoss, match=f"^{phase} epoch 0: loss {bad}$"):
        fit(*args)
    assert steps == [] and len(built) == 1
    assert {n: t.data.tobytes() for n, t in built[0].tensors.items()} == \
        {n: t.data.tobytes() for n, t in seeded.params.tensors.items()}
