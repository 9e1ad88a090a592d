import numpy as np
import pytest

from fastpoint import autodiff as ad
from fastpoint import nn
from fastpoint.autodiff import Tensor
from fastpoint.config import toy_config
from fastpoint.errors import ConfigError, EmptyProposal, ShapeMismatch
from fastpoint.nn import (MissingCheckpoint, Parameters, RefinerConfig, RefinerNet, VoxelRPN,
                          batchnorm, conv_nd, deconv_nd, linear, reference_netconfig,
                          setnorm)
from fastpoint.selfcheck import finite_diff_check
from fastpoint.train import merge_parameters


# ------------------------------------------------------------------ layers
def test_conv1x1_is_channel_matmul():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    w = Tensor(rng.normal(size=(2, 3, 1, 1)))
    b = Tensor(np.zeros(2))
    out = conv_nd(x, w, b, stride=(1, 1), padding=(0, 0))
    assert out.shape == (2, 4, 5)
    want = np.einsum("oc,cxy->oxy", w.data[:, :, 0, 0], x.data)
    assert np.allclose(out.data, want, atol=1e-12)


def test_conv_identity_kernel():
    x = Tensor(np.arange(16, dtype=float).reshape(1, 4, 4))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv_nd(x, Tensor(w), Tensor(np.zeros(1)), stride=(1, 1), padding=(1, 1))
    assert np.allclose(out.data, x.data)


def test_conv_stride_and_padding_shapes():
    x = Tensor(np.zeros((2, 8, 9)))
    w = Tensor(np.zeros((4, 2, 3, 3)))
    out = conv_nd(x, w, Tensor(np.zeros(4)), stride=(2, 2), padding=(1, 1))
    assert out.shape == (4, 4, 5)   # floor((n + 2p - k)/s) + 1


def test_conv3d_shape():
    x = Tensor(np.zeros((2, 6, 6, 4)))
    w = Tensor(np.zeros((3, 2, 3, 3, 3)))
    out = conv_nd(x, w, Tensor(np.zeros(3)), stride=(1, 1, 2), padding=(1, 1, 1))
    assert out.shape == (3, 6, 6, 2)


def test_conv_matches_direct_convolution():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    out = conv_nd(Tensor(x), Tensor(w), Tensor(np.zeros(3)),
                  stride=(1, 1), padding=(1, 1)).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    for o in range(3):
        for i in range(5):
            for j in range(6):
                want = np.sum(w[o] * xp[:, i:i + 3, j:j + 3])
                assert out[o, i, j] == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_deconv_output_size_and_inverse_of_stride():
    # kernel 2 stride 2: exact x2 upsampling shape
    x = Tensor(np.arange(4, dtype=float).reshape(1, 2, 2))
    w = Tensor(np.ones((1, 1, 2, 2)))
    out = deconv_nd(x, w, Tensor(np.zeros(1)), stride=(2, 2), padding=(0, 0))
    assert out.shape == (1, 4, 4)
    # each input value is copied into its own 2x2 block
    want = np.kron(x.data[0], np.ones((2, 2)))
    assert np.allclose(out.data[0], want)


def test_deconv_gradient_finite_difference():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(1,)), requires_grad=True)

    def make_loss():
        return (deconv_nd(x, w, b, stride=(4, 4), padding=(0, 0)) ** 2).sum()

    assert finite_diff_check(make_loss, [x, w, b], n_coords=4) < 1e-4


def test_conv_gradient_finite_difference():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def make_loss():
        return (conv_nd(x, w, b, stride=(2, 2), padding=(1, 1)) ** 2).sum()

    assert finite_diff_check(make_loss, [x, w, b], n_coords=5) < 1e-4


def test_batchnorm_train_normalizes_and_updates_running():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(3.0, 2.0, size=(4, 50)))
    scale = Tensor(np.ones(4))
    shift = Tensor(np.zeros(4))
    stats = {"bn/mean": np.zeros(4), "bn/var": np.ones(4)}
    out = batchnorm(x, scale, shift, stats, "bn", train=True, channel_axis=0)
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=1), 1.0, atol=1e-3)
    assert not np.allclose(stats["bn/mean"], 0.0)


def test_batchnorm_eval_uses_running_stats():
    x = Tensor(np.full((2, 3), 5.0))
    stats = {"bn/mean": np.array([5.0, 5.0]), "bn/var": np.array([1.0, 1.0])}
    out = batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, "bn",
                    train=False, channel_axis=0)
    assert np.allclose(out.data, 0.0, atol=1e-5)


def test_setnorm_invariant_to_affine_input_shift():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 4))
    s, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
    a = setnorm(Tensor(x), s, b).data
    c = setnorm(Tensor(x * 3.0 + 7.0), s, b).data
    assert np.allclose(a, c, atol=1e-6)


# --------------------------------------------------------------- NetConfig
def test_full_scale_shape_contract():
    shapes = reference_netconfig(1.0).infer_shapes((704, 800, 20))
    assert shapes["map_dims"] == (200, 176)
    assert shapes["cls_channels"] == 4
    assert shapes["reg_channels"] == 28
    # overall stride four relative to the voxel grid
    assert shapes["fused"] == (704 // 4, 800 // 4)


def test_infer_shapes_z_collapse():
    shapes = reference_netconfig(1.0).infer_shapes((704, 800, 20))
    zs = [shapes[f"conv3d{i}"][2] for i in range(6)]
    assert zs == [10, 5, 3, 2, 1, 1]


def test_infer_shapes_toy_grid():
    shapes = reference_netconfig(0.25).infer_shapes((64, 64, 20))
    assert shapes["map_dims"] == (16, 16)


def test_width_multiplier_scales_channels():
    a = reference_netconfig(1.0)
    b = reference_netconfig(0.5)
    assert b.fused_channels * 2 == a.fused_channels


# ---------------------------------------------------------------- VoxelRPN
def tiny_cfg():
    return reference_netconfig(0.125, encoder_channels=4, num_anchors=4)


def make_voxels(rng, dims=(16, 16, 20), cap=3, n=120):
    """Random occupied voxels: (slots (V, cap, 4), counts (V,), coords (V, 3))."""
    cells = {}
    for _ in range(n):
        key = tuple(int(rng.integers(0, d)) for d in dims)
        pts = cells.setdefault(key, [])
        if len(pts) < cap:
            pts.append(rng.normal(size=4))
    keys = sorted(cells)
    slots = np.zeros((len(keys), cap, 4))
    for v, key in enumerate(keys):
        slots[v, :len(cells[key])] = cells[key]
    counts = np.array([len(cells[k]) for k in keys], dtype=np.int64)
    return slots, counts, np.array(keys, dtype=np.int64).reshape(-1, 3), dims


def reference_dense_encode(rpn, slots, counts, coords, dims):
    """The full-grid encoder the sparse one replaced: MLP over every slot of
    a dense (nx, ny, nz, cap, 4) tensor, masked max-pool, empty voxels zeroed."""
    nx, ny, nz = dims
    cap = slots.shape[1]
    dense = np.zeros((nx, ny, nz, cap, 4))
    dense_counts = np.zeros(dims, dtype=np.int64)
    dense[tuple(coords.T)] = slots
    dense_counts[tuple(coords.T)] = counts
    v = nx * ny * nz
    x = Tensor(dense.reshape(v * cap, 4))
    h = ad.relu(linear(x, rpn._p("rpn/encoder/w"), rpn._p("rpn/encoder/b")))
    slot = (np.arange(cap)[None, :] < dense_counts.reshape(v, 1)).reshape(v * cap, 1)
    h = h + Tensor((~slot) * nn._NEG_BIG)
    pooled = h.reshape(v, cap, rpn.cfg.encoder_channels).max(axis=1)
    pooled = pooled * Tensor((dense_counts.reshape(v, 1) > 0).astype(np.float64))
    return pooled.reshape(nx, ny, nz, rpn.cfg.encoder_channels).transpose((3, 0, 1, 2))


def test_voxelrpn_output_shapes_and_prob_range():
    rng = np.random.default_rng(6)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    cls_map, reg_map, fused = rpn.forward(*make_voxels(rng), train=False)
    assert cls_map.shape == (4, 4, 4)
    assert reg_map.shape == (4, 4, 4, 7)
    assert fused.shape[1:] == (4, 4)
    assert np.all((cls_map.data > 0) & (cls_map.data < 1))


def test_voxelrpn_deterministic_per_seed():
    rng = np.random.default_rng(7)
    vox = make_voxels(rng)
    a = VoxelRPN(tiny_cfg(), seed=1).forward(*vox, train=False)
    b = VoxelRPN(tiny_cfg(), seed=1).forward(*vox, train=False)
    c = VoxelRPN(tiny_cfg(), seed=2).forward(*vox, train=False)
    assert np.array_equal(a[0].data, b[0].data)
    assert not np.array_equal(a[0].data, c[0].data)


def test_voxel_encoder_ignores_empty_slots():
    rng = np.random.default_rng(8)
    slots, counts, coords, dims = make_voxels(rng, n=30)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    ref = rpn.encode_voxels(slots, counts, coords, dims, train=False).data
    # garbage in unused slots must not leak into features
    dirty = slots.copy()
    dirty[np.arange(slots.shape[1])[None, :] >= counts[:, None]] = 99.0
    got = rpn.encode_voxels(dirty, counts, coords, dims, train=False).data
    assert np.allclose(got, ref)


def test_voxel_encoder_empty_voxels_are_zero():
    rng = np.random.default_rng(9)
    slots, counts, coords, dims = make_voxels(rng, n=10)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    feat = rpn.encode_voxels(slots, counts, coords, dims, train=False).data
    empty = np.ones(dims, dtype=bool)
    empty[tuple(coords.T)] = False
    assert np.allclose(feat[:, empty], 0.0)


def test_voxel_encoder_without_occupied_voxels_is_zero():
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    feat = rpn.encode_voxels(np.zeros((0, 3, 4)), np.zeros(0, dtype=np.int64),
                             np.zeros((0, 3), dtype=np.int64), (16, 16, 20), train=False)
    assert feat.shape == (4, 16, 16, 20)
    assert not np.any(feat.data)


def test_voxel_encoder_rejects_voxel_without_points():
    rng = np.random.default_rng(11)
    slots, counts, coords, dims = make_voxels(rng, n=10)
    counts[0] = 0
    with pytest.raises(ShapeMismatch):
        VoxelRPN(tiny_cfg(), seed=0).encode_voxels(slots, counts, coords, dims, train=False)


def test_sparse_encoder_matches_dense_reference():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        vox = make_voxels(rng, dims=(16, 16, 20), n=200)
        rpn = VoxelRPN(tiny_cfg(), seed=seed)
        got = rpn.encode_voxels(*vox, train=False)
        want = reference_dense_encode(rpn, *vox)
        # -0.0 from zeroing empty voxels compares equal to the sparse path's 0.0
        assert got.shape == want.shape
        assert np.array_equal(got.data, want.data)


def test_rpn_outputs_byte_equal_to_dense_encoder_path():
    rng = np.random.default_rng(12)
    vox = make_voxels(rng, dims=(32, 32, 20), n=400)
    sparse = VoxelRPN(tiny_cfg(), seed=3)
    dense = VoxelRPN(tiny_cfg(), seed=3)
    dense.encode_voxels = lambda *args: reference_dense_encode(dense, *args[:4])
    for train in (False, True):
        got = sparse.forward(*vox, train=train)
        want = dense.forward(*vox, train=train)
        for g, w in zip(got, want):
            assert g.data.tobytes() == w.data.tobytes()
    for rpn, (cls_map, reg_map, _) in ((sparse, got), (dense, want)):
        (cls_map.sum() + (reg_map * reg_map).sum()).backward()
    for name in sparse.params.names():
        g, w = sparse.params.tensors[name].grad, dense.params.tensors[name].grad
        if name == "rpn/encoder/w":
            # the dense path sums over every empty slot too: another order
            assert np.allclose(g, w, rtol=1e-12, atol=0.0)
        else:
            assert g.tobytes() == w.tobytes(), name


def test_rpn_gradients_flow_to_all_parameters():
    rng = np.random.default_rng(10)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    cls_map, reg_map, _ = rpn.forward(*make_voxels(rng, dims=(32, 32, 20), n=400), train=True)
    (cls_map.sum() + (reg_map * reg_map).sum()).backward()
    missing = [n for n in rpn.params.names()
               if rpn.params.tensors[n].grad is None
               or not np.any(rpn.params.tensors[n].grad)]
    # bn shifts of dead branches aside, everything should receive gradient
    assert missing == [], missing


# --------------------------------------------------------------- RefinerNet
def ref_cfg(**kw):
    base = dict(feature_channels=6, coord_dim=8, pointnet=(16, 32), head=(16,))
    base.update(kw)
    return RefinerConfig(**base)


def test_refiner_output_is_24_vector():
    rng = np.random.default_rng(11)
    net = RefinerNet(ref_cfg(), seed=0)
    out = net.forward(rng.normal(size=(40, 3)), rng.normal(size=(40, 6)), train=False)
    assert out.shape == (24,)


def test_refiner_permutation_invariant():
    rng = np.random.default_rng(12)
    coords = rng.normal(size=(30, 3))
    feats = rng.normal(size=(30, 6))
    net = RefinerNet(ref_cfg(), seed=0)
    a = net.forward(coords, feats, train=False).data
    perm = rng.permutation(30)
    b = net.forward(coords[perm], feats[perm], train=False).data
    assert np.allclose(a, b, atol=1e-9)


def test_refiner_empty_proposal_raises():
    net = RefinerNet(ref_cfg(), seed=0)
    with pytest.raises(EmptyProposal):
        net.forward(np.zeros((0, 3)), np.zeros((0, 6)), train=False)


def test_refiner_feature_shape_mismatch():
    net = RefinerNet(ref_cfg(), seed=0)
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((5, 3)), np.zeros((5, 4)), train=False)


def test_refiner_attention_modes_differ():
    rng = np.random.default_rng(13)
    coords = rng.normal(size=(20, 3))
    feats = rng.normal(size=(20, 6))
    outs = []
    for mode in ("vector", "scalar", "ones"):
        net = RefinerNet(ref_cfg(attention=mode), seed=0)
        outs.append(net.forward(coords, feats, train=False).data)
    assert not np.allclose(outs[0], outs[2])


def test_refiner_corner_template_sets_initial_bias():
    template = tuple(float(i) for i in range(24))
    net = RefinerNet(ref_cfg(corner_template=template), seed=0)
    assert np.allclose(net.params.tensors["refiner/out/b"].data, template)


def test_refiner_rejects_bad_config():
    with pytest.raises(ConfigError):
        ref_cfg(attention="softmax")
    with pytest.raises(ConfigError):
        ref_cfg(norm="batch")
    with pytest.raises(ConfigError):
        ref_cfg(corner_template=(1.0, 2.0))


def test_refiner_gradient_finite_difference():
    rng = np.random.default_rng(15)
    coords = rng.normal(size=(15, 3))
    feats = rng.normal(size=(15, 6))
    net = RefinerNet(ref_cfg(), seed=0)
    target = rng.normal(size=24)

    def make_loss():
        diff = net.forward(coords, feats, train=True) - target
        return (diff * diff).sum()

    params = [net.params.tensors[n] for n in net.params.names()]
    assert finite_diff_check(make_loss, params, n_coords=2) < 1e-4


# -------------------------------------------------------------- Parameters
def test_parameters_save_load_roundtrip(tmp_path):
    net = RefinerNet(ref_cfg(), seed=3)
    p = tmp_path / "ckpt.npz"
    net.params.save(p)
    back = Parameters.load(p)
    assert back.names() == net.params.names()
    for n in net.params.names():
        assert np.array_equal(back.tensors[n].data, net.params.tensors[n].data)


def test_parameters_missing_checkpoint(tmp_path):
    with pytest.raises(MissingCheckpoint):
        Parameters.load(tmp_path / "absent.npz")


def toy_checkpoint():
    cfg = toy_config()
    return merge_parameters(VoxelRPN(cfg.net_config(), seed=0),
                            RefinerNet(cfg.refiner_config(), seed=1))


def test_networks_accept_checkpoint_built_for_their_config():
    cfg, params = toy_config(), toy_checkpoint()
    assert VoxelRPN(cfg.net_config(), params=params).params is params
    assert RefinerNet(cfg.refiner_config(), params=params).params is params


def test_rpn_rejects_checkpoint_of_another_width():
    cfg = toy_config()
    cfg.net.width_mult = 0.5
    with pytest.raises(ConfigError, match="rpn/block2_0/b:"):
        VoxelRPN(cfg.net_config(), params=toy_checkpoint())


def test_rpn_rejects_checkpoint_of_another_anchor_count():
    cfg = toy_config()
    cfg.anchors.angles_deg = (0.0, 90.0)
    with pytest.raises(ConfigError, match="rpn/cls/b:"):
        VoxelRPN(cfg.net_config(), params=toy_checkpoint())


def test_refiner_rejects_checkpoint_without_its_tensors():
    params = toy_checkpoint()
    del params.tensors["refiner/head0/w"]
    with pytest.raises(ConfigError, match="refiner/head0/w:"):
        RefinerNet(toy_config().refiner_config(), params=params)
