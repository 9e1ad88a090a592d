import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastpoint import autodiff as ad
from fastpoint import nn
from fastpoint.anchors import build_anchor_grid
from fastpoint.autodiff import Tensor
from fastpoint.config import toy_config
from fastpoint.errors import ConfigError, EmptyProposal, ShapeMismatch
from fastpoint.nn import (MissingCheckpoint, Parameters, RefinerConfig, RefinerNet, VoxelRPN,
                          batchnorm_relu, conv_nd, conv_voxels, deconv_nd, linear,
                          reference_netconfig)
from fastpoint.selfcheck import finite_diff_check, one_product_conv
from fastpoint.synthetic import generate_dataset
from fastpoint.train import merge_parameters, prepare_frames, rpn_loss
from fastpoint.voxels import VoxelGrid, VoxelSpec


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


def toy_conv_calls():
    """(x shape, w shape, stride, padding) of every conv_nd call of a toy
    VoxelRPN forward."""
    cfg = toy_config()
    calls, conv = [], nn.conv_nd

    def spy(x, w, b, stride, padding):
        calls.append((x.shape, w.shape, tuple(stride), tuple(padding)))
        return conv(x, w, b, stride, padding)

    grid = make_grid(np.random.default_rng(0), dims=cfg.voxel_spec().dims, n=400)
    with pytest.MonkeyPatch.context() as m, ad.no_grad():
        m.setattr(nn, "conv_nd", spy)
        VoxelRPN(cfg.net_config(), seed=0).forward(grid)
    return calls


def test_no_grad_conv_byte_equal_to_recorded_conv():
    # conv_nd multiplies bounded chunks of columns, recorded or not, and
    # equals the one product over all its columns byte for byte
    cases = sorted(set(toy_conv_calls()))
    assert len(cases) >= 6
    # a paper-width conv3d1 slab, whose last chunk is narrower than the
    # others and ends in a partial group of columns
    cases.append(((64, 20, 22, 10), (64, 64, 3, 3, 3), (1, 1, 2), (1, 1, 1)))
    rows, sites = 64 * 27, 20 * 22 * 5
    step = nn._CHUNK_BYTES // (8 * rows * nn._GEMM_GROUP) * nn._GEMM_GROUP
    assert step < sites and sites % step and sites % nn._GEMM_GROUP
    for k, (xs, ws, stride, padding) in enumerate(cases):
        rng = np.random.default_rng(k)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in (xs, ws, ws[:1]))
        recorded = conv_nd(x, w, b, stride, padding)
        assert recorded._parents
        with ad.no_grad():
            got = conv_nd(x, w, b, stride, padding)
        assert got.data.tobytes() == recorded.data.tobytes(), (xs, ws, stride, padding)
        whole = one_product_conv(x.data, w.data, b.data, stride, padding)
        assert got.data.tobytes() == whole.tobytes(), (xs, ws, stride, padding)


def test_no_grad_deconv_and_batchnorm_relu_byte_equal_to_recorded():
    for x, w, b, stride, padding in deconv_cases(seed=4):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x, w, b))
        recorded = deconv_nd(x, w, b, stride, padding)
        assert recorded._parents
        with ad.no_grad():
            got = deconv_nd(x, w, b, stride, padding)
        assert got.data.tobytes() == recorded.data.tobytes()
    rng = np.random.default_rng(5)
    x, scale, shift = (Tensor(rng.normal(size=s), requires_grad=True)
                       for s in ((6, 9, 7, 2), (6,), (6,)))
    for train in (True, False):
        stats = {"bn/mean": rng.normal(size=6), "bn/var": rng.uniform(0.5, 2.0, 6)}
        kept = dict(stats)
        recorded = batchnorm_relu(x, scale, shift, stats, "bn", train)
        assert recorded._parents
        with ad.no_grad():
            got = batchnorm_relu(x, scale, shift, kept, "bn", train)
        assert got.data.tobytes() == recorded.data.tobytes()
        assert all(stats[k].tobytes() == kept[k].tobytes() for k in stats)


def conv_gradients(x, w, b, stride, padding, r):
    """Output bytes and (x, w, b) gradients of the loss (conv_nd(...) * r).sum()."""
    for t in (x, w, b):
        t.zero_grad()
    y = conv_nd(x, w, b, stride, padding)
    (y * r).sum().backward()
    return y.data.tobytes(), [t.grad for t in (x, w, b)]


def test_conv_backward_across_chunks_matches_one_chunk(monkeypatch):
    rng = np.random.default_rng(5)
    x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
               for s in ((3, 9, 10, 4), (4, 3, 3, 3, 2), (4,)))
    stride, padding = (1, 2, 1), (1, 1, 0)
    r = rng.normal(size=(4, 9, 5, 3))
    rows, sites = 3 * 18, 9 * 5 * 3
    one_bytes, one = conv_gradients(x, w, b, stride, padding, r)
    assert 8 * rows * sites < nn._CHUNK_BYTES          # one chunk by default
    # chunks of 32 columns: four whole ones, then a partial chunk of 7
    monkeypatch.setattr(nn, "_CHUNK_BYTES", 8 * rows * 2 * nn._GEMM_GROUP)
    chunked_bytes, chunked = conv_gradients(x, w, b, stride, padding, r)
    assert chunked_bytes == one_bytes
    for g, want in zip(chunked, one):
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))
    worst = finite_diff_check(lambda: (conv_nd(x, w, b, stride, padding) * r).sum(),
                              [x, w, b], n_coords=6, seed=5)
    assert worst < 1e-6, worst


CONV3D1_SLAB = ((64, 64, 64, 10), (64, 64, 3, 3, 3), (1, 1, 2), (1, 1, 1))


def test_no_grad_conv_memory_is_bounded_by_the_chunk_budget():
    # conv3d1's kernel, stride and padding on a 64-channel 64 x 64 x 10 map:
    # its whole im2col would take 283 MB
    rng = np.random.default_rng(0)
    xs, ws, stride, padding = CONV3D1_SLAB
    x = Tensor(rng.normal(size=xs))
    w = Tensor(rng.normal(size=ws), requires_grad=True)
    b = Tensor(np.zeros(64), requires_grad=True)
    padded, out = 64 * 66 * 66 * 12 * 8, 64 * (64 * 64 * 5) * 8
    tracemalloc.start()
    try:
        with ad.no_grad():
            y = conv_nd(x, w, b, stride, padding)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (64, 64, 64, 5)
    # one chunk of columns is live at a time; its table, its products and
    # the window origins take < 1 MiB
    assert peak < padded + out + nn._CHUNK_BYTES + (1 << 20), peak


def test_recorded_conv_memory_is_bounded_by_the_chunk_budget():
    # the same conv recorded, then its backward: no im2col is kept between
    # them, and the backward re-gathers one chunk of columns at a time
    rng = np.random.default_rng(0)
    xs, ws, stride, padding = CONV3D1_SLAB
    x = Tensor(rng.normal(size=xs), requires_grad=True)
    w = Tensor(rng.normal(size=ws), requires_grad=True)
    b = Tensor(np.zeros(64), requires_grad=True)
    padded, out, weights = 64 * 66 * 66 * 12 * 8, 64 * (64 * 64 * 5) * 8, 64 * 64 * 27 * 8
    tracemalloc.start()
    try:
        y = conv_nd(x, w, b, stride, padding)
        graph = tracemalloc.get_traced_memory()[0]
        y.sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == xs and w.grad.shape == ws
    assert graph < out + (1 << 20), graph
    # the re-padded input, the output, the gradients of output, padded
    # input and weights, and two chunks (columns and their gradient); the
    # chunk's window of input cells, tables and sums take < 2 MiB
    assert peak < padded + out + (out + padded + 3 * weights) + 2 * nn._CHUNK_BYTES + (2 << 20), \
        peak


def test_toy_rpn_graph_keeps_no_im2col_or_batchnorm_intermediates():
    cfg = toy_config()
    frames = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1, cfg.seed)
    frame = prepare_frames(frames, cfg, build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(),
                                                          cfg.voxel_spec()))[0]
    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    tracemalloc.start()
    try:
        loss = rpn_loss(rpn, frame, cfg, train=True)
        graph = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    loss.backward()
    # 77 MB when each conv kept its im2col and batch norm its intermediates
    assert graph <= 24e6, graph


# ------------------------------------------------------------- conv_voxels
def scatter_grid(feats, coords, dims):
    """The grid conv_voxels convolves: feats row i at coords[i], zero
    elsewhere, channels first (C, *dims)."""
    row_of = np.full(int(np.prod(dims)), len(coords))
    row_of[np.ravel_multi_index(coords.T, dims)] = np.arange(len(coords))
    rows = ad.concat([feats, Tensor(np.zeros((1, feats.shape[1])))])
    return ad.take(rows, row_of).transpose((1, 0)).reshape((feats.shape[1],) + tuple(dims))


def dense_conv_voxels(feats, coords, dims, w, b, stride, padding):
    """The oracle for conv_voxels: scatter into the dense grid, then conv_nd."""
    return conv_nd(scatter_grid(feats, coords, dims), w, b, stride, padding)


def grid_coords(dims, cells):
    """(V, ndim) int64 coords of the distinct flat cells, in sorted order."""
    flat = np.unique(np.asarray(cells, dtype=np.int64))
    return np.stack(np.unravel_index(flat, dims), axis=1).reshape(len(flat), len(dims))


def corners_and_faces(dims):
    """Flat cells of every corner and of one cell at the middle of every face."""
    corners = [np.ravel_multi_index(tuple(i * (d - 1) for i, d in zip(c, dims)), dims)
               for c in np.ndindex(*(2,) * len(dims))]
    faces = []
    for ax, d in enumerate(dims):
        for edge in (0, d - 1):
            mid = [n // 2 for n in dims]
            mid[ax] = edge
            faces.append(np.ravel_multi_index(mid, dims))
    return corners + faces


def assert_matches_dense_oracle(feats, coords, dims, w, b, stride, padding, seed=0):
    """Forward byte-equal to the oracle, gradients equal to rtol 1e-12."""
    got = conv_voxels(feats, coords, dims, w, b, stride, padding)
    want = dense_conv_voxels(feats, coords, dims, w, b, stride, padding)
    assert got.shape == want.shape
    assert got.data.tobytes() == want.data.tobytes()
    r = Tensor(np.random.default_rng(seed).normal(size=got.shape))
    grads = []
    for out in (got, want):
        for t in (feats, w, b):
            t.zero_grad()
        (out * r).sum().backward()
        grads.append([t.grad for t in (feats, w, b)])
    for g, ref in zip(*grads):
        assert np.allclose(g, ref, rtol=1e-12, atol=0.0)


def conv_case(rng, dims, cells, kernel, cin=2, cout=3, bias=True):
    feats = Tensor(rng.normal(size=(len(np.unique(cells)), cin)), requires_grad=True)
    w = Tensor(rng.normal(size=(cout, cin) + tuple(kernel)), requires_grad=True)
    b = Tensor(rng.normal(size=cout) if bias else np.zeros(cout), requires_grad=True)
    return feats, grid_coords(dims, cells), w, b


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_conv_voxels_matches_dense_oracle(data):
    # grids this small keep both products on one BLAS path at any output
    # size; the toy-shape test below covers the large-product path
    dims = tuple(data.draw(st.integers(1, 6), label=f"dim{i}") for i in range(3))
    kernel = tuple(data.draw(st.integers(1, 3), label=f"k{i}") for i in range(3))
    stride = tuple(data.draw(st.integers(1, 3), label=f"s{i}") for i in range(3))
    padding = tuple(data.draw(st.integers(0, k - 1), label=f"p{i}") for i, k in enumerate(kernel))
    kernel = tuple(min(k, d + 2 * p) for k, d, p in zip(kernel, dims, padding))
    n = int(np.prod(dims))
    cells = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="cells")
    if data.draw(st.booleans(), label="corners and faces"):
        cells = cells + corners_and_faces(dims)
    bias = data.draw(st.booleans(), label="bias")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    feats, coords, w, b = conv_case(rng, dims, cells, kernel, bias=bias)
    assert_matches_dense_oracle(feats, coords, dims, w, b, stride, padding)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("cells", [[], [0], [37], "corners_and_faces", "full"])
def test_conv_voxels_empty_single_and_boundary_voxels(cells, bias):
    dims = (5, 4, 6)
    if cells == "corners_and_faces":
        cells = corners_and_faces(dims)
    elif cells == "full":
        cells = list(range(int(np.prod(dims))))
    rng = np.random.default_rng(len(cells))
    for kernel, stride, padding in (((3, 3, 3), (2, 2, 2), (1, 1, 1)),
                                    ((2, 1, 2), (1, 1, 1), (1, 0, 0)),
                                    ((1, 1, 1), (1, 2, 3), (0, 0, 0))):
        feats, coords, w, b = conv_case(rng, dims, cells, kernel, bias=bias)
        assert_matches_dense_oracle(feats, coords, dims, w, b, stride, padding)
        if not len(cells):
            out = conv_voxels(feats, coords, dims, w, b, stride, padding).data
            assert np.array_equal(out, np.broadcast_to(b.data.reshape(-1, 1, 1, 1), out.shape))


def test_conv_voxels_matches_dense_oracle_at_toy_layer_shape():
    # conv3d0 of the toy config: 64 x 64 x 20 grid, 8 -> 16 channels
    rng = np.random.default_rng(13)
    dims = (64, 64, 20)
    cells = list(rng.choice(int(np.prod(dims)), 500, replace=False)) + corners_and_faces(dims)
    feats, coords, w, b = conv_case(rng, dims, cells, (3, 3, 3), cin=8, cout=16)
    assert_matches_dense_oracle(feats, coords, dims, w, b, (2, 2, 2), (1, 1, 1))


def test_conv_voxels_rejects_rows_that_do_not_match_coords():
    rng = np.random.default_rng(14)
    feats, coords, w, b = conv_case(rng, (4, 4, 4), [1, 5, 9], (3, 3, 3))
    with pytest.raises(ShapeMismatch):
        conv_voxels(Tensor(feats.data[:2]), coords, (4, 4, 4), w, b, (1, 1, 1), (1, 1, 1))


def test_conv_voxels_rejects_coord_outside_grid():
    rng = np.random.default_rng(15)
    feats, coords, w, b = conv_case(rng, (4, 4, 4), [1, 5, 9], (3, 3, 3))
    for bad in (4, -1):
        out = coords.copy()
        out[1, 2] = bad
        with pytest.raises(ShapeMismatch, match="outside"):
            conv_voxels(feats, out, (4, 4, 4), w, b, (1, 1, 1), (1, 1, 1))


def test_conv_voxels_rejects_repeated_coord():
    rng = np.random.default_rng(16)
    feats, coords, w, b = conv_case(rng, (4, 4, 4), [1, 5, 9], (3, 3, 3))
    coords[2] = coords[0]
    with pytest.raises(ShapeMismatch, match="repeated"):
        conv_voxels(feats, coords, (4, 4, 4), w, b, (1, 1, 1), (1, 1, 1))


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
        y = deconv_nd(x, w, b, stride=(4, 4), padding=(0, 0))
        return (y * y).sum()

    assert finite_diff_check(make_loss, [x, w, b], n_coords=4) < 1e-4


def deconv_reference(x, w, b, stride, padding):
    """Transposed convolution from its definition, in plain loops:
    out[o, i*s + t - p] += w[o, c, t] * x[c, i], then + b[o]."""
    cin, spatial = x.shape[0], x.shape[1:]
    cout, kernel = w.shape[0], w.shape[2:]
    size = tuple((n - 1) * s - 2 * p + k
                 for n, s, p, k in zip(spatial, stride, padding, kernel))
    out = np.zeros((cout,) + size)
    for i in np.ndindex(*spatial):
        for t in np.ndindex(*kernel):
            site = tuple(a * s + u - p for a, s, u, p in zip(i, stride, t, padding))
            if not all(0 <= q < n for q, n in zip(site, size)):
                continue
            for o in range(cout):
                for c in range(cin):
                    out[(o,) + site] += w[(o, c) + t] * x[(c,) + i]
    return out + b.reshape((cout,) + (1,) * len(spatial))


# (kernel, stride) on the first axis: kernel below, equal to and above the stride
DECONV_AXES = ((1, 2), (2, 3), (2, 2), (3, 3), (4, 4), (3, 2), (3, 1), (4, 1))


def deconv_cases(seed=0):
    """Seeded random 1-D, 2-D and 3-D deconv inputs: the first axis walks
    DECONV_AXES with every padding 0..k-1, the other axes are drawn."""
    rng = np.random.default_rng(seed)
    for ndim in (1, 2, 3):
        for k0, s0 in DECONV_AXES:
            for p0 in range(k0):
                kernel, stride, padding, spatial = [k0], [s0], [p0], []
                for _ in range(ndim - 1):
                    k, s = DECONV_AXES[rng.integers(len(DECONV_AXES))]
                    kernel.append(k)
                    stride.append(s)
                    padding.append(int(rng.integers(k)))
                for k, s, p in zip(kernel, stride, padding):
                    n = int(rng.integers(1, 4))
                    while (n - 1) * s - 2 * p + k < 1:
                        n += 1
                    spatial.append(n)
                cin, cout = (int(v) for v in rng.integers(1, 4, size=2))
                yield (rng.normal(size=(cin,) + tuple(spatial)),
                       rng.normal(size=(cout, cin) + tuple(kernel)),
                       rng.normal(size=cout), tuple(stride), tuple(padding))


def test_deconv_matches_direct_definition():
    n = 0
    for x, w, b, stride, padding in deconv_cases():
        got = deconv_nd(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        want = deconv_reference(x, w, b, stride, padding)
        assert got.shape == want.shape, (stride, padding, w.shape)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (stride, padding)
        n += 1
    assert n == 3 * sum(k for k, _ in DECONV_AXES)


def test_deconv_rejects_channel_mismatch():
    with pytest.raises(ShapeMismatch):
        deconv_nd(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((1, 3, 2, 2))),
                  Tensor(np.zeros(1)), (2, 2), (0, 0))


def test_deconv_rejects_padding_above_kernel_minus_one():
    with pytest.raises(ShapeMismatch):
        deconv_nd(Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros((1, 1, 3, 3))),
                  Tensor(np.zeros(1)), (2, 2), (1, 3))


def test_conv_gradient_finite_difference():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def make_loss():
        y = conv_nd(x, w, b, stride=(2, 2), padding=(1, 1))
        return (y * y).sum()

    assert finite_diff_check(make_loss, [x, w, b], n_coords=5) < 1e-4


def test_batchnorm_train_normalizes_and_updates_running():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(3.0, 2.0, size=(4, 50)))
    scale = Tensor(np.ones(4))
    shift = Tensor(np.full(4, 10.0))       # lifts every output above the ReLU's cut
    stats = {"bn/mean": np.zeros(4), "bn/var": np.ones(4)}
    out = batchnorm_relu(x, scale, shift, stats, "bn", train=True)
    assert np.allclose(out.data.mean(axis=1), 10.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=1), 1.0, atol=1e-3)
    assert not np.allclose(stats["bn/mean"], 0.0)


def test_batchnorm_eval_uses_running_stats():
    x = Tensor(np.array([[5.0, 6.0, 4.0], [5.0, 5.0, 7.0]]))
    stats = {"bn/mean": np.array([5.0, 5.0]), "bn/var": np.array([1.0, 4.0])}
    out = batchnorm_relu(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, "bn", train=False)
    sd = np.sqrt(np.array([[1.0], [4.0]]) + nn._BN_EPS)
    assert np.allclose(out.data, np.maximum((x.data - 5.0) / sd, 0.0), atol=1e-12)
    assert out.data[0, 2] == 0.0 and out.data[0, 1] > 0.0


def test_batchnorm_relu_backward_matches_the_chain_of_ops():
    # the closed form against batch norm and ReLU composed of autodiff ops,
    # with the channel sum and the reciprocal square root as two nodes here
    def channel_sum(t):
        return ad.node((t,), t.data.sum(axis=(1, 2), keepdims=True),
                       lambda g: (np.broadcast_to(g, t.shape).copy(),))

    def rsqrt(t):
        return ad.node((t,), (t.data + nn._BN_EPS) ** -0.5,
                       lambda g: (g * -0.5 * (t.data + nn._BN_EPS) ** -1.5,))

    rng = np.random.default_rng(9)
    x, scale, shift = (Tensor(rng.normal(size=s), requires_grad=True)
                       for s in ((5, 8, 6), (5,), (5,)))
    r = rng.normal(size=(5, 8, 6))
    for train in (True, False):
        stats = {"bn/mean": rng.normal(size=5), "bn/var": rng.uniform(0.5, 2.0, 5)}
        if train:
            mu = channel_sum(x) * (1.0 / 48)
            xc = x + mu * -1.0
            xhat = xc * rsqrt(channel_sum(xc * xc) * (1.0 / 48))
        else:
            xhat = (x + (-stats["bn/mean"].reshape(5, 1, 1))) * (
                1.0 / np.sqrt(stats["bn/var"].reshape(5, 1, 1) + nn._BN_EPS))
        chain = ad.relu(scale.reshape(5, 1, 1) * xhat + shift.reshape(5, 1, 1))
        (chain * r).sum().backward()
        want = [t.grad for t in (x, scale, shift)]
        for t in (x, scale, shift):
            t.zero_grad()
        got = batchnorm_relu(x, scale, shift, stats, "bn", train)
        assert got.data.tobytes() == chain.data.tobytes()
        (got * r).sum().backward()
        for t, g in zip((x, scale, shift), want):
            assert np.allclose(t.grad, g, rtol=1e-12, atol=1e-13)
        for t in (x, scale, shift):
            t.zero_grad()


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


def make_grid(rng, dims=(16, 16, 20), cap=3, n=120):
    """make_voxels' voxels as the VoxelGrid of a grid of unit voxels."""
    slots, counts, coords, dims = make_voxels(rng, dims, cap, n)
    spec = VoxelSpec(tuple((0.0, float(d)) for d in dims), (1.0, 1.0, 1.0), cap)
    return VoxelGrid(spec, coords, slots, counts)


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
    cls_map, reg_map, fused = rpn.forward(make_grid(rng), train=False)
    assert cls_map.shape == (4, 4, 4)
    assert reg_map.shape == (4, 4, 4, 7)
    assert fused.shape[1:] == (4, 4)
    assert np.all((cls_map.data > 0) & (cls_map.data < 1))


def test_voxelrpn_deterministic_per_seed():
    rng = np.random.default_rng(7)
    grid = make_grid(rng)
    a = VoxelRPN(tiny_cfg(), seed=1).forward(grid, train=False)
    b = VoxelRPN(tiny_cfg(), seed=1).forward(grid, train=False)
    c = VoxelRPN(tiny_cfg(), seed=2).forward(grid, train=False)
    assert np.array_equal(a[0].data, b[0].data)
    assert not np.array_equal(a[0].data, c[0].data)


def test_voxel_encoder_ignores_empty_slots():
    rng = np.random.default_rng(8)
    slots, counts, coords, _ = make_voxels(rng, n=30)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    ref = rpn.encode_voxels(slots, counts, coords).data
    # garbage in unused slots must not leak into features
    dirty = slots.copy()
    dirty[np.arange(slots.shape[1])[None, :] >= counts[:, None]] = 99.0
    got = rpn.encode_voxels(dirty, counts, coords).data
    assert np.allclose(got, ref)


def test_voxel_encoder_empty_voxels_are_zero():
    # the grid the first conv reads holds each voxel's row at its coords and
    # zero at every empty voxel: a 1x1x1 identity kernel reads it back
    rng = np.random.default_rng(9)
    slots, counts, coords, dims = make_voxels(rng, n=10)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    feat = rpn.encode_voxels(slots, counts, coords)
    c = rpn.cfg.encoder_channels
    assert feat.shape == (len(coords), c)
    eye = Tensor(np.eye(c).reshape(c, c, 1, 1, 1))
    grid = conv_voxels(feat, coords, dims, eye, Tensor(np.zeros(c)), (1, 1, 1), (0, 0, 0)).data
    empty = np.ones(dims, dtype=bool)
    empty[tuple(coords.T)] = False
    assert not np.any(grid[:, empty])
    assert np.array_equal(grid[(slice(None),) + tuple(coords.T)], feat.data.T)


def test_voxel_encoder_without_occupied_voxels_is_zero():
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    coords, dims = np.zeros((0, 3), dtype=np.int64), (16, 16, 20)
    feat = rpn.encode_voxels(np.zeros((0, 3, 4)), np.zeros(0, dtype=np.int64), coords)
    assert feat.shape == (0, 4)
    # with no voxel the first conv's map is its bias everywhere, as over a zero grid
    w, b = rpn._p("rpn/conv3d0/w"), Tensor(np.arange(1.0, rpn.cfg.conv3d[0].channels + 1))
    ly = rpn.cfg.conv3d[0]
    got = conv_voxels(feat, coords, dims, w, b, ly.stride, ly.padding)
    want = conv_nd(Tensor(np.zeros((4,) + dims)), w, b, ly.stride, ly.padding)
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.data, np.broadcast_to(b.data.reshape(-1, 1, 1, 1), got.shape))


def test_voxel_encoder_rejects_voxel_without_points():
    rng = np.random.default_rng(11)
    slots, counts, coords, _ = make_voxels(rng, n=10)
    counts[0] = 0
    with pytest.raises(ShapeMismatch):
        VoxelRPN(tiny_cfg(), seed=0).encode_voxels(slots, counts, coords)


def test_sparse_encoder_matches_dense_reference():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        vox = make_voxels(rng, dims=(16, 16, 20), n=200)
        rpn = VoxelRPN(tiny_cfg(), seed=seed)
        got = rpn.encode_voxels(*vox[:3])
        want = reference_dense_encode(rpn, *vox)
        coords, dims = vox[2], vox[3]
        assert got.shape == (len(coords), rpn.cfg.encoder_channels)
        # -0.0 from zeroing empty voxels compares equal to the sparse path's 0.0
        assert np.array_equal(scatter_grid(got, coords, dims).data, want.data)


def test_rpn_outputs_byte_equal_to_dense_encoder_path(monkeypatch):
    rng = np.random.default_rng(12)
    grid = make_grid(rng, dims=(32, 32, 20), n=400)
    sparse = VoxelRPN(tiny_cfg(), seed=3)
    dense = VoxelRPN(tiny_cfg(), seed=3)
    for train in (False, True):
        got = sparse.forward(grid, train=train)
        with monkeypatch.context() as m:
            m.setattr(nn, "conv_voxels", dense_conv_voxels)
            want = dense.forward(grid, train=train)
        for g, w in zip(got, want):
            assert g.data.tobytes() == w.data.tobytes()
    for rpn, (cls_map, reg_map, _) in ((sparse, got), (dense, want)):
        (cls_map.sum() + (reg_map * reg_map).sum()).backward()
    for name in sparse.params.names():
        g, w = sparse.params.tensors[name].grad, dense.params.tensors[name].grad
        if name in ("rpn/encoder/w", "rpn/encoder/b", "rpn/conv3d0/w"):
            # these sum over the reached im2col columns only: another order
            assert np.allclose(g, w, rtol=1e-12, atol=0.0), name
        else:
            assert g.tobytes() == w.tobytes(), name


def test_rpn_gradients_flow_to_all_parameters():
    rng = np.random.default_rng(10)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    cls_map, reg_map, _ = rpn.forward(make_grid(rng, dims=(32, 32, 20), n=400), train=True)
    (cls_map.sum() + (reg_map * reg_map).sum()).backward()
    missing = [n for n in rpn.params.names()
               if rpn.params.tensors[n].grad is None
               or not np.any(rpn.params.tensors[n].grad)]
    # bn shifts of dead branches aside, everything should receive gradient
    assert missing == [], missing


def test_backward_frees_the_rpn_graph():
    rng = np.random.default_rng(10)
    rpn = VoxelRPN(tiny_cfg(), seed=0)
    cls_map, reg_map, fused = rpn.forward(make_grid(rng, dims=(32, 32, 20), n=400),
                                          train=True)
    loss = cls_map.sum() + (reg_map * reg_map).sum()
    ref = weakref.ref(fused.data)   # Tensor has __slots__ and takes no weakref
    del cls_map, reg_map, fused
    assert ref() is not None        # the loss's graph holds the fused map
    loss.backward()
    assert ref() is None and loss._parents == ()


# --------------------------------------------------------------- RefinerNet
def ref_cfg(**kw):
    base = dict(feature_channels=6, corner_template=(0.0,) * 24, coord_dim=8, pointnet=(16, 32),
                head=(16,))
    base.update(kw)
    return RefinerConfig(**base)


def reference_forward(net, coords, feats):
    """Reference for one proposal of RefinerNet.forward, with feats as one
    row per point: the gate is computed on every point's row, and every
    PointNet layer runs on every point before the max-pool. Returns the
    24-vector."""
    p = net.params.tensors

    def norm(x, name):
        c = x.shape[1]
        return p[name + "/scale"].reshape(1, c) * x + p[name + "/shift"].reshape(1, c)

    c = linear(Tensor(np.asarray(coords, dtype=np.float64)),
               p["refiner/coord/w"], p["refiner/coord/b"])
    c = ad.relu(norm(c, "refiner/coord/bn"))
    f = Tensor(np.asarray(feats, dtype=np.float64))
    h = ad.concat([c, f], axis=1) * ad.sigmoid(linear(f, p["refiner/att/w"], p["refiner/att/b"]))
    for i in range(len(net.cfg.pointnet)):
        h = linear(h, p[f"refiner/pn{i}/w"], p[f"refiner/pn{i}/b"])
        h = ad.relu(norm(h, f"refiner/pn{i}/bn"))
    g = h.max(axis=0).reshape(1, h.shape[1])
    for i in range(len(net.cfg.head)):
        g = ad.relu(linear(g, p[f"refiner/head{i}/w"], p[f"refiner/head{i}/b"]))
    return linear(g, p["refiner/out/w"], p["refiner/out/b"]).reshape(-1)


def segments(starts, n):
    return list(zip(starts, np.append(starts[1:], n)))


def stacked_reference(net, coords, feats, cells, starts):
    """The (P, 24) rows of reference_forward, one proposal at a time."""
    return ad.concat([reference_forward(net, coords[a:b], feats[cells[a:b]]).reshape(1, 24)
                      for a, b in segments(starts, len(coords))], axis=0)


def frame_cases(rng):
    """(name, coords, feats, cells, starts) batches of proposals."""
    def batch(sizes, k, cells=None):
        n = sum(sizes)
        cells = rng.integers(0, k, n) if cells is None else cells
        return (rng.normal(size=(n, 3)), rng.normal(size=(k, 6)), cells,
                np.cumsum([0] + sizes[:-1]))

    yield "random", *batch([40, 7, 25, 12], 19)
    yield "P = 1", *batch([40], 7)
    yield "one-point segments", *batch([1, 1, 9, 1], 5)
    yield "one point", *batch([1], 1)
    yield "one cell", *batch([30, 4], 1)
    yield "own cells", *batch([30, 20], 50, np.arange(50))
    coords, feats, cells, _ = batch([6], 3)
    yield "tied maxima", np.tile(coords, (5, 1)), feats, np.tile(cells, 5), np.array([0, 12, 18])


def refiner_variants():
    """Seeded nets, then with signed and zero norm scales, then with channels
    of the last PointNet layer that the ReLU cuts off on every point; each
    with ref_cfg's two-layer PointNet, then with one layer (the first is the
    last, sign-folded) and with three (a middle layer's norm is folded)."""
    for pointnet in ((16, 32), (16,), (16, 24, 32)):
        net = RefinerNet(ref_cfg(pointnet=pointnet), seed=0)
        yield "seeded", net
        net = RefinerNet(ref_cfg(pointnet=pointnet), seed=0)
        rng = np.random.default_rng(21)
        for name, t in net.params.tensors.items():
            if name.endswith("/scale"):
                t.data[:] = rng.choice([-1.5, -0.5, 0.0, 0.7, 2.0], size=t.data.shape)
            elif name.endswith("/shift"):
                t.data[:] = rng.normal(size=t.data.shape)
        yield "signed scales", net
        net = RefinerNet(ref_cfg(pointnet=pointnet), seed=0)
        last = f"refiner/pn{len(net.cfg.pointnet) - 1}"
        w = net.params.tensors[last + "/w"].data
        # -50 cuts every third channel off; past a ReLU h >= 0, so h @ w <= 0
        w[:, ::3] = -np.abs(w[:, ::3])
        net.params.tensors[last + "/bn/shift"].data[::3] = -50.0
        net.params.tensors[last + "/bn/scale"].data[1::3] = -1.0
        yield "dead channels", net


def relative_error(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def test_refiner_forward_matches_reference():
    rng = np.random.default_rng(20)
    for variant, net in refiner_variants():
        for case, coords, feats, cells, starts in frame_cases(rng):
            got = net.forward(coords, feats, cells, starts).data
            want = stacked_reference(net, coords, feats, cells, starts).data
            assert got.shape == (len(starts), 24), (variant, case)
            assert relative_error(got, want) <= 1e-12, (variant, case)


def refiner_gradients(net, out, target):
    net.params.zero_grad()
    diff = out + (-target)
    (diff * diff).sum().backward()
    return {k: np.zeros(t.data.shape) if t.grad is None else t.grad
            for k, t in net.params.tensors.items()}


def test_refiner_gradients_match_reference():
    rng = np.random.default_rng(22)
    _, coords, feats, cells, starts = next(frame_cases(rng))
    target = rng.normal(size=(len(starts), 24))
    for variant, net in refiner_variants():
        if variant == "signed scales":
            # a zero scale's gradient is one-sided: kept out, nonzero scales of both signs stay
            for name, t in net.params.tensors.items():
                if name.endswith("/scale"):
                    t.data[t.data == 0.0] = 0.3
        got = refiner_gradients(net, net.forward(coords, feats, cells, starts), target)
        want = refiner_gradients(net, stacked_reference(net, coords, feats, cells, starts),
                                 target)
        for name in want:
            err = np.max(np.abs(got[name] - want[name]), initial=0.0)
            assert err <= 1e-12 * max(1.0, np.abs(want[name]).max()), (variant, name, err)


def test_refiner_groups_that_split_match_one_group(monkeypatch):
    # the widest activation of ref_cfg is 32 channels: a budget of 48 rows
    # groups "random"'s proposals of 40, 7, 25 and 12 points as 40 + 7 and
    # 25 + 12, and one of a single row leaves every proposal a group alone
    rng = np.random.default_rng(23)
    _, coords, feats, cells, starts = next(frame_cases(rng))
    target = rng.normal(size=(len(starts), 24))
    net = RefinerNet(ref_cfg(), seed=0)
    whole = net.forward(coords, feats, cells, starts)
    whole_grads = refiner_gradients(net, whole, target)
    groups = []
    pooled = RefinerNet._pooled
    monkeypatch.setattr(RefinerNet, "_pooled",
                        lambda self, c, *a: groups.append(len(c)) or pooled(self, c, *a))
    for rows in (48, 1):
        groups.clear()
        monkeypatch.setattr(nn, "_REFINER_GROUP_BYTES", 8 * 32 * rows)
        split = net.forward(coords, feats, cells, starts)
        assert groups == ([47, 37] if rows == 48 else [40, 7, 25, 12])
        assert relative_error(split.data, whole.data) <= 1e-12
        split_grads = refiner_gradients(net, split, target)
        for name, want in whole_grads.items():
            assert relative_error(split_grads[name], want) <= 1e-12, (rows, name)


def test_refiner_outputs_one_24_vector_per_proposal():
    rng = np.random.default_rng(11)
    net = RefinerNet(ref_cfg(), seed=0)
    out = net.forward(rng.normal(size=(40, 3)), rng.normal(size=(9, 6)), rng.integers(0, 9, 40),
                      np.array([0, 10, 35]))
    assert out.shape == (3, 24)


def test_refiner_permutation_invariant():
    # points within a proposal, feature rows, and the order of the proposals
    rng = np.random.default_rng(12)
    _, coords, feats, cells, starts = next(frame_cases(rng))
    net = RefinerNet(ref_cfg(), seed=0)
    a = net.forward(coords, feats, cells, starts).data
    perm = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in segments(starts, 84)])
    rows = rng.permutation(len(feats))
    b = net.forward(coords[perm], feats[rows], np.argsort(rows)[cells[perm]], starts).data
    assert relative_error(b, a) <= 1e-12
    order = [2, 0, 3, 1]
    spans = segments(starts, 84)
    idx = np.concatenate([np.arange(*spans[p]) for p in order])
    sizes = [spans[p][1] - spans[p][0] for p in order]
    c = net.forward(coords[idx], feats, cells[idx], np.cumsum([0] + sizes[:-1])).data
    assert relative_error(c, a[order]) <= 1e-12


def test_refiner_empty_proposal_raises():
    net = RefinerNet(ref_cfg(), seed=0)
    with pytest.raises(EmptyProposal):
        net.forward(np.zeros((0, 3)), np.zeros((0, 6)), np.zeros(0, dtype=int), np.array([0]))


@pytest.mark.parametrize("starts", [[0, 2, 2], [0, 5], [0, 0, 3]],
                         ids=["inner", "last", "first"])
def test_refiner_rejects_an_empty_segment(starts):
    net = RefinerNet(ref_cfg(), seed=0)
    with pytest.raises(EmptyProposal):
        net.forward(np.zeros((5, 3)), np.zeros((3, 6)), np.zeros(5, dtype=int), np.array(starts))


@pytest.mark.parametrize("starts", [np.array([0, 3, 2]), np.array([0, 6]), np.array([1, 3]),
                                    np.array([0, -1]), np.array([], dtype=int),
                                    np.array([0.0, 2.0]), np.array([[0, 2]])],
                         ids=["decreasing", "past the points", "not from 0", "negative", "none",
                              "float", "2-d"])
def test_refiner_rejects_bad_starts(starts):
    net = RefinerNet(ref_cfg(), seed=0)
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((5, 3)), np.zeros((3, 6)), np.zeros(5, dtype=int), starts)


def test_refiner_feature_shape_mismatch():
    net = RefinerNet(ref_cfg(), seed=0)
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((5, 3)), np.zeros((5, 4)), np.arange(5), np.array([0]))
    with pytest.raises(ShapeMismatch, match=r"coords \(5, 2\)"):
        net.forward(np.zeros((5, 2)), np.zeros((5, 6)), np.arange(5), np.array([0]))


@pytest.mark.parametrize("cells", [np.zeros(4, dtype=int), np.zeros(6, dtype=int),
                                   np.array([0, 1, 2, 3, 1]), np.array([0, -1, 0, 0, 0]),
                                   np.zeros(5), np.zeros(5, dtype=bool), np.zeros((5, 1), dtype=int)],
                         ids=["short", "long", "past the rows", "negative", "float", "bool", "2-d"])
def test_refiner_rejects_bad_cells(cells):
    net = RefinerNet(ref_cfg(), seed=0)
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((5, 3)), np.zeros((3, 6)), cells, np.array([0]))


def test_refiner_corner_template_sets_initial_bias():
    template = tuple(float(i) for i in range(24))
    net = RefinerNet(ref_cfg(corner_template=template), seed=0)
    assert np.allclose(net.params.tensors["refiner/out/b"].data, template)


def test_refiner_rejects_bad_config():
    with pytest.raises(ConfigError):
        ref_cfg(corner_template=(1.0, 2.0))
    with pytest.raises(ConfigError):
        ref_cfg(pointnet=())


def test_refiner_gradient_finite_difference():
    rng = np.random.default_rng(15)
    coords = rng.normal(size=(15, 3))
    feats = rng.normal(size=(15, 6))
    cells = np.arange(15) % 4            # points share cells, so gate gradients add
    starts = np.array([0, 1, 9])         # a one-point proposal among them
    net = RefinerNet(ref_cfg(), seed=0)
    target = rng.normal(size=(3, 24))

    def make_loss():
        diff = net.forward(coords, feats, cells, starts) + (-target)
        return (diff * diff).sum()

    params = [net.params.tensors[n] for n in net.params.names()]
    assert finite_diff_check(make_loss, params, n_coords=2) < 1e-4


# ------------------------------------------------------------- segment_max
def test_segment_max_equals_each_segments_max():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(12, 5))
    starts = np.array([0, 1, 4, 11])
    got = nn.segment_max(Tensor(x), starts).data
    want = np.stack([x[a:b].max(axis=0) for a, b in segments(starts, 12)])
    assert got.tobytes() == want.tobytes()


def test_segment_max_routes_gradient_to_the_first_argmax_of_each_segment():
    # ties within segments and across them: Tensor.max's rule per segment
    x = np.array([[1.0, 2.0], [1.0, 0.0], [3.0, 2.0], [0.0, 5.0], [3.0, 5.0], [3.0, 1.0]])
    starts = np.array([0, 2, 5])
    g = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    xt = Tensor(x, requires_grad=True)
    (nn.segment_max(xt, starts) * g).sum().backward()
    want = np.zeros_like(x)
    for p, (a, b) in enumerate(segments(starts, len(x))):
        seg = Tensor(x[a:b], requires_grad=True)
        (seg.max(axis=0) * g[p]).sum().backward()
        want[a:b] = seg.grad
    assert np.array_equal(xt.grad, want)
    assert want[0].tolist() == [1.0, 2.0] and want[2].tolist() == [3.0, 0.0]


def test_segment_max_gradient_finite_difference():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    starts = np.array([0, 3, 4])
    r = rng.normal(size=(3, 4))
    assert finite_diff_check(lambda: (nn.segment_max(x, starts) * r).sum(), [x],
                             n_coords=36) < 1e-4


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


def test_parameters_load_rejects_file_without_version(tmp_path):
    p = tmp_path / "weights.npz"
    np.savez(p, **{"t/refiner/out/b": np.zeros(24)})
    with pytest.raises(ValueError, match="weights.npz"):
        Parameters.load(p)


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
