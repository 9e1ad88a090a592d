"""Network layers and the two detection networks.

Everything runs on the float64 autodiff tensors from ``autodiff``.
Convolutions are im2col gathers followed by a matmul; transposed
convolution is their adjoint, a matmul whose products are scatter-added
at the same im2col positions. Every channel plane is gathered (or
scattered) through one tap table built per call, and a convolution
multiplies bounded chunks of im2col columns. A recorded layer is one graph
node that keeps only what its backward cannot cheaply recompute: a
convolution keeps its input, not its im2col, and re-gathers each chunk in
backward; batch norm + ReLU keeps per-channel statistics and has a
closed-form backward. Layouts are channels-first for feature maps:
(C, X, Y) and (C, X, Y, Z).

The first-stage backbone is: per-point encoder MLP with max-pool per
occupied voxel, six 3D conv layers collapsing Z to 1 (the first reads the
occupied voxels' feature rows through the tap table and writes a dense map),
three 2D conv blocks, three deconvolution branches fused by channel
concat, and 1x1 classification / regression heads. The
refiner is a PointNet over canonized in-box points whose coordinate
embedding is fused with indexed backbone features through a learned
sigmoid attention gate. Each of its layers normalizes by a per-channel
affine pair (scale and shift, no statistics), so a proposal's absolute
coordinate scale survives. The gate depends on a point's BEV cell alone,
so it is computed once per cell and gathered per point; the max-pool over
points comes before the last PointNet layer's bias, norm and ReLU, which
run on the pooled row only.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, EmptyProposal, ShapeMismatch
from .voxels import VoxelGrid

_NEG_BIG = -1e30  # masks empty point slots before max-pooling
_BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones
_BN_EPS = 1e-5


class MissingCheckpoint(FileNotFoundError):
    pass


# ------------------------------------------------------------------- params
class Parameters:
    """Named trainable tensors plus batch-norm running statistics."""

    VERSION = 1

    def __init__(self):
        self.tensors: dict[str, Tensor] = {}
        self.stats: dict[str, np.ndarray] = {}

    def names(self):
        return sorted(self.tensors)

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()

    def save(self, path):
        payload = {"__version__": np.array(self.VERSION)}
        for k, t in self.tensors.items():
            payload["t/" + k] = t.data
        for k, v in self.stats.items():
            payload["s/" + k] = v
        np.savez(path, **payload)

    @classmethod
    def load(cls, path):
        try:
            with np.load(path) as z:
                if "__version__" not in z.files:
                    raise ValueError(f"{path}: no __version__, not a checkpoint")
                if int(z["__version__"]) != cls.VERSION:
                    raise ValueError(f"unsupported checkpoint version {z['__version__']}")
                p = cls()
                for k in z.files:
                    if k.startswith("t/"):
                        p.tensors[k[2:]] = Tensor(z[k], requires_grad=True)
                    elif k.startswith("s/"):
                        p.stats[k[2:]] = z[k].copy()
            return p
        except FileNotFoundError:
            raise MissingCheckpoint(str(path)) from None


def _checked(params: Parameters, built: Parameters, prefix: str) -> Parameters:
    """params, once every tensor and running statistic under prefix has the
    name and shape that the config built; raises ConfigError naming the
    first that differs."""
    def shapes(p):
        arrays = {**{k: t.data for k, t in p.tensors.items()}, **p.stats}
        return {k: a.shape for k, a in arrays.items() if k.startswith(prefix)}

    have, want = shapes(params), shapes(built)
    for name in sorted(have.keys() | want.keys()):
        if have.get(name) != want.get(name):
            raise ConfigError(f"checkpoint tensor {name}: shape {have.get(name, 'missing')}, "
                              f"but the config builds {want.get(name, 'none')}")
    return params


class _Builder:
    """Creates uniform fan-in initialized parameters with deterministic order."""

    def __init__(self, params: Parameters, seed: int):
        self.params = params
        self.rng = np.random.default_rng(seed)

    def weight(self, name, shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        self.params.tensors[name] = Tensor(self.rng.uniform(-bound, bound, shape),
                                           requires_grad=True)

    def bias(self, name, n):
        self.params.tensors[name] = Tensor(np.zeros(n), requires_grad=True)

    def bn(self, name, n):
        self.params.tensors[name + "/scale"] = Tensor(np.ones(n), requires_grad=True)
        self.params.tensors[name + "/shift"] = Tensor(np.zeros(n), requires_grad=True)
        self.params.stats[name + "/mean"] = np.zeros(n)
        self.params.stats[name + "/var"] = np.ones(n)

    def norm(self, name, n):
        """Per-channel affine pair (no running statistics)."""
        self.params.tensors[name + "/scale"] = Tensor(np.ones(n), requires_grad=True)
        self.params.tensors[name + "/shift"] = Tensor(np.zeros(n), requires_grad=True)


# ----------------------------------------------------------- conv machinery
_GEMM_GROUP = 16  # a multiple of the output-row unroll of the BLAS dgemm kernels
_CHUNK_BYTES = 4 << 20  # im2col bytes per product of conv_nd, forward and backward


def _tap_table(padded, kernel, stride):
    """(base, origin, out) of a convolution over one padded channel plane:
    base (K,) holds the flat offset of each kernel tap, origin (O,) that of
    each output site's window, so base[:, None] + origin[None, :] is the
    plane's (K, O) im2col gather table."""
    ndim = len(padded)
    out = tuple((p - k) // s + 1 for p, k, s in zip(padded, kernel, stride))
    base = np.ravel_multi_index(np.indices(kernel).reshape(ndim, -1), padded)
    origin = np.ravel_multi_index(
        np.indices(out).reshape(ndim, -1) * np.array(stride).reshape(ndim, 1), padded)
    return base, origin, out


def conv_nd(x: Tensor, w: Tensor, b: Tensor, stride, padding) -> Tensor:
    """Cross-correlation. x: (Cin, *S); w: (Cout, Cin, *K); out: (Cout, *S').

    Every channel plane of the padded input is gathered through one tap
    table into chunks of the (Cin * K, prod(S')) im2col, which the weights
    multiply. A chunk holds at most _CHUNK_BYTES of columns, in whole groups
    of _GEMM_GROUP columns, so each column is rounded as in the one product
    over all columns. A recorded call keeps its input and no im2col: its
    backward walks the same chunks, re-gathers each one's columns for the
    weight gradient and scatter-adds the chunk's input gradient into the
    window of padded cells that the chunk reads.
    """
    cin = x.shape[0]
    if w.shape[1] != cin:
        raise ShapeMismatch(f"input channels {cin} vs weight {w.shape[1]}")
    spatial = x.shape[1:]
    kernel = w.shape[2:]
    if any(s + 2 * p < k for s, p, k in zip(spatial, padding, kernel)):
        raise ShapeMismatch(f"kernel {kernel} larger than padded input {spatial}")
    pads = ((0, 0),) + tuple((p, p) for p in padding)
    padded = tuple(s + 2 * p for s, p in zip(spatial, padding))
    base, origin, out_spatial = _tap_table(padded, tuple(kernel), tuple(stride))
    cout, rows = w.shape[0], cin * len(base)
    wm = w.data.reshape(cout, rows)
    step = max(1, _CHUNK_BYTES // (8 * rows * _GEMM_GROUP)) * _GEMM_GROUP
    chunks = range(0, len(origin), step)

    def columns(planes, j):
        return np.take(planes, base[:, None] + origin[j:j + step], axis=1).reshape(rows, -1)

    xp = np.pad(x.data, pads).reshape(cin, -1)
    out = np.empty((cout, len(origin)))
    for j in chunks:
        # one statement, so a chunk's columns are freed before the next is taken
        out[:, j:j + step] = wm @ columns(xp, j) + b.data.reshape(cout, 1)

    def backward(g):
        g = g.reshape(cout, -1)
        planes = np.pad(x.data, pads).reshape(cin, -1)
        gx, gw = np.zeros_like(planes), np.zeros((cout, rows))
        for j in chunks:
            gj, o = g[:, j:j + step], origin[j:j + step]
            gw += gj @ columns(planes, j).T
            # the chunk's windows read the padded cells lo .. hi - 1
            lo, hi = o[0], o[-1] + base[-1] + 1
            gx[:, lo:hi] += ad.add_planes((wm.T @ gj).reshape(cin, len(base), -1),
                                          base[:, None] + (o - lo), hi - lo)
        inner = (slice(None),) + tuple(slice(p, p + s) for p, s in zip(padding, spatial))
        return gx.reshape((cin,) + padded)[inner], gw.reshape(w.shape), g.sum(axis=1)

    return ad.node((x, w, b), out.reshape((cout,) + out_spatial), backward)


def _gemm_sites(used: np.ndarray) -> np.ndarray:
    """Sorted output sites whose im2col columns conv_voxels multiplies.

    A BLAS dgemm kernel may round an output column differently when it
    falls in the last, partial group of columns. So that every column is
    computed as in conv_nd's product over all sites, the mask of reached
    sites before that partial group is padded in place with unreached ones
    (zero columns, whose sum is the dense one) to whole groups, and the
    partial group's sites are always computed.
    """
    tail = len(used) - len(used) % _GEMM_GROUP
    fill = -np.count_nonzero(used[:tail]) % _GEMM_GROUP
    used[np.flatnonzero(~used[:tail])[:fill]] = True
    used[tail:] = True
    return np.flatnonzero(used)


def conv_voxels(feats: Tensor, coords: np.ndarray, dims, w: Tensor, b: Tensor,
                stride, padding) -> Tensor:
    """conv_nd over the grid that holds feats row i at coords[i] and zero
    elsewhere, computed from the occupied voxels only.

    feats: (V, Cin); coords: (V, ndim) distinct voxel indices inside dims;
    out: (Cout, *S'). Through a map of the padded grid that holds each
    cell's feats row (V, a zero row, where no voxel is), conv_nd's tap table
    gathers the dense im2col column of each site whose window reads a voxel.
    The other sites hold exactly b. So the output is byte-equal to the dense
    convolution when the output size is a multiple of _GEMM_GROUP (every
    grid the configs build), and otherwise when both products take the same
    BLAS path; else the last partial group's columns may differ in the last
    bit.
    """
    v, cin = feats.shape
    kernel, ndim = tuple(w.shape[2:]), len(dims)
    if coords.shape != (v, ndim) or w.shape[1] != cin:
        raise ShapeMismatch(f"feats {feats.shape}, coords {coords.shape}, weight {w.shape}: "
                            f"need V rows of {ndim} coords and Cin = {w.shape[1]}")
    if np.any(coords < 0) or np.any(coords >= np.asarray(dims)):
        raise ShapeMismatch(f"voxel coords outside the grid {tuple(dims)}")
    if any(s + 2 * p < k for s, p, k in zip(dims, padding, kernel)):
        raise ShapeMismatch(f"kernel {kernel} larger than padded input {tuple(dims)}")
    padded = tuple(s + 2 * p for s, p in zip(dims, padding))
    base, origin, out = _tap_table(padded, kernel, tuple(stride))
    cells = np.ravel_multi_index((coords + np.asarray(padding)).T, padded)
    # V < 2**31 rows: an int32 map halves the largest array of the call
    row_of, rows = np.full(int(np.prod(padded)), v, dtype=np.int32), np.arange(v)
    row_of[cells] = rows
    if np.any(row_of[cells] != rows):
        raise ShapeMismatch("repeated voxel coords")
    # tap t of the window at origin o reads cell o + base[t], so a voxel at
    # cell c is read by the window at c - base[t] when that is an origin
    # (a window inside the grid adds its taps without carry)
    hit = (cells[:, None] - base).ravel()
    reads = np.zeros(len(row_of), dtype=bool)
    reads[hit[hit >= 0]] = True
    sites = _gemm_sites(reads[origin])
    # the node keeps this (K, sites) table of voxel rows, not the gathered
    # columns: backward re-gathers them for the one weight-gradient product
    table = row_of[base[:, None] + origin[sites]]
    cout, rows = w.shape[0], cin * len(base)
    wm = w.data.reshape(cout, rows)

    def columns():
        planes = np.concatenate([feats.data, np.zeros((1, cin))]).T
        return np.take(planes, table, axis=1).reshape(rows, len(sites))

    def backward(g):
        g = g.reshape(cout, -1)
        gy = np.take(g, sites, axis=1)
        gplanes = ad.add_planes((wm.T @ gy).reshape(cin, len(base), -1), table, v + 1)
        return gplanes.T[:v], (gy @ columns().T).reshape(w.shape), g.sum(axis=1)

    y = ad.add_planes(wm @ columns(), sites, len(origin)) + b.data.reshape(cout, 1)
    return ad.node((feats, w, b), y.reshape((cout,) + out), backward)


def deconv_nd(x: Tensor, w: Tensor, b: Tensor, stride, padding) -> Tensor:
    """Transposed convolution, the adjoint of conv_nd's gather:
    out[o, i*s + t - p] += w[o, c, t] * x[c, i], so out size = (in - 1) * s - 2p + k.

    x: (Cin, *S); w: (Cout, Cin, *K). The (Cout*K, Cin) taps times the
    (Cin, prod(S)) input are every product at once; each output plane sums
    them into its uncropped (S - 1) * s + K extent through the tap table
    conv_nd would gather it with, and the padding is cropped. A recorded
    call keeps x and w, not the products: backward gathers the output
    gradient through the same table.
    """
    cin, spatial = x.shape[0], x.shape[1:]
    cout, kernel, ndim = w.shape[0], tuple(w.shape[2:]), len(spatial)
    if w.shape[1] != cin:
        raise ShapeMismatch(f"input channels {cin} vs weight {w.shape[1]}")
    if any(p > k - 1 for p, k in zip(padding, kernel)):
        raise ShapeMismatch("padding exceeds kernel - 1")
    full = tuple((s - 1) * st + k for s, st, k in zip(spatial, stride, kernel))
    if any(f - 2 * p < 1 for f, p in zip(full, padding)):
        raise ShapeMismatch(f"deconv of {spatial} by kernel {kernel} has no output")
    order = (0,) + tuple(range(2, 2 + ndim)) + (1,)     # (Cout, *K, Cin)
    base, origin, _ = _tap_table(full, kernel, tuple(stride))
    table, size = base[:, None] + origin, int(np.prod(full))
    crop = np.arange(size).reshape(full)[tuple(slice(p, f - p) for f, p in zip(full, padding))]
    axes = tuple(range(1, ndim + 1))

    def taps():
        return w.data.transpose(order).reshape(-1, cin)

    def backward(g):
        gp = np.take(ad.add_planes(g, crop, size), table, axis=1).reshape(cout * len(base), -1)
        gw = (gp @ x.data.reshape(cin, -1).T).reshape(w.shape[:1] + kernel + (cin,))
        return ((taps().T @ gp).reshape(x.shape), gw.transpose(np.argsort(order)),
                g.sum(axis=axes))

    prods = (taps() @ x.data.reshape(cin, -1)).reshape(cout, len(base), len(origin))
    y = np.take(ad.add_planes(prods, table, size), crop, axis=1)
    return ad.node((x, w, b), y + b.data.reshape((cout,) + (1,) * ndim), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def batchnorm_relu(x: Tensor, scale: Tensor, shift: Tensor, stats: dict, name: str,
                   train: bool) -> Tensor:
    """relu(scale * xhat + shift), where xhat normalizes x over every axis
    but the first, the channels.

    Train mode normalizes by the batch statistics and updates the running
    ones; eval mode uses the running statistics. One graph node, which keeps
    the per-channel mean and factor r = 1 / sd. Its backward recomputes
    xhat from x, reads the ReLU mask off the output and is closed form:
    dx = r * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) in train
    mode, r * dxhat in eval mode.
    """
    c = x.shape[0]
    bshape = (c,) + (1,) * (len(x.shape) - 1)
    axes = tuple(range(1, len(x.shape)))
    inv_n = 1.0 / (x.size // c)
    if train:
        mu = x.data.sum(axis=axes, keepdims=True) * inv_n
        xc = x.data + (-mu)
        var = (xc * xc).sum(axis=axes, keepdims=True) * inv_n
        r = (var + _BN_EPS) ** -0.5
        xhat = xc * r
        rm, rv = stats[name + "/mean"], stats[name + "/var"]
        stats[name + "/mean"] = (1 - _BN_MOMENTUM) * rm + _BN_MOMENTUM * mu.reshape(c)
        stats[name + "/var"] = (1 - _BN_MOMENTUM) * rv + _BN_MOMENTUM * var.reshape(c)
    else:
        mu = stats[name + "/mean"].reshape(bshape)
        r = 1.0 / np.sqrt(stats[name + "/var"].reshape(bshape) + _BN_EPS)
        xhat = (x.data + (-mu)) * r
    y = np.maximum(scale.data.reshape(bshape) * xhat + shift.data.reshape(bshape), 0.0)

    def backward(g):
        g = g * (y > 0)
        xhat = (x.data + (-mu)) * r
        gxhat = g * scale.data.reshape(bshape)
        if train:
            gxhat = gxhat - gxhat.sum(axis=axes, keepdims=True) * inv_n - xhat * (
                (gxhat * xhat).sum(axis=axes, keepdims=True) * inv_n)
        return gxhat * r, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return ad.node((x, scale, shift), y, backward)


# ------------------------------------------------------------------ config
@dataclass(frozen=True)
class ConvLayer:
    kernel: tuple
    channels: int
    stride: tuple
    padding: tuple


@dataclass(frozen=True)
class NetConfig:
    """VoxelRPN topology: fixed layer counts, configurable widths."""

    encoder_channels: int
    conv3d: tuple          # 6 ConvLayer with 3-tuples
    blocks2d: tuple        # 3 blocks, each a tuple of ConvLayer with 2-tuples
    deconv: tuple          # 3 ConvLayer (branch from blocks 2, 3, 4)
    num_anchors: int

    def __post_init__(self):
        if len(self.conv3d) != 6:
            raise ConfigError("exactly six 3D conv layers required")
        if len(self.blocks2d) != 3:
            raise ConfigError("exactly three 2D conv blocks required")
        if len(self.deconv) != 3:
            raise ConfigError("exactly three deconv branches required")

    @property
    def fused_channels(self) -> int:
        return sum(d.channels for d in self.deconv)

    def infer_shapes(self, grid_dims: tuple) -> dict:
        """Propagate shapes symbolically from voxel grid dims (n_x, n_y, n_z).

        Returns per-stage spatial shapes, the head map dims (H_f, W_f)
        reported as (y cells, x cells), and head channel counts.
        """
        shape = tuple(grid_dims)
        report = {"voxel_grid": shape}
        for i, ly in enumerate(self.conv3d):
            shape = tuple((s + 2 * p - k) // st + 1
                          for s, p, k, st in zip(shape, ly.padding, ly.kernel, ly.stride))
            if any(v < 1 for v in shape):
                raise ConfigError(f"conv3d layer {i} collapses shape to {shape}")
            report[f"conv3d{i}"] = shape
        if shape[2] != 1:
            raise ConfigError(f"3D stack must reduce Z to 1, got {shape[2]}")
        shape2 = shape[:2]
        branch_shapes = []
        for bi, block in enumerate(self.blocks2d):
            for ly in block:
                shape2 = tuple((s + 2 * p - k) // st + 1
                               for s, p, k, st in zip(shape2, ly.padding, ly.kernel, ly.stride))
            report[f"block{bi + 2}"] = shape2
            branch_shapes.append(shape2)
        fused = None
        for bi, (src, ly) in enumerate(zip(branch_shapes, self.deconv)):
            out = tuple((s - 1) * st - 2 * p + k
                        for s, p, k, st in zip(src, ly.padding, ly.kernel, ly.stride))
            report[f"branch{bi + 2}"] = out
            if fused is None:
                fused = out
            elif fused != out:
                raise ConfigError(f"branch outputs disagree: {fused} vs {out}")
        report["fused"] = fused
        report["map_dims"] = (fused[1], fused[0])   # (H_f, W_f) = (y, x)
        report["cls_channels"] = self.num_anchors
        report["reg_channels"] = self.num_anchors * 7
        report["fused_channels"] = self.fused_channels
        return report


def reference_netconfig(width_mult: float = 1.0, encoder_channels: int = 8,
                        num_anchors: int = 4) -> NetConfig:
    """Default backbone widths/strides.

    The first 3D layer has XY stride 2, the Z extent 20 collapses to 1
    through stride-2 and kernel-2 no-padding layers, each 2D block opens
    with a stride-2 layer, and the three deconv branches meet at 1/4
    input resolution (so an 800 x 704 grid yields 200 x 176 heads).
    """
    def ch(n):
        return max(1, int(round(n * width_mult)))

    c3 = ch(64)
    conv3d = (
        ConvLayer((3, 3, 3), c3, (2, 2, 2), (1, 1, 1)),
        ConvLayer((3, 3, 3), c3, (1, 1, 2), (1, 1, 1)),
        ConvLayer((3, 3, 3), c3, (1, 1, 2), (1, 1, 1)),
        ConvLayer((3, 3, 2), c3, (1, 1, 1), (1, 1, 0)),
        ConvLayer((3, 3, 2), c3, (1, 1, 1), (1, 1, 0)),
        ConvLayer((3, 3, 1), c3, (1, 1, 1), (1, 1, 0)),
    )

    def block(width, n_layers):
        layers = [ConvLayer((3, 3), ch(width), (2, 2), (1, 1))]
        layers += [ConvLayer((3, 3), ch(width), (1, 1), (1, 1))] * (n_layers - 1)
        return tuple(layers)

    blocks2d = (block(128, 3), block(128, 3), block(256, 3))
    bc = ch(64)
    deconv = (
        ConvLayer((3, 3), bc, (1, 1), (1, 1)),
        ConvLayer((2, 2), bc, (2, 2), (0, 0)),
        ConvLayer((4, 4), bc, (4, 4), (0, 0)),
    )
    return NetConfig(encoder_channels, conv3d, blocks2d, deconv, num_anchors)


# ---------------------------------------------------------------- VoxelRPN
class VoxelRPN:
    def __init__(self, cfg: NetConfig, params: Parameters | None = None, seed: int = 0):
        """Seeded weights, or the checkpoint params once they fit cfg."""
        self.cfg = cfg
        self.params = Parameters()
        b = _Builder(self.params, seed)
        b.weight("rpn/encoder/w", (4, cfg.encoder_channels), 4)
        b.bias("rpn/encoder/b", cfg.encoder_channels)
        cin = cfg.encoder_channels
        for i, ly in enumerate(cfg.conv3d):
            fan = cin * int(np.prod(ly.kernel))
            b.weight(f"rpn/conv3d{i}/w", (ly.channels, cin) + ly.kernel, fan)
            b.bias(f"rpn/conv3d{i}/b", ly.channels)
            b.bn(f"rpn/conv3d{i}/bn", ly.channels)
            cin = ly.channels
        block_out = []
        for bi, block in enumerate(cfg.blocks2d):
            for li, ly in enumerate(block):
                fan = cin * int(np.prod(ly.kernel))
                b.weight(f"rpn/block{bi + 2}_{li}/w", (ly.channels, cin) + ly.kernel, fan)
                b.bias(f"rpn/block{bi + 2}_{li}/b", ly.channels)
                b.bn(f"rpn/block{bi + 2}_{li}/bn", ly.channels)
                cin = ly.channels
            block_out.append(cin)
        for bi, (src_c, ly) in enumerate(zip(block_out, cfg.deconv)):
            fan = src_c * int(np.prod(ly.kernel))
            b.weight(f"rpn/branch{bi + 2}/w", (ly.channels, src_c) + ly.kernel, fan)
            b.bias(f"rpn/branch{bi + 2}/b", ly.channels)
            b.bn(f"rpn/branch{bi + 2}/bn", ly.channels)
        cf = cfg.fused_channels
        b.weight("rpn/cls/w", (cfg.num_anchors, cf, 1, 1), cf)
        b.bias("rpn/cls/b", cfg.num_anchors)
        b.weight("rpn/reg/w", (cfg.num_anchors * 7, cf, 1, 1), cf)
        b.bias("rpn/reg/b", cfg.num_anchors * 7)
        if params is not None:
            self.params = _checked(params, self.params, "rpn/")

    def _p(self, name):
        return self.params.tensors[name]

    def _conv_bn_relu(self, conv, name, ly: ConvLayer, train, *inputs) -> Tensor:
        """conv(*inputs, w, b, stride, padding) with the layer's weights under
        name, then its batch norm and a ReLU."""
        x = conv(*inputs, self._p(name + "/w"), self._p(name + "/b"), ly.stride, ly.padding)
        return batchnorm_relu(x, self._p(name + "/bn/scale"), self._p(name + "/bn/shift"),
                              self.params.stats, name + "/bn", train)

    def encode_voxels(self, slots: np.ndarray, counts: np.ndarray, coords: np.ndarray) -> Tensor:
        """Per-point MLP + masked max-pool over the occupied voxels:
        (V, cap, 4) slots -> (V, C), one feature row per voxel.

        counts (V,) are the stored points per voxel (each >= 1) and coords
        (V, 3) the distinct voxel indices; the grid dims are checked by the
        first conv, which reads these rows at their coords.
        """
        v, cap, _ = slots.shape
        if counts.shape != (v,) or coords.shape != (v, 3) or np.any(counts < 1):
            raise ShapeMismatch(f"slots {slots.shape}, counts {counts.shape}, "
                                f"coords {coords.shape}: need V occupied voxels")
        c = self.cfg.encoder_channels
        x = Tensor(slots.reshape(v * cap, 4))
        h = ad.relu(linear(x, self._p("rpn/encoder/w"), self._p("rpn/encoder/b")))
        slot = (np.arange(cap)[None, :] < counts.reshape(v, 1)).reshape(v * cap, 1)
        h = h + Tensor((~slot) * _NEG_BIG)
        return h.reshape(v, cap, c).max(axis=1)

    def forward(self, grid: VoxelGrid, train: bool = False):
        """Voxel grid -> (cls_map (H_f, W_f, A), reg_map (H_f, W_f, A, 7),
        fused (C_F, X', Y'))."""
        cfg = self.cfg
        x = self.encode_voxels(grid.points, grid.stored, grid.coords)
        # the first conv reads the voxel rows; its output map is dense
        x = self._conv_bn_relu(conv_voxels, "rpn/conv3d0", cfg.conv3d[0], train, x,
                               grid.coords, grid.dims)
        for i, ly in enumerate(cfg.conv3d[1:], 1):
            x = self._conv_bn_relu(conv_nd, f"rpn/conv3d{i}", ly, train, x)
        if x.shape[3] != 1:
            raise ConfigError(f"3D stack left Z = {x.shape[3]}, expected 1")
        x = x.reshape(x.shape[0], x.shape[1], x.shape[2])
        branches = []
        for bi, block in enumerate(cfg.blocks2d):
            for li, ly in enumerate(block):
                x = self._conv_bn_relu(conv_nd, f"rpn/block{bi + 2}_{li}", ly, train, x)
            branches.append(x)
        fused = ad.concat([self._conv_bn_relu(deconv_nd, f"rpn/branch{bi + 2}", ly, train, src)
                           for bi, (src, ly) in enumerate(zip(branches, cfg.deconv))], axis=0)
        cls = ad.sigmoid(conv_nd(fused, self._p("rpn/cls/w"), self._p("rpn/cls/b"),
                                 (1, 1), (0, 0)))
        reg = conv_nd(fused, self._p("rpn/reg/w"), self._p("rpn/reg/b"), (1, 1), (0, 0))
        a = cfg.num_anchors
        cls_map = cls.transpose((2, 1, 0))                    # (Y', X', A)
        reg_map = reg.reshape(a, 7, reg.shape[1], reg.shape[2]).transpose((3, 2, 0, 1))
        return cls_map, reg_map, fused


# --------------------------------------------------------------- RefinerNet
@dataclass(frozen=True)
class RefinerConfig:
    feature_channels: int          # C_F of the fused backbone map
    # 24-vector: the output-layer bias starts at these canonical corners (the
    # anchor box's own corners) so an untrained refiner is near the identity
    # refinement instead of collapsing every corner to the center
    corner_template: tuple
    coord_dim: int = 128
    pointnet: tuple = (256, 512)
    head: tuple = (256,)

    def __post_init__(self):
        if not self.pointnet:
            raise ConfigError("the refiner's PointNet needs at least one layer")
        widths = (self.coord_dim,) + tuple(self.pointnet) + tuple(self.head)
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in widths):
            raise ConfigError(f"refiner widths {widths} must be integers >= 1")
        if len(self.corner_template) != 24:
            raise ConfigError("corner_template must have 24 entries")


class RefinerNet:
    def __init__(self, cfg: RefinerConfig, params: Parameters | None = None, seed: int = 0):
        """Seeded weights, or the checkpoint params once they fit cfg."""
        self.cfg = cfg
        self.params = Parameters()
        b = _Builder(self.params, seed)
        b.weight("refiner/coord/w", (3, cfg.coord_dim), 3)
        b.bias("refiner/coord/b", cfg.coord_dim)
        b.norm("refiner/coord/bn", cfg.coord_dim)
        fuse_dim = cfg.coord_dim + cfg.feature_channels
        b.weight("refiner/att/w", (cfg.feature_channels, fuse_dim), cfg.feature_channels)
        b.bias("refiner/att/b", fuse_dim)
        cin = fuse_dim
        for i, width in enumerate(cfg.pointnet):
            b.weight(f"refiner/pn{i}/w", (cin, width), cin)
            b.bias(f"refiner/pn{i}/b", width)
            b.norm(f"refiner/pn{i}/bn", width)
            cin = width
        for i, width in enumerate(cfg.head):
            b.weight(f"refiner/head{i}/w", (cin, width), cin)
            b.bias(f"refiner/head{i}/b", width)
            cin = width
        b.weight("refiner/out/w", (cin, 24), cin)
        b.bias("refiner/out/b", 24)
        self.params.tensors["refiner/out/b"].data[:] = cfg.corner_template
        if params is not None:
            self.params = _checked(params, self.params, "refiner/")

    def _p(self, name):
        return self.params.tensors[name]

    def _norm(self, x, name):
        c = x.shape[1]
        return self._p(name + "/scale").reshape(1, c) * x + self._p(name + "/shift").reshape(1, c)

    def _pooled(self, h: Tensor, name: str) -> Tensor:
        """The last PointNet layer and the max-pool over points: the (1, C) max
        over the rows of relu(norm(h @ w + b)), computed on one row.

        Each channel is monotone in h @ w, rising where its norm scale is >= 0
        and falling where it is < 0, and rounding keeps that order. Negating a
        falling channel's w, b and scale is exact and makes it rising, so the
        pool takes each channel's largest entry of h @ (w * sign), and bias,
        norm and ReLU run on that row alone.
        """
        scale, shift = self._p(name + "/bn/scale"), self._p(name + "/bn/shift")
        sign = np.where(scale.data >= 0, 1.0, -1.0)
        z = h @ (self._p(name + "/w") * sign)
        c = z.shape[1]
        x = z.max(axis=0).reshape(1, c) + self._p(name + "/b") * sign
        return ad.relu((scale * sign).reshape(1, c) * x + shift.reshape(1, c))

    def forward(self, coords: np.ndarray, feats: np.ndarray, cells: np.ndarray) -> Tensor:
        """coords: (N, 3) canonized; feats: (K, C_F), one row per BEV cell;
        cells: (N,) integer row of feats of each point. Returns the 24-vector
        corner prediction."""
        cfg = self.cfg
        n = len(coords)
        if n == 0:
            raise EmptyProposal("proposal contains no points")
        feats, cells = np.asarray(feats, dtype=np.float64), np.asarray(cells)
        if feats.ndim != 2 or feats.shape[1] != cfg.feature_channels:
            raise ShapeMismatch(f"features {feats.shape} vs (K, {cfg.feature_channels})")
        if cells.shape != (n,) or not np.issubdtype(cells.dtype, np.integer):
            raise ShapeMismatch(f"cells {cells.shape} of {cells.dtype}: need {n} integer rows")
        if cells.min() < 0 or cells.max() >= len(feats):
            raise ShapeMismatch(f"cells index outside the {len(feats)} feature rows")
        c = linear(Tensor(np.asarray(coords, dtype=np.float64)),
                   self._p("refiner/coord/w"), self._p("refiner/coord/b"))
        c = ad.relu(self._norm(c, "refiner/coord/bn"))
        # the gate reads the cell's features alone: one row per cell, gathered
        # per point. numpy multiplies a lone row by gemv, which rounds unlike
        # gemm on several rows, so one cell shared by several points is
        # doubled to be rounded as each point's row would be
        rows = feats if len(feats) > 1 or n == 1 else np.repeat(feats, 2, axis=0)
        gate = ad.sigmoid(linear(Tensor(rows), self._p("refiner/att/w"), self._p("refiner/att/b")))
        h = ad.concat([c, Tensor(feats[cells])], axis=1) * ad.take(gate, cells)
        last = len(cfg.pointnet) - 1
        for i in range(last):
            h = linear(h, self._p(f"refiner/pn{i}/w"), self._p(f"refiner/pn{i}/b"))
            h = ad.relu(self._norm(h, f"refiner/pn{i}/bn"))
        g = self._pooled(h, f"refiner/pn{last}")
        for i in range(len(cfg.head)):
            g = ad.relu(linear(g, self._p(f"refiner/head{i}/w"), self._p(f"refiner/head{i}/b")))
        return linear(g, self._p("refiner/out/w"), self._p("refiner/out/b")).reshape(-1)
