"""Network layers and the two detection networks.

Everything runs on the float64 autodiff tensors from ``autodiff``.
Convolutions are im2col gathers followed by a matmul; transposed
convolution is zero-dilation plus a flipped-kernel convolution. Layouts
are channels-first for feature maps: (C, X, Y) and (C, X, Y, Z).

The first-stage backbone is: per-point encoder MLP with max-pool per
occupied voxel, scattered into the dense grid, six 3D conv layers
collapsing Z to 1, three 2D conv blocks, three deconvolution branches
fused by channel concat, and 1x1 classification / regression heads. The
refiner is a PointNet over canonized in-box points whose coordinate
embedding is fused with indexed backbone features through a learned
sigmoid attention gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, EmptyProposal, ShapeMismatch

_NEG_BIG = -1e30  # masks empty point slots before max-pooling


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
        """Affine pair for set normalization (no running statistics)."""
        self.params.tensors[name + "/scale"] = Tensor(np.ones(n), requires_grad=True)
        self.params.tensors[name + "/shift"] = Tensor(np.zeros(n), requires_grad=True)


# ----------------------------------------------------------- conv machinery
_IDX_CACHE: dict = {}


def _im2col_indices(cin, padded, kernel, stride):
    """Flat gather indices (cin * prod(kernel), prod(out)) into the padded input."""
    key = (cin, padded, kernel, stride)
    hit = _IDX_CACHE.get(key)
    if hit is not None:
        return hit
    ndim = len(padded)
    out = tuple((p - k) // s + 1 for p, k, s in zip(padded, kernel, stride))
    flat_stride = [int(np.prod(padded[ax + 1:])) for ax in range(ndim)]
    total = np.zeros(kernel + out, dtype=np.int64)
    for ax in range(ndim):
        pos = np.arange(kernel[ax])[:, None] + np.arange(out[ax])[None, :] * stride[ax]
        shape = [1] * (2 * ndim)
        shape[ax] = kernel[ax]
        shape[ndim + ax] = out[ax]
        total = total + (pos * flat_stride[ax]).reshape(
            [kernel[ax] if i == ax else 1 for i in range(ndim)]
            + [out[ax] if i == ax else 1 for i in range(ndim)])
    spat = total.reshape(int(np.prod(kernel)), int(np.prod(out)))
    chan = np.arange(cin, dtype=np.int64) * int(np.prod(padded))
    idx = (chan[:, None, None] + spat[None]).reshape(cin * spat.shape[0], spat.shape[1])
    _IDX_CACHE[key] = (idx, out)
    return idx, out


def conv_nd(x: Tensor, w: Tensor, b: Tensor, stride, padding) -> Tensor:
    """Cross-correlation. x: (Cin, *S); w: (Cout, Cin, *K); out: (Cout, *S')."""
    cin = x.shape[0]
    if w.shape[1] != cin:
        raise ShapeMismatch(f"input channels {cin} vs weight {w.shape[1]}")
    spatial = x.shape[1:]
    kernel = w.shape[2:]
    if any(s + 2 * p < k for s, p, k in zip(spatial, padding, kernel)):
        raise ShapeMismatch(f"kernel {kernel} larger than padded input {spatial}")
    xp = ad.pad(x, ((0, 0),) + tuple((p, p) for p in padding))
    idx, out_spatial = _im2col_indices(cin, xp.shape[1:], tuple(kernel), tuple(stride))
    cols = ad.take(xp, idx)
    cout = w.shape[0]
    out = w.reshape(cout, -1) @ cols + b.reshape(cout, 1)
    return out.reshape((cout,) + out_spatial)


def deconv_nd(x: Tensor, w: Tensor, b: Tensor, stride, padding) -> Tensor:
    """Transposed convolution: out size = (in - 1) * s - 2p + k.

    w: (Cout, Cin, *K). Implemented as zero-dilation by the stride followed
    by a stride-1 convolution with the spatially flipped kernel.
    """
    kernel = w.shape[2:]
    ndim = len(kernel)
    d = ad.dilate(x, (1,) + tuple(stride))
    wc = w.flip(tuple(range(2, 2 + ndim)))
    pads = tuple(k - 1 - p for k, p in zip(kernel, padding))
    if any(p < 0 for p in pads):
        raise ShapeMismatch("padding exceeds kernel - 1")
    return conv_nd(d, wc, b, (1,) * ndim, pads)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def batchnorm(x: Tensor, scale: Tensor, shift: Tensor, stats: dict, name: str,
              train: bool, channel_axis: int = 0, momentum: float = 0.1,
              eps: float = 1e-5) -> Tensor:
    """Normalize over all axes except channel_axis.

    Train mode uses batch statistics and updates the running ones; eval
    mode uses the running statistics.
    """
    c = x.shape[channel_axis]
    bshape = tuple(c if i == channel_axis else 1 for i in range(len(x.shape)))
    axes = tuple(i for i in range(len(x.shape)) if i != channel_axis)
    if train:
        mu = x.mean(axis=axes, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=axes, keepdims=True)
        xhat = xc * ((var + eps) ** -0.5)
        rm, rv = stats[name + "/mean"], stats[name + "/var"]
        stats[name + "/mean"] = (1 - momentum) * rm + momentum * mu.data.reshape(c)
        stats[name + "/var"] = (1 - momentum) * rv + momentum * var.data.reshape(c)
    else:
        mu = stats[name + "/mean"].reshape(bshape)
        sd = np.sqrt(stats[name + "/var"].reshape(bshape) + eps)
        xhat = (x - mu) * (1.0 / sd)
    return scale.reshape(bshape) * xhat + shift.reshape(bshape)


def setnorm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize an (N, C) point set over its own N dimension.

    The refiner sees one proposal's point set at a time, so batch statistics
    never resemble a running average across proposals; normalizing each set
    by its own moments behaves identically at train and inference time.
    """
    mu = x.mean(axis=0, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=0, keepdims=True)
    xhat = xc * ((var + eps) ** -0.5)
    c = x.shape[1]
    return scale.reshape(1, c) * xhat + shift.reshape(1, c)


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

    def encode_voxels(self, slots: np.ndarray, counts: np.ndarray, coords: np.ndarray,
                      dims: tuple, train: bool) -> Tensor:
        """Per-point MLP + masked max-pool over the occupied voxels, scattered
        into the grid: (V, cap, 4) slots -> (C, nx, ny, nz), empty voxels zero.

        counts (V,) are the stored points per voxel (each >= 1) and coords
        (V, 3) the distinct voxel indices.
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
        pooled = h.reshape(v, cap, c).max(axis=1)
        cells = ad.scatter(pooled, np.ravel_multi_index(coords.T, dims), int(np.prod(dims)))
        return cells.reshape(tuple(dims) + (c,)).transpose((3, 0, 1, 2))

    def forward(self, slots: np.ndarray, counts: np.ndarray, coords: np.ndarray,
                dims: tuple, train: bool = False):
        """Voxel grid (as for encode_voxels) -> (cls_map (H_f, W_f, A),
        reg_map (H_f, W_f, A, 7), fused (C_F, X', Y'))."""
        cfg = self.cfg
        x = self.encode_voxels(slots, counts, coords, dims, train)
        for i, ly in enumerate(cfg.conv3d):
            x = conv_nd(x, self._p(f"rpn/conv3d{i}/w"), self._p(f"rpn/conv3d{i}/b"),
                        ly.stride, ly.padding)
            x = ad.relu(batchnorm(x, self._p(f"rpn/conv3d{i}/bn/scale"),
                                  self._p(f"rpn/conv3d{i}/bn/shift"),
                                  self.params.stats, f"rpn/conv3d{i}/bn", train))
        if x.shape[3] != 1:
            raise ConfigError(f"3D stack left Z = {x.shape[3]}, expected 1")
        x = x.reshape(x.shape[0], x.shape[1], x.shape[2])
        branches = []
        for bi, block in enumerate(cfg.blocks2d):
            for li, ly in enumerate(block):
                name = f"rpn/block{bi + 2}_{li}"
                x = conv_nd(x, self._p(name + "/w"), self._p(name + "/b"), ly.stride, ly.padding)
                x = ad.relu(batchnorm(x, self._p(name + "/bn/scale"), self._p(name + "/bn/shift"),
                                      self.params.stats, name + "/bn", train))
            branches.append(x)
        ups = []
        for bi, (src, ly) in enumerate(zip(branches, cfg.deconv)):
            name = f"rpn/branch{bi + 2}"
            u = deconv_nd(src, self._p(name + "/w"), self._p(name + "/b"), ly.stride, ly.padding)
            u = ad.relu(batchnorm(u, self._p(name + "/bn/scale"), self._p(name + "/bn/shift"),
                                  self.params.stats, name + "/bn", train))
            ups.append(u)
        fused = ad.concat(ups, axis=0)
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
    coord_dim: int = 128
    pointnet: tuple = (256, 512)
    head: tuple = (256,)
    attention: str = "vector"      # "vector" | "scalar" | "ones"
    # "set" normalizes each proposal's point features by their own moments;
    # "none" keeps the affine pair only, preserving absolute coordinate scale
    norm: str = "set"
    # optional 24-vector: output-layer bias starts at these canonical corners
    # (e.g. the anchor box's own corners) so an untrained refiner is near the
    # identity refinement instead of collapsing every corner to the center
    corner_template: tuple | None = None

    def __post_init__(self):
        if self.attention not in ("vector", "scalar", "ones"):
            raise ConfigError(f"unknown attention mode {self.attention!r}")
        if self.norm not in ("set", "none"):
            raise ConfigError(f"unknown norm mode {self.norm!r}")
        if self.corner_template is not None and len(self.corner_template) != 24:
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
        if cfg.attention != "ones":
            att_out = fuse_dim if cfg.attention == "vector" else 1
            b.weight("refiner/att/w", (cfg.feature_channels, att_out), cfg.feature_channels)
            b.bias("refiner/att/b", att_out)
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
        if cfg.corner_template is not None:
            self.params.tensors["refiner/out/b"].data[:] = cfg.corner_template
        if params is not None:
            self.params = _checked(params, self.params, "refiner/")

    def _p(self, name):
        return self.params.tensors[name]

    def _norm(self, x, name):
        scale, shift = self._p(name + "/scale"), self._p(name + "/shift")
        if self.cfg.norm == "set":
            return setnorm(x, scale, shift)
        c = x.shape[1]
        return scale.reshape(1, c) * x + shift.reshape(1, c)

    def forward(self, coords: np.ndarray, feats: np.ndarray, train: bool = False) -> Tensor:
        """coords: (N, 3) canonized; feats: (N, C_F). Returns the 24-vector
        corner prediction."""
        cfg = self.cfg
        n = len(coords)
        if n == 0:
            raise EmptyProposal("proposal contains no points")
        if feats.shape != (n, cfg.feature_channels):
            raise ShapeMismatch(f"features {feats.shape} vs (N, {cfg.feature_channels})")
        c = linear(Tensor(np.asarray(coords, dtype=np.float64)),
                   self._p("refiner/coord/w"), self._p("refiner/coord/b"))
        c = ad.relu(self._norm(c, "refiner/coord/bn"))
        f = Tensor(np.asarray(feats, dtype=np.float64))
        fused = ad.concat([c, f], axis=1)
        if cfg.attention != "ones":
            att = ad.sigmoid(linear(f, self._p("refiner/att/w"), self._p("refiner/att/b")))
            fused = fused * att
        h = fused
        for i in range(len(cfg.pointnet)):
            h = linear(h, self._p(f"refiner/pn{i}/w"), self._p(f"refiner/pn{i}/b"))
            h = ad.relu(self._norm(h, f"refiner/pn{i}/bn"))
        g = h.max(axis=0).reshape(1, h.shape[1])
        for i in range(len(cfg.head)):
            g = ad.relu(linear(g, self._p(f"refiner/head{i}/w"), self._p(f"refiner/head{i}/b")))
        return linear(g, self._p("refiner/out/w"), self._p("refiner/out/b")).reshape(-1)
