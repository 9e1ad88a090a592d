"""Pipeline configuration: one YAML tree covering voxelization, anchors,
network widths, losses, augmentation, postprocessing, training schedule,
and the synthetic scene generator. Cross-module consistency (anchor grid
vs. network stride) is validated at load time."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, is_dataclass
from pathlib import Path

import yaml

from .anchors import AnchorSpec
from .errors import ConfigError
from .losses import LossConfig
from .nn import NetConfig, RefinerConfig, reference_netconfig
from .synthetic import SceneSpec
from .voxels import VoxelSpec


def _check_fields(section: str, params, rules) -> None:
    """Raise ConfigError naming the first field of params whose value fails
    its test; rules are (field, test, what the test needs). Each test is
    written so that NaN fails it too."""
    for name, ok, need in rules:
        value = getattr(params, name)
        if not ok(value):
            raise ConfigError(f"{section}.{name} {value!r} must be {need}")


def _real(test):
    return lambda v: isinstance(v, numbers.Real) and test(v)


def _integer(low: int):
    return lambda v: isinstance(v, numbers.Integral) and v >= low


def _integers(v) -> bool:
    return isinstance(v, (tuple, list)) and all(_integer(0)(e) for e in v)


_POSITIVE = _real(lambda v: 0 < v < math.inf)
_NON_NEGATIVE = _real(lambda v: 0 <= v < math.inf)


@dataclass
class AnchorParams:
    sizes: tuple = ((1.6, 1.7, 1.5),)
    angles_deg: tuple = (0.0, 45.0, 90.0, 135.0)
    z_center: float = -1.0
    pos_iou: float = 0.6
    neg_iou: float = 0.45

    def __post_init__(self):
        # sizes and angles are checked by the AnchorSpec that validate builds
        _check_fields("anchors", self, (
            ("z_center", _real(math.isfinite), "finite"),
            ("pos_iou", _real(lambda v: 0 < v <= 1), "in (0, 1]"),
            ("neg_iou", _real(lambda v: 0 <= v < 1), "in [0, 1)")))

    def spec(self) -> AnchorSpec:
        return AnchorSpec(tuple(tuple(s) for s in self.sizes),
                          tuple(math.radians(a) for a in self.angles_deg),
                          self.z_center)


@dataclass
class NetParams:
    width_mult: float = 1.0
    encoder_channels: int = 8
    refiner_coord_dim: int = 128
    refiner_pointnet: tuple = (256, 512)
    refiner_head: tuple = (256,)

    def __post_init__(self):
        # the refiner's widths are checked by the RefinerConfig that validate builds
        _check_fields("net", self, (
            ("width_mult", _POSITIVE, "finite and > 0"),
            ("encoder_channels", _integer(1), "an integer >= 1")))


@dataclass
class PostParams:
    score_thresh: float = 0.3
    nms_iou: float = 0.1
    top_k: int = 30
    refiner_pos_iou: float = 0.5
    crop_margin: float = 0.3

    def __post_init__(self):
        _check_fields("post", self, (
            ("score_thresh", _real(lambda v: 0 <= v <= 1), "in [0, 1]"),
            ("nms_iou", _real(lambda v: 0 <= v <= 1), "in [0, 1]"),
            ("top_k", _integer(1), "an integer >= 1"),
            ("refiner_pos_iou", _real(lambda v: 0 <= v < 1), "in [0, 1)"),
            ("crop_margin", _NON_NEGATIVE, "finite and >= 0")))


@dataclass
class AugmentParams:
    mixup_objects: int = 20
    flip_prob: float = 0.5
    scale_range: tuple = (0.95, 1.05)
    global_rot_deg: float = 45.0
    object_rot_deg: float = 18.0

    def __post_init__(self):
        _check_fields("augment", self, (
            ("mixup_objects", _integer(0), "an integer >= 0"),
            ("flip_prob", _real(lambda v: 0 <= v <= 1), "in [0, 1]"),
            ("scale_range", lambda v: isinstance(v, (tuple, list)) and len(v) == 2
             and all(_real(math.isfinite)(e) for e in v) and 0 < v[0] <= v[1],
             "two finite values 0 < low <= high"),
            ("global_rot_deg", _NON_NEGATIVE, "finite and >= 0"),
            ("object_rot_deg", _NON_NEGATIVE, "finite and >= 0")))


@dataclass
class TrainParams:
    lr: float = 0.01
    refiner_lr: float | None = None    # defaults to lr
    weight_decay: float = 1e-4
    rpn_epochs: int = 70
    rpn_decay_epochs: tuple = (50, 65)
    refiner_epochs: int = 70
    refiner_decay_epochs: tuple = (40, 55, 65)
    decay_factor: float = 0.1
    # extra refiner training pairs per ground truth, built by jittering the
    # gt box into a plausible proposal; 0 disables
    refiner_jitter: int = 0

    def __post_init__(self):
        # zero epochs and zero jitter are legal: they train (or add) nothing
        _check_fields("train", self, (
            ("lr", _POSITIVE, "finite and > 0"),
            ("refiner_lr", lambda v: v is None or _POSITIVE(v), "None or finite and > 0"),
            ("weight_decay", _NON_NEGATIVE, "finite and >= 0"),
            ("rpn_epochs", _integer(0), "an integer >= 0"),
            ("rpn_decay_epochs", _integers, "a list of integers >= 0"),
            ("refiner_epochs", _integer(0), "an integer >= 0"),
            ("refiner_decay_epochs", _integers, "a list of integers >= 0"),
            ("decay_factor", _real(lambda v: 0 < v <= 1), "in (0, 1]"),
            ("refiner_jitter", _integer(0), "an integer >= 0")))


@dataclass
class SyntheticParams:
    n_scenes: int = 20
    n_objects: tuple = (1, 3)
    clutter_points: int = 300
    surface_points: tuple = (120, 200)
    ground_z: float = -1.6

    def __post_init__(self):
        # n_objects is an inclusive range, surface_points a half-open one
        _check_fields("synthetic", self, (
            ("n_scenes", _integer(0), "an integer >= 0"),
            ("n_objects", lambda v: _integers(v) and len(v) == 2 and v[0] <= v[1],
             "two integers 0 <= low <= high"),
            ("clutter_points", _integer(0), "an integer >= 0"),
            ("surface_points", lambda v: _integers(v) and len(v) == 2 and v[0] < v[1],
             "two integers 0 <= low < high"),
            ("ground_z", _real(math.isfinite), "finite")))

    def scene_spec(self, axis_range) -> SceneSpec:
        return SceneSpec(axis_range=axis_range, n_objects=tuple(self.n_objects),
                         clutter_points=self.clutter_points,
                         surface_points=tuple(self.surface_points),
                         ground_z=self.ground_z)


@dataclass
class PipelineConfig:
    voxel_range: tuple = ((0.0, 70.4), (-40.0, 40.0), (-3.0, 1.0))
    voxel_size: tuple = (0.1, 0.1, 0.2)
    max_points_per_voxel: int = 6
    anchors: AnchorParams = field(default_factory=AnchorParams)
    net: NetParams = field(default_factory=NetParams)
    loss: LossConfig = field(default_factory=LossConfig)
    post: PostParams = field(default_factory=PostParams)
    augment: AugmentParams = field(default_factory=AugmentParams)
    train: TrainParams = field(default_factory=TrainParams)
    synthetic: SyntheticParams = field(default_factory=SyntheticParams)
    seed: int = 0

    # ------------------------------------------------------------ derived
    def voxel_spec(self) -> VoxelSpec:
        return VoxelSpec(tuple(tuple(r) for r in self.voxel_range),
                         tuple(self.voxel_size), self.max_points_per_voxel)

    def net_config(self) -> NetConfig:
        n_anchors = len(self.anchors.sizes) * len(self.anchors.angles_deg)
        return reference_netconfig(self.net.width_mult, self.net.encoder_channels, n_anchors)

    def refiner_config(self) -> RefinerConfig:
        from .geometry import Box3D, corners_3d

        l, w, h = self.anchors.sizes[0]
        template = tuple(corners_3d(Box3D(0.0, 0.0, 0.0, l, w, h, 0.0)).ravel())
        return RefinerConfig(self.net_config().fused_channels, template,
                             self.net.refiner_coord_dim,
                             tuple(self.net.refiner_pointnet),
                             tuple(self.net.refiner_head))

    def map_dims(self) -> tuple:
        return self.net_config().infer_shapes(self.voxel_spec().dims)["map_dims"]

    def validate(self) -> None:
        if not _integer(0)(self.seed):
            raise ConfigError(f"seed {self.seed!r} must be an integer >= 0")
        for name in ("sizes", "angles_deg"):
            if len(getattr(self.anchors, name)) == 0:
                raise ConfigError(f"anchors.{name} must not be empty")
        spec = self.voxel_spec()
        self.anchors.spec()
        shapes = self.net_config().infer_shapes(spec.dims)
        h_f, w_f = shapes["map_dims"]
        # anchor cells must tile the cropped world exactly
        (x0, x1), (y0, y1), _ = spec.axis_range
        nx, ny, _ = spec.dims
        if nx % w_f != 0 or ny % h_f != 0:
            raise ConfigError(
                f"feature map {h_f}x{w_f} does not evenly divide voxel grid {nx}x{ny}")
        if self.anchors.pos_iou <= self.anchors.neg_iou:
            raise ConfigError("pos_iou must exceed neg_iou")
        self.refiner_config()   # checks the refiner's widths


# ---------------------------------------------------------------- yaml io
def _to_plain(obj):
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _to_plain(v) for k, v in asdict(obj).items()}
    if isinstance(obj, tuple):
        return [_to_plain(v) for v in obj]
    if isinstance(obj, list):
        return [_to_plain(v) for v in obj]
    return obj


def save_config(cfg: PipelineConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(_to_plain(cfg), sort_keys=False))


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def load_config(path) -> PipelineConfig:
    raw = yaml.safe_load(Path(path).read_text()) or {}
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> PipelineConfig:
    def build(cls, data, name):
        """cls from the mapping data of section name, recursing into
        sections; absent keys keep their defaults."""
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise ConfigError(f"config section {name!r} must be a mapping, "
                              f"got {type(data).__name__}")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        kwargs = {}
        for k, v in data.items():
            section = fields[k].default_factory
            kwargs[k] = (build(section, v, k) if section is not MISSING and is_dataclass(section)
                         else _tuplify(v))
        return cls(**kwargs)

    cfg = build(PipelineConfig, raw, "top level")
    cfg.validate()
    return cfg


def toy_config() -> PipelineConfig:
    """Small, fast configuration for CPU-scale end-to-end runs."""
    cfg = PipelineConfig(
        voxel_range=((0.0, 12.8), (-6.4, 6.4), (-3.0, 1.0)),
        voxel_size=(0.2, 0.2, 0.2),
        max_points_per_voxel=6,
        anchors=AnchorParams(sizes=((3.9, 1.7, 1.56),), z_center=-0.85),
        net=NetParams(width_mult=0.25, refiner_coord_dim=32,
                      refiner_pointnet=(64, 128), refiner_head=(64,)),
        post=PostParams(score_thresh=0.1),
        train=TrainParams(rpn_epochs=60, rpn_decay_epochs=(45, 54),
                          refiner_epochs=150, refiner_decay_epochs=(110, 135),
                          lr=0.003, refiner_lr=0.001, refiner_jitter=6),
        synthetic=SyntheticParams(n_objects=(1, 2)),
    )
    cfg.validate()
    return cfg
