"""KITTI-format ingestion: velodyne scans, labels and calibration.

Labels arrive in the camera frame (location = bottom-center of the box,
rotation_y about the camera -y-ish axis); everything downstream works in
the LiDAR frame, so parsing converts immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Box3D, normalize_angle

KNOWN_CLASSES = ("Car", "Pedestrian", "Cyclist", "DontCare")

DIFFICULTY_EASY = "easy"
DIFFICULTY_MODERATE = "moderate"
DIFFICULTY_HARD = "hard"
DIFFICULTY_IGNORED = "ignored"

# (min bbox height px, max occlusion, max truncation) per level; standard
# devkit convention
DIFFICULTY_THRESHOLDS = (
    (DIFFICULTY_EASY, 40.0, 0, 0.15),
    (DIFFICULTY_MODERATE, 25.0, 1, 0.30),
    (DIFFICULTY_HARD, 25.0, 2, 0.50),
)


class TruncatedFile(ValueError):
    """Velodyne file length is not a multiple of the 16-byte point record."""


class MalformedLabel(ValueError):
    """Label line has the wrong field count or unparseable numbers."""


class MalformedCalib(ValueError):
    """Calibration file missing keys or with a non-orthonormal rotation."""


@dataclass
class PointCloud:
    """Ordered LiDAR points, (N, 4) float64 columns (x, y, z, reflectance)."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 4)

    def __len__(self):
        return self.points.shape[0]


@dataclass
class Calibration:
    r0_rect: np.ndarray          # (3, 3)
    tr_velo_to_cam: np.ndarray   # (3, 4)
    p2: np.ndarray               # (3, 4)

    def __post_init__(self):
        self.r0_rect = np.asarray(self.r0_rect, dtype=np.float64).reshape(3, 3)
        self.tr_velo_to_cam = np.asarray(self.tr_velo_to_cam, dtype=np.float64).reshape(3, 4)
        self.p2 = np.asarray(self.p2, dtype=np.float64).reshape(3, 4)
        for rot in (self.r0_rect, self.tr_velo_to_cam[:, :3]):
            if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-4):
                raise MalformedCalib("rotation part is not orthonormal within 1e-4")

    @staticmethod
    def identity() -> "Calibration":
        return Calibration(np.eye(3), np.hstack([np.eye(3), np.zeros((3, 1))]),
                           np.hstack([np.eye(3), np.zeros((3, 1))]))

    def _rect4(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.r0_rect
        return m

    def _velo4(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :4] = self.tr_velo_to_cam
        return m

    def cam_to_lidar(self, pts_cam: np.ndarray) -> np.ndarray:
        """Rectified-camera points (N, 3) -> LiDAR frame."""
        hom = np.hstack([pts_cam, np.ones((len(pts_cam), 1))])
        out = hom @ np.linalg.inv(self._rect4() @ self._velo4()).T
        return out[:, :3]

    def lidar_to_cam(self, pts: np.ndarray) -> np.ndarray:
        hom = np.hstack([pts, np.ones((len(pts), 1))])
        out = hom @ (self._rect4() @ self._velo4()).T
        return out[:, :3]


@dataclass
class FrameLabel:
    cls: str
    box: Box3D | None            # None for DontCare (its geometry fields are sentinels)
    truncation: float
    occlusion: int
    bbox2d: np.ndarray           # (4,) pixel coords (left, top, right, bottom)
    alpha: float
    difficulty: str = DIFFICULTY_IGNORED
    score: float | None = None


def assign_difficulty(truncation: float, occlusion: int, bbox2d) -> str:
    height = float(bbox2d[3] - bbox2d[1])
    for name, min_h, max_occ, max_trunc in DIFFICULTY_THRESHOLDS:
        if height >= min_h and occlusion <= max_occ and truncation <= max_trunc:
            return name
    return DIFFICULTY_IGNORED


# ----------------------------------------------------------------- velodyne
def read_velodyne(path) -> PointCloud:
    """Decode a binary scan of little-endian float32 (x, y, z, r) records."""
    raw = Path(path).read_bytes()
    if len(raw) % 16 != 0:
        raise TruncatedFile(f"{path}: length {len(raw)} not a multiple of 16")
    pts = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(-1, 4)
    return PointCloud(pts)


def write_velodyne(path, pc: PointCloud) -> None:
    Path(path).write_bytes(pc.points.astype("<f4").tobytes())


def in_range(xyz: np.ndarray, axis_range) -> np.ndarray:
    """(N,) mask of points with min <= coord < max on all three axes."""
    r = np.asarray(axis_range, dtype=np.float64).reshape(3, 2)
    if np.any(r[:, 0] >= r[:, 1]):
        raise ValueError("each axis range must have min < max")
    return np.all((xyz >= r[:, 0]) & (xyz < r[:, 1]), axis=1)


def crop_to_range(pc: PointCloud, axis_range: np.ndarray) -> PointCloud:
    """Keep the points ``in_range``; order preserved. Every kept point is
    voxelizable on a grid over the same range."""
    return PointCloud(pc.points[in_range(pc.points[:, :3], axis_range)])


# ------------------------------------------------------------------- labels
def _cam_yaw_to_lidar(ry: float) -> float:
    return normalize_angle(-ry - math.pi / 2)


def _lidar_yaw_to_cam(theta: float) -> float:
    return normalize_angle(-theta - math.pi / 2)


def parse_label_line(line: str, calib: Calibration) -> FrameLabel:
    fields = line.split()
    if len(fields) not in (15, 16):
        raise MalformedLabel(f"expected 15 (or 16 with score) fields, got {len(fields)}")
    cls = fields[0]
    if cls not in KNOWN_CLASSES:
        cls = "Other"
    try:
        vals = [float(v) for v in fields[1:]]
    except ValueError as e:
        raise MalformedLabel(str(e)) from None
    truncation, occ = vals[0], int(vals[1])
    alpha = vals[2]
    bbox2d = np.array(vals[3:7])
    h, w, l = vals[7:10]
    loc_cam = np.array(vals[10:13])
    ry = vals[13]
    score = vals[14] if len(fields) == 16 else None

    if cls == "DontCare":
        return FrameLabel(cls, None, truncation, occ, bbox2d, alpha,
                          difficulty=DIFFICULTY_IGNORED, score=score)

    bottom = calib.cam_to_lidar(loc_cam[None])[0]
    box = Box3D(bottom[0], bottom[1], bottom[2] + h / 2, l, w, h, _cam_yaw_to_lidar(ry))
    diff = assign_difficulty(truncation, occ, bbox2d)
    return FrameLabel(cls, box, truncation, occ, bbox2d, alpha, difficulty=diff, score=score)


def format_label_line(label: FrameLabel, calib: Calibration) -> str:
    """Inverse of parse_label_line (camera-frame 15/16-field text)."""
    if label.box is None:
        geom = [-1.0, -1.0, -1.0, -1000.0, -1000.0, -1000.0, -10.0]
    else:
        b = label.box
        bottom = np.array([b.x, b.y, b.z - b.h / 2])
        loc_cam = calib.lidar_to_cam(bottom[None])[0]
        geom = [b.h, b.w, b.l, loc_cam[0], loc_cam[1], loc_cam[2], _lidar_yaw_to_cam(b.theta)]
    parts = [label.cls, f"{label.truncation:.2f}", str(label.occlusion), f"{label.alpha:.6f}"]
    parts += [f"{v:.6f}" for v in label.bbox2d]
    parts += [f"{v:.6f}" for v in geom]
    if label.score is not None:
        parts.append(f"{label.score:.6f}")
    return " ".join(parts)


def read_label_file(path, calib: Calibration) -> list:
    labels = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            labels.append(parse_label_line(line, calib))
    return labels


def read_calib_file(path) -> Calibration:
    """Parse `KEY: v1 v2 ...` lines; requires R0_rect, Tr_velo_to_cam, P2."""
    entries = {}
    for line in Path(path).read_text().splitlines():
        if ":" not in line:
            continue
        key, _, rest = line.partition(":")
        try:
            entries[key.strip()] = np.array([float(v) for v in rest.split()])
        except ValueError:
            continue
    try:
        return Calibration(entries["R0_rect"], entries["Tr_velo_to_cam"], entries["P2"])
    except KeyError as e:
        raise MalformedCalib(f"missing calibration key {e}") from None
