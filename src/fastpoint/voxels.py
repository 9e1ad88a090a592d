"""Sparse voxelization of a cropped point cloud.

A grid holds only its occupied voxels, as sorted arrays: voxel indices,
a (V, cap, 4) block of stored points and per-voxel counts. Stored
per-point feature is (dx, dy, dz from voxel center, reflectance).
Overflowing voxels keep a seeded uniform random subset so runs replay
exactly.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kitti import PointCloud, in_range

_DUMP_MAGIC = b"FPVX"
_DUMP_VERSION = 1


class PointOutOfRange(ValueError):
    """A point fell outside the voxel range (precondition violation)."""


@dataclass(frozen=True)
class VoxelSpec:
    axis_range: tuple    # ((x0,x1), (y0,y1), (z0,z1)) meters
    voxel_size: tuple    # (v_l, v_w, v_h) meters
    max_points_per_voxel: int

    def __post_init__(self):
        cap = self.max_points_per_voxel
        if not isinstance(cap, numbers.Integral) or cap < 1:
            raise ConfigError(f"max_points_per_voxel {cap!r} must be an integer >= 1")
        for field in ("axis_range", "voxel_size"):
            if len(getattr(self, field)) != 3:
                raise ConfigError(f"{field} {getattr(self, field)} must have three axes (x, y, z)")
        for axis, (lo, hi), v in zip("xyz", self.axis_range, self.voxel_size):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"{axis} range ({lo}, {hi}) of axis_range must have finite "
                                  f"bounds")
            if not v > 0:
                raise ConfigError(f"{axis} voxel size {v} of voxel_size must be positive")
            if not lo < hi:
                raise ConfigError(f"{axis} range ({lo}, {hi}) of axis_range must have min < max")
            n = (hi - lo) / v
            if abs(n - round(n)) > 1e-6:
                raise ConfigError(f"{axis} extent {hi - lo} of axis_range is not divisible by "
                                  f"its voxel size {v}")

    @property
    def dims(self) -> tuple:
        return tuple(int(round((hi - lo) / v))
                     for (lo, hi), v in zip(self.axis_range, self.voxel_size))

    @property
    def mins(self) -> np.ndarray:
        return np.array([r[0] for r in self.axis_range])


@dataclass
class VoxelGrid:
    """The occupied voxels of one cloud, in ascending (x, y, z) index order."""

    spec: VoxelSpec
    coords: np.ndarray   # (V, 3) int64 voxel indices
    points: np.ndarray   # (V, cap, 4) offsets-from-center + reflectance; spare slots zero
    stored: np.ndarray   # (V,) points kept per voxel, at most cap

    @property
    def dims(self) -> tuple:
        return self.spec.dims


def voxelize(pc: PointCloud, spec: VoxelSpec, seed: int) -> VoxelGrid:
    """Bucket points into voxels; cap each voxel at max_points_per_voxel.

    A point belongs to the grid when it passes ``kitti.in_range`` (the rule
    ``crop_to_range`` keeps by). Its index is floor((p - min) / size),
    clamped to the last cell: rounding can carry a coordinate just below
    the upper edge onto index ``dims``.
    """
    pts = pc.points
    inside = in_range(pts[:, :3], spec.axis_range)
    if not np.all(inside):
        raise PointOutOfRange(f"point {pts[np.argmin(inside), :3]} outside voxel range")
    vsize = np.asarray(spec.voxel_size)
    idx = np.floor((pts[:, :3] - spec.mins) / vsize).astype(np.int64)
    idx = np.minimum(idx, np.array(spec.dims) - 1)

    # sort by voxel, then by key: the input index, or in a voxel over the cap a
    # seeded uniform draw taken in (voxel, coordinates) order, so the kept
    # subset does not depend on input order; each voxel keeps its first cap
    flat = np.ravel_multi_index(idx.T, spec.dims)
    cap = spec.max_points_per_voxel
    _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    key = np.arange(len(pts), dtype=np.float64)
    over = np.flatnonzero(counts[inverse] > cap)
    over = over[np.lexsort((*pts[over].T, flat[over]))]
    key[over] = np.random.default_rng(seed).random(len(over))
    order = np.lexsort((key, flat))
    first = np.cumsum(counts) - counts
    offsets = pts[order]
    offsets[:, :3] -= spec.mins + (idx[order] + 0.5) * vsize
    rank = np.arange(len(pts)) - np.repeat(first, counts)
    voxel = np.repeat(np.arange(len(counts)), counts)
    points = np.zeros((len(counts), cap, 4))
    fits = rank < cap
    points[voxel[fits], rank[fits]] = offsets[fits]
    return VoxelGrid(spec, idx[order[first]], points, np.minimum(counts, cap))


def to_dense(grid: VoxelGrid) -> np.ndarray:
    """(V, cap, 4) encoder input of the occupied voxels, spare slots zero."""
    return grid.points


def slot_counts(grid: VoxelGrid) -> np.ndarray:
    """(V,) stored-point count per occupied voxel."""
    return grid.stored


# ------------------------------------------------------------- binary dump
# Header: magic, version, dims (3 x u32), range (6 x f64), voxel size
# (3 x f64), cap (u32), record count (u64). Records: index (3 x u32),
# n (u32), then n * 4 f64 point values.
def dump_grid(path, grid: VoxelGrid) -> None:
    spec = grid.spec
    with open(path, "wb") as f:
        f.write(_DUMP_MAGIC)
        f.write(struct.pack("<I", _DUMP_VERSION))
        f.write(struct.pack("<3I", *grid.dims))
        flat_range = [v for pair in spec.axis_range for v in pair]
        f.write(struct.pack("<6d", *flat_range))
        f.write(struct.pack("<3d", *spec.voxel_size))
        f.write(struct.pack("<I", spec.max_points_per_voxel))
        f.write(struct.pack("<Q", len(grid.coords)))
        for key, n, pts in zip(grid.coords, grid.stored, grid.points):
            f.write(struct.pack("<3I", *key))
            f.write(struct.pack("<I", n))
            f.write(pts[:n].astype("<f8").tobytes())


def load_grid(path) -> VoxelGrid:
    """Read a dump_grid file; raises ValueError on a file that is not a
    whole, consistent dump."""
    raw = Path(path).read_bytes()
    if raw[:4] != _DUMP_MAGIC:
        raise ValueError("not a voxel grid dump")
    try:
        off = 4
        (version,) = struct.unpack_from("<I", raw, off); off += 4
        if version != _DUMP_VERSION:
            raise ValueError(f"unsupported dump version {version}")
        dims = struct.unpack_from("<3I", raw, off); off += 12
        rng_vals = struct.unpack_from("<6d", raw, off); off += 48
        vsize = struct.unpack_from("<3d", raw, off); off += 24
        (cap,) = struct.unpack_from("<I", raw, off); off += 4
        (n_rec,) = struct.unpack_from("<Q", raw, off); off += 8
        if n_rec * 16 > len(raw) - off:      # a record takes at least 16 bytes
            raise ValueError(f"{path}: voxel grid dump is cut short: its header "
                             f"counts {n_rec} voxels")
        try:
            spec = VoxelSpec(tuple((rng_vals[2 * i], rng_vals[2 * i + 1]) for i in range(3)),
                             tuple(vsize), cap)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        if spec.dims != dims:
            raise ValueError(f"{path}: header dims {dims} disagree with the range and "
                             f"voxel size, which give {spec.dims}")
        coords = np.zeros((n_rec, 3), dtype=np.int64)
        points = np.zeros((n_rec, cap, 4))
        stored = np.zeros(n_rec, dtype=np.int64)
        for v in range(n_rec):
            key = struct.unpack_from("<3I", raw, off); off += 12
            (n,) = struct.unpack_from("<I", raw, off); off += 4
            if any(k >= d for k, d in zip(key, dims)) or not 1 <= n <= cap:
                raise ValueError(f"{path}: record {v} holds index {key} and {n} points; "
                                 f"dims are {dims}, cap is {cap}")
            coords[v] = key
            points[v, :n] = np.reshape(struct.unpack_from(f"<{n * 4}d", raw, off), (n, 4))
            off += n * 32
            stored[v] = n
    except struct.error:
        raise ValueError(f"{path}: voxel grid dump is cut short") from None
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} bytes follow the last of {n_rec} records")
    return VoxelGrid(spec, coords, points, stored)
