"""Per-proposal box features for the refinement stage: crop points near
the proposal, canonize them into its frame, and pair each with the
backbone feature of its BEV cell."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import EmptyProposal
from .geometry import Box3D
from .kitti import PointCloud
from .voxels import VoxelSpec

DEFAULT_MARGIN = 0.3  # meters of context kept around the proposal


@dataclass
class BoxFeature:
    coords: np.ndarray     # (N, 3) canonized point coordinates, proposal frame
    feats: np.ndarray      # (N, C_F) indexed backbone features
    proposal: Box3D
    score: float


def crop_points(pc: PointCloud, proposal: Box3D, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """Points within the proposal expanded by margin; preserves input order."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    return pc.points[geometry.points_in_box(pc.points, proposal, margin)]


def lookup_feature(point_xy, feature_map: np.ndarray, world_extent, world_origin) -> np.ndarray:
    """Feature vector of the BEV cell containing (x, y).

    feature_map: (C_F, L_F, W_F) with axes (channel, x-cells, y-cells);
    world_extent = (L, W) meters; coordinates are shifted to the crop
    origin first; indices clamp to the valid range.
    """
    c_f, l_f, w_f = feature_map.shape
    x = point_xy[0] - world_origin[0]
    y = point_xy[1] - world_origin[1]
    ix = min(max(int(np.floor(x * l_f / world_extent[0])), 0), l_f - 1)
    iy = min(max(int(np.floor(y * w_f / world_extent[1])), 0), w_f - 1)
    return feature_map[:, ix, iy]


def lookup_features(points_xy: np.ndarray, feature_map: np.ndarray,
                    world_extent, world_origin) -> np.ndarray:
    """Vectorized lookup_feature over (N, 2) points -> (N, C_F)."""
    c_f, l_f, w_f = feature_map.shape
    rel = np.asarray(points_xy, dtype=np.float64) - np.asarray(world_origin, dtype=np.float64)
    ix = np.clip(np.floor(rel[:, 0] * l_f / world_extent[0]).astype(np.int64), 0, l_f - 1)
    iy = np.clip(np.floor(rel[:, 1] * w_f / world_extent[1]).astype(np.int64), 0, w_f - 1)
    return feature_map[:, ix, iy].T


def build_box_feature(pc: PointCloud, feature_map: np.ndarray, proposal: Box3D,
                      score: float, spec: VoxelSpec,
                      margin: float = DEFAULT_MARGIN) -> BoxFeature:
    """Crop, canonize, and attach backbone features; raises EmptyProposal
    when no point survives the crop.

    feature_map spans the BEV extent of the voxel grid of spec.
    """
    pts = crop_points(pc, proposal, margin)
    if len(pts) == 0:
        raise EmptyProposal("no points within margin of proposal")
    coords = geometry.canonize_points(proposal, pts[:, :3])
    (x0, x1), (y0, y1), _ = spec.axis_range
    feats = lookup_features(pts[:, :2], feature_map, (x1 - x0, y1 - y0), (x0, y0))
    return BoxFeature(coords, feats, proposal, score)
