"""Per-proposal box features for the refinement stage: crop points near
the proposal, canonize them into its frame, and index each point's BEV cell
of the backbone feature map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import EmptyProposal
from .geometry import Box3D
from .kitti import PointCloud
from .voxels import VoxelSpec


@dataclass
class BoxFeature:
    coords: np.ndarray     # (N, 3) canonized point coordinates, proposal frame
    feats: np.ndarray      # (K, C_F) backbone features of the K distinct BEV cells of the points
    cells: np.ndarray      # (N,) row of feats that holds each point's cell


def cell_index(points_xy: np.ndarray, map_dims, world_extent, world_origin) -> np.ndarray:
    """Flat index ix * W_F + iy of the BEV cell of each of (N, 2) points -> (N,).

    map_dims = (L_F, W_F) cells along (x, y); world_extent = (L, W) meters;
    coordinates are shifted to the crop origin first; indices clamp to the
    valid range.
    """
    l_f, w_f = map_dims
    rel = np.asarray(points_xy, dtype=np.float64) - np.asarray(world_origin, dtype=np.float64)
    ix = np.clip(np.floor(rel[:, 0] * l_f / world_extent[0]).astype(np.int64), 0, l_f - 1)
    iy = np.clip(np.floor(rel[:, 1] * w_f / world_extent[1]).astype(np.int64), 0, w_f - 1)
    return ix * w_f + iy


def build_box_feature(pc: PointCloud, feature_map: np.ndarray, proposal: Box3D,
                      spec: VoxelSpec, margin: float) -> BoxFeature:
    """Crop the points within the proposal expanded by margin (meters of
    context, non-negative; input order kept), canonize them, and index
    backbone features: one row per distinct BEV cell, in cell order; raises
    EmptyProposal when no point survives the crop.

    feature_map: (C_F, L_F, W_F) with axes (channel, x-cells, y-cells),
    spanning the BEV extent of the voxel grid of spec.
    """
    pts = pc.points[geometry.points_in_box(pc.points, proposal, margin)]
    if len(pts) == 0:
        raise EmptyProposal("no points within margin of proposal")
    coords = geometry.canonize_points(proposal, pts[:, :3])
    (x0, x1), (y0, y1), _ = spec.axis_range
    c_f = feature_map.shape[0]
    flat = cell_index(pts[:, :2], feature_map.shape[1:], (x1 - x0, y1 - y0), (x0, y0))
    cells, rows = np.unique(flat, return_inverse=True)
    return BoxFeature(coords, feature_map.reshape(c_f, -1)[:, cells].T, rows)
