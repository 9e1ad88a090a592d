import numpy as np
import pytest

from fastpoint import refiner_features as rf

from fastpoint.geometry import Box3D, points_in_box
from fastpoint.errors import EmptyProposal
from fastpoint.kitti import PointCloud
from fastpoint.refiner_features import (BoxFeature, build_box_feature, cell_index,
                                        stack_features)
from fastpoint.voxels import VoxelSpec


def spec(x, y):
    """Voxel spec whose BEV extent is the rectangle x[0]..x[1] by y[0]..y[1]."""
    return VoxelSpec((x, y, (-3.0, 1.0)), (0.2, 0.2, 0.2), 6)


def cloud(*rows):
    return PointCloud(np.array(rows, dtype=float))


def lookup_feature(point_xy, feature_map, world_extent, world_origin):
    """Reference for one point's feature row: the feature of the one BEV cell
    that contains (x, y), indices clamped to the map."""
    c_f, l_f, w_f = feature_map.shape
    x = point_xy[0] - world_origin[0]
    y = point_xy[1] - world_origin[1]
    ix = min(max(int(np.floor(x * l_f / world_extent[0])), 0), l_f - 1)
    iy = min(max(int(np.floor(y * w_f / world_extent[1])), 0), w_f - 1)
    return feature_map[:, ix, iy]


def test_crop_keeps_interior_and_margin_band():
    box = Box3D(0, 0, 0, 2, 2, 2, 0)
    pc = cloud([0, 0, 0, 0.1],        # inside
               [1.2, 0, 0, 0.2],      # inside margin band
               [1.4, 0, 0, 0.3],      # outside margin
               [0, 0, 1.25, 0.4])     # vertical margin band
    mask = points_in_box(pc.points, box, margin=0.3)
    assert np.allclose(pc.points[mask, 3], [0.1, 0.2, 0.4])


def test_crop_respects_rotation():
    box = Box3D(0, 0, 0, 4, 1, 1, np.pi / 2)   # long axis along y
    pc = cloud([0, 1.8, 0, 0.1], [1.8, 0, 0, 0.2])
    mask = points_in_box(pc.points, box, margin=0.0)
    assert np.allclose(pc.points[mask, 3], [0.1])


def test_crop_rejects_negative_margin():
    with pytest.raises(ValueError):
        build_box_feature(cloud([0, 0, 0, 0]), np.zeros((2, 4, 4)), Box3D(0, 0, 0, 1, 1, 1, 0),
                          spec((-2.0, 2.0), (-2.0, 2.0)), margin=-0.1)


def lookup_features(points_xy, feature_map, world_extent, world_origin):
    """Reference for feats[cells]: each point's own feature row, (N, C_F)."""
    c_f, l_f, w_f = feature_map.shape
    rel = np.asarray(points_xy, dtype=np.float64) - np.asarray(world_origin, dtype=np.float64)
    ix = np.clip(np.floor(rel[:, 0] * l_f / world_extent[0]).astype(np.int64), 0, l_f - 1)
    iy = np.clip(np.floor(rel[:, 1] * w_f / world_extent[1]).astype(np.int64), 0, w_f - 1)
    return feature_map[:, ix, iy].T


def test_cell_index_of_a_point():
    # 70.4 m extent over 176 cells: x = 35.2 m lands in cell 88
    got = cell_index(np.array([[35.2, 0.0]]), (176, 200), world_extent=(70.4, 80.0),
                     world_origin=(0.0, -40.0))
    assert got.tolist() == [88 * 200 + 100]


def test_cell_index_clamps_to_edges():
    got = cell_index(np.array([[-5.0, -5.0], [99.0, 99.0]]), (3, 4), (3.0, 4.0), (0.0, 0.0))
    assert got.tolist() == [0, 2 * 4 + 3]


def test_cell_index_matches_scalar_lookup():
    rng = np.random.default_rng(0)
    fmap = rng.normal(size=(5, 8, 6))
    pts = rng.uniform([-2.0, -2.0], [18.0, 14.0], size=(40, 2))
    cells = cell_index(pts, (8, 6), (16.0, 12.0), (0.0, 0.0))
    for i in range(40):
        want = lookup_feature(pts[i], fmap, (16.0, 12.0), (0.0, 0.0))
        assert fmap.reshape(5, -1)[:, cells[i]].tobytes() == want.tobytes()


def test_build_box_feature_holds_one_row_per_distinct_cell():
    rng = np.random.default_rng(1)
    fmap = rng.normal(size=(4, 8, 8))
    pc = PointCloud(np.column_stack([rng.uniform(0.0, 8.0, (300, 2)),
                                     rng.uniform(-1.0, 1.0, (300, 2))]))
    sp = spec((0.0, 8.0), (0.0, 8.0))
    bf = build_box_feature(pc, fmap, Box3D(4.0, 4.0, 0.0, 3.0, 2.0, 2.0, 0.7), sp, 0.3)
    pts = pc.points[points_in_box(pc.points, Box3D(4.0, 4.0, 0.0, 3.0, 2.0, 2.0, 0.7), 0.3)]
    want = lookup_features(pts[:, :2], fmap, (8.0, 8.0), (0.0, 0.0))
    assert bf.feats[bf.cells].tobytes() == want.tobytes()
    assert bf.cells.shape == (len(pts),) and bf.feats.shape[1] == 4
    assert len(np.unique(want, axis=0)) == len(bf.feats) < len(pts)
    assert np.array_equal(np.unique(bf.cells), np.arange(len(bf.feats)))


def test_build_box_feature_canonizes_coords():
    box = Box3D(2, 1, 0, 2, 2, 2, np.pi / 2)
    pc = cloud([2, 1, 0, 0.5], [2, 1.5, 0.2, 0.6])
    fmap = np.ones((3, 4, 4))
    bf = build_box_feature(pc, fmap, box, spec((0.0, 8.0), (-4.0, 4.0)), 0.3)
    assert isinstance(bf, BoxFeature)
    assert bf.coords.shape == (2, 3) and bf.feats[bf.cells].shape == (2, 3)
    assert np.allclose(bf.coords[0], [0, 0, 0], atol=1e-12)
    # +y world offset appears along the proposal's rotated x axis
    assert np.allclose(bf.coords[1], [0.5, 0.0, 0.2], atol=1e-12)


def test_build_box_feature_empty_raises():
    pc = cloud([50, 50, 0, 0.1])
    with pytest.raises(EmptyProposal):
        build_box_feature(pc, np.ones((2, 4, 4)), Box3D(0, 0, 0, 1, 1, 1, 0),
                          spec((0.0, 8.0), (-4.0, 4.0)), 0.3)


def test_feature_lookup_uses_world_position_of_points():
    # two points in different cells pick up different features
    fmap = np.zeros((1, 4, 4))
    fmap[0, 0, 0] = 1.0
    fmap[0, 3, 3] = 2.0
    pc = cloud([0.5, 0.5, 0, 0], [3.5, 3.5, 0, 0])
    box = Box3D(2, 2, 0, 6, 6, 2, 0)
    bf = build_box_feature(pc, fmap, box, spec((0.0, 4.0), (0.0, 4.0)), 0.3)
    assert bf.feats[bf.cells, 0].tolist() == [1.0, 2.0]


def test_build_box_feature_maps_the_voxel_range_onto_the_feature_map():
    # a 4 x 4 map over x 10..18, y -6..2: cells are 2 m wide from the range's corner
    fmap = np.arange(16, dtype=float).reshape(1, 4, 4)
    pc = cloud([10.5, -5.5, 0, 0], [17.5, 1.5, 0, 0], [13.0, -1.0, 0, 0])
    bf = build_box_feature(pc, fmap, Box3D(14, -2, 0, 10, 10, 2, 0),
                           spec((10.0, 18.0), (-6.0, 2.0)), 0.3)
    assert bf.feats[bf.cells, 0].tolist() == [fmap[0, 0, 0], fmap[0, 3, 3], fmap[0, 1, 2]]


def test_refiner_features_batches_the_boxes_whose_crop_holds_points(monkeypatch):
    rng = np.random.default_rng(2)
    fmap = rng.normal(size=(3, 8, 8))
    pc = PointCloud(np.column_stack([rng.uniform(0.0, 8.0, (200, 2)),
                                     rng.uniform(-1.0, 1.0, (200, 2))]))
    sp = spec((0.0, 8.0), (0.0, 8.0))
    boxes = [Box3D(2.0, 2.0, 0.0, 2.0, 1.0, 2.0, 0.3), Box3D(50.0, 50.0, 0.0, 1.0, 1.0, 1.0, 0.0),
             Box3D(6.0, 5.0, 0.0, 3.0, 2.0, 2.0, -1.1), Box3D(4.0, 4.0, 9.0, 1.0, 1.0, 1.0, 0.0)]
    # the crops run through the module's build_box_feature, where a tracer wraps it
    calls = []
    monkeypatch.setattr(rf, "build_box_feature",
                        lambda *a: calls.append(a[2]) or build_box_feature(*a))
    batch, kept = rf.refiner_features(pc, fmap, boxes, sp, 0.3)
    assert calls == boxes and kept == [0, 2]
    want = stack_features([build_box_feature(pc, fmap, boxes[i], sp, 0.3) for i in kept])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(batch, want))
    assert rf.refiner_features(pc, fmap, boxes[1::2], sp, 0.3) == (None, [])
