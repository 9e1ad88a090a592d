import numpy as np
import pytest

from fastpoint import geometry
from fastpoint.geometry import Box3D
from fastpoint.errors import EmptyProposal
from fastpoint.kitti import PointCloud
from fastpoint.refiner_features import (BoxFeature, build_box_feature, crop_points,
                                        lookup_feature, lookup_features)
from fastpoint.voxels import VoxelSpec


def spec(x, y):
    """Voxel spec whose BEV extent is the rectangle x[0]..x[1] by y[0]..y[1]."""
    return VoxelSpec((x, y, (-3.0, 1.0)), (0.2, 0.2, 0.2), 6)


def cloud(*rows):
    return PointCloud(np.array(rows, dtype=float))


def test_crop_keeps_interior_and_margin_band():
    box = Box3D(0, 0, 0, 2, 2, 2, 0)
    pc = cloud([0, 0, 0, 0.1],        # inside
               [1.2, 0, 0, 0.2],      # inside margin band
               [1.4, 0, 0, 0.3],      # outside margin
               [0, 0, 1.25, 0.4])     # vertical margin band
    out = crop_points(pc, box, margin=0.3)
    assert np.allclose(out[:, 3], [0.1, 0.2, 0.4])


def test_crop_respects_rotation():
    box = Box3D(0, 0, 0, 4, 1, 1, np.pi / 2)   # long axis along y
    pc = cloud([0, 1.8, 0, 0.1], [1.8, 0, 0, 0.2])
    out = crop_points(pc, box, margin=0.0)
    assert np.allclose(out[:, 3], [0.1])


def test_crop_rejects_negative_margin():
    with pytest.raises(ValueError):
        crop_points(cloud([0, 0, 0, 0]), Box3D(0, 0, 0, 1, 1, 1, 0), margin=-0.1)


def test_lookup_feature_cell_indexing():
    # 70.4 m extent over 176 cells: x = 35.2 m lands in cell 88
    fmap = np.zeros((2, 176, 200))
    fmap[:, 88, 100] = [3.0, 4.0]
    got = lookup_feature((35.2, 0.0), fmap, world_extent=(70.4, 80.0),
                         world_origin=(0.0, -40.0))
    assert np.allclose(got, [3.0, 4.0])


def test_lookup_feature_clamps_to_edges():
    fmap = np.arange(12, dtype=float).reshape(1, 3, 4)
    lo = lookup_feature((-5.0, -5.0), fmap, (3.0, 4.0), (0.0, 0.0))
    hi = lookup_feature((99.0, 99.0), fmap, (3.0, 4.0), (0.0, 0.0))
    assert lo[0] == fmap[0, 0, 0]
    assert hi[0] == fmap[0, 2, 3]


def test_lookup_features_matches_scalar():
    rng = np.random.default_rng(0)
    fmap = rng.normal(size=(5, 8, 6))
    pts = rng.uniform([0, 0], [16.0, 12.0], size=(40, 2))
    batch = lookup_features(pts, fmap, (16.0, 12.0), (0.0, 0.0))
    for i in range(40):
        assert np.allclose(batch[i], lookup_feature(pts[i], fmap, (16.0, 12.0), (0.0, 0.0)))


def test_build_box_feature_canonizes_coords():
    box = Box3D(2, 1, 0, 2, 2, 2, np.pi / 2)
    pc = cloud([2, 1, 0, 0.5], [2, 1.5, 0.2, 0.6])
    fmap = np.ones((3, 4, 4))
    bf = build_box_feature(pc, fmap, box, 0.9, spec((0.0, 8.0), (-4.0, 4.0)))
    assert isinstance(bf, BoxFeature)
    assert bf.coords.shape == (2, 3) and bf.feats.shape == (2, 3)
    assert np.allclose(bf.coords[0], [0, 0, 0], atol=1e-12)
    # +y world offset appears along the proposal's rotated x axis
    assert np.allclose(bf.coords[1], [0.5, 0.0, 0.2], atol=1e-12)
    assert bf.score == 0.9


def test_build_box_feature_empty_raises():
    pc = cloud([50, 50, 0, 0.1])
    with pytest.raises(EmptyProposal):
        build_box_feature(pc, np.ones((2, 4, 4)), Box3D(0, 0, 0, 1, 1, 1, 0),
                          0.5, spec((0.0, 8.0), (-4.0, 4.0)))


def test_feature_lookup_uses_world_position_of_points():
    # two points in different cells pick up different features
    fmap = np.zeros((1, 4, 4))
    fmap[0, 0, 0] = 1.0
    fmap[0, 3, 3] = 2.0
    pc = cloud([0.5, 0.5, 0, 0], [3.5, 3.5, 0, 0])
    box = Box3D(2, 2, 0, 6, 6, 2, 0)
    bf = build_box_feature(pc, fmap, box, 1.0, spec((0.0, 4.0), (0.0, 4.0)))
    assert bf.feats[:, 0].tolist() == [1.0, 2.0]


def test_build_box_feature_maps_the_voxel_range_onto_the_feature_map():
    # a 4 x 4 map over x 10..18, y -6..2: cells are 2 m wide from the range's corner
    fmap = np.arange(16, dtype=float).reshape(1, 4, 4)
    pc = cloud([10.5, -5.5, 0, 0], [17.5, 1.5, 0, 0], [13.0, -1.0, 0, 0])
    bf = build_box_feature(pc, fmap, Box3D(14, -2, 0, 10, 10, 2, 0), 1.0,
                           spec((10.0, 18.0), (-6.0, 2.0)))
    assert bf.feats[:, 0].tolist() == [fmap[0, 0, 0], fmap[0, 3, 3], fmap[0, 1, 2]]
