"""Each error that several modules raise is one class, so a caller catches
it once whichever stage raised it."""

import numpy as np
import pytest

from fastpoint import losses, nn, postprocess
from fastpoint.anchors import build_anchor_grid
from fastpoint.autodiff import Tensor
from fastpoint.config import config_from_dict, toy_config
from fastpoint.errors import ConfigError, EmptyProposal, ShapeMismatch
from fastpoint.geometry import Box3D
from fastpoint.kitti import PointCloud
from fastpoint.refiner_features import build_box_feature
from fastpoint.voxels import VoxelSpec


def test_shape_mismatch_is_one_class():
    with pytest.raises(ShapeMismatch):
        nn.conv_nd(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 1, 1))),
                   Tensor(np.zeros(1)), (1, 1), (0, 0))
    with pytest.raises(ShapeMismatch):
        losses.corner_loss(Tensor(np.zeros(24)), np.zeros(23), 3.0)
    cfg = toy_config()
    anchors = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), cfg.voxel_spec())
    with pytest.raises(ShapeMismatch):
        postprocess.decode_detections(np.zeros((2, 4, 4)), np.zeros((4, 4, 4, 7)), anchors, 0.3)


def test_empty_proposal_is_one_class():
    refiner = nn.RefinerNet(nn.RefinerConfig(feature_channels=2, corner_template=(0.0,) * 24,
                                             coord_dim=4, pointnet=(4,), head=(4,)), seed=0)
    with pytest.raises(EmptyProposal):
        refiner.forward(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0, dtype=int), np.array([0]))
    spec = VoxelSpec(((0.0, 8.0), (-4.0, 4.0), (-3.0, 1.0)), (0.2, 0.2, 0.2), 6)
    with pytest.raises(EmptyProposal):
        build_box_feature(PointCloud(np.array([[5.0, 3.0, 0.0, 0.0]])), np.ones((2, 4, 4)),
                          Box3D(0, 0, 0, 1, 1, 1, 0), spec, 0.3)


def test_config_error_is_one_class():
    with pytest.raises(ConfigError):
        nn.RefinerConfig(feature_channels=2, corner_template=(0.0,) * 24, pointnet=())
    with pytest.raises(ConfigError):
        config_from_dict({"anchors": {"pos_iou": 0.4, "neg_iou": 0.45}})
