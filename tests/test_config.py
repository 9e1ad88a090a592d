import math

import numpy as np
import pytest

from fastpoint.config import (AnchorParams, ConfigError, PipelineConfig,
                              config_from_dict, load_config, save_config,
                              toy_config)


def test_default_config_matches_reference_geometry():
    cfg = PipelineConfig()
    spec = cfg.voxel_spec()
    assert spec.dims == (704, 800, 20)
    assert cfg.map_dims() == (200, 176)


def test_default_anchor_iou_bands():
    cfg = PipelineConfig()
    assert cfg.anchors.pos_iou == 0.6
    assert cfg.anchors.neg_iou == 0.45
    assert cfg.post.refiner_pos_iou == 0.5
    assert cfg.post.nms_iou == 0.1
    assert cfg.post.top_k == 30
    assert cfg.post.crop_margin == 0.3


def test_anchor_spec_converts_degrees():
    spec = AnchorParams(angles_deg=(0.0, 90.0)).spec()
    assert spec.angles == pytest.approx((0.0, math.pi / 2))


def test_toy_config_validates_and_is_small():
    cfg = toy_config()
    nx, ny, nz = cfg.voxel_spec().dims
    assert (nx, ny, nz) == (64, 64, 20)
    assert cfg.map_dims() == (16, 16)
    assert cfg.net.width_mult < 1.0


def test_refiner_config_template_matches_anchor_corners():
    from fastpoint.geometry import Box3D, corners_3d

    cfg = toy_config()
    rc = cfg.refiner_config()
    l, w, h = cfg.anchors.sizes[0]
    want = corners_3d(Box3D(0, 0, 0, l, w, h, 0)).ravel()
    assert np.allclose(rc.corner_template, want)
    assert rc.norm == "none"


def test_yaml_roundtrip(tmp_path):
    cfg = toy_config()
    p = tmp_path / "cfg.yaml"
    save_config(cfg, p)
    back = load_config(p)
    assert back == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"anchors": {"no_such_field": 1}})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="sed"):
        config_from_dict({"sed": 3})


def test_unread_knobs_rejected():
    for raw in ({"split_file": "train.txt"}, {"augment": {"enabled": True}},
                {"net": {"num_classes": 3}}):
        with pytest.raises(ConfigError):
            config_from_dict(raw)


def test_top_level_keys_override_defaults():
    cfg = config_from_dict({"max_points_per_voxel": 4, "seed": 9, "data_dir": "d"})
    assert (cfg.max_points_per_voxel, cfg.seed, cfg.data_dir) == (4, 9, "d")
    assert cfg.voxel_range == PipelineConfig().voxel_range


def test_inconsistent_grid_rejected():
    # 30 voxels along x is not a multiple of the network output stride
    with pytest.raises(ConfigError):
        config_from_dict({"voxel_range": [[0.0, 6.0], [-6.4, 6.4], [-3.0, 1.0]],
                          "voxel_size": [0.2, 0.2, 0.2]})


def test_bad_iou_band_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"anchors": {"pos_iou": 0.4, "neg_iou": 0.45}})


def test_lists_become_tuples():
    cfg = config_from_dict({"anchors": {"sizes": [[3.9, 1.7, 1.56]]}})
    assert cfg.anchors.sizes == ((3.9, 1.7, 1.56),)


def test_empty_yaml_gives_defaults(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    assert load_config(p) == PipelineConfig()
