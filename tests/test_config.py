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


def test_section_that_is_not_a_mapping_rejected():
    with pytest.raises(ConfigError, match="'net'"):
        config_from_dict({"net": 5})
    with pytest.raises(ConfigError, match="top level"):
        config_from_dict([1, 2])


def test_unread_knobs_rejected():
    for raw in ({"split_file": "train.txt"}, {"augment": {"enabled": True}},
                {"net": {"num_classes": 3}}, {"net": {"attention": "vector"}},
                {"net": {"refiner_norm": "none"}}):
        with pytest.raises(ConfigError):
            config_from_dict(raw)


@pytest.mark.parametrize("raw, match", [
    ({"voxel_size": [0.2, 0.2]}, "voxel_size .* three axes"),
    ({"voxel_size": [0.2, 0.2, 0.2, 0.2]}, "voxel_size .* three axes"),
    ({"voxel_range": [[0.0, 12.8], [-6.4, 6.4]]}, "axis_range .* three axes"),
    ({"voxel_range": [[0.0, 70.4], [-40.0, 40.0], [-3.0, math.inf]]}, "z range .* finite"),
    ({"max_points_per_voxel": 2.5}, "max_points_per_voxel 2.5"),
    ({"anchors": {"sizes": [[3.9, 0.0, 1.56]]}}, "anchor size 0 .* positive"),
    ({"anchors": {"sizes": [[3.9, math.nan, 1.56]]}}, "anchor size 0 .* finite"),
], ids=["two voxel sizes", "four voxel sizes", "two ranges", "infinite bound",
        "fractional cap", "zero anchor size", "nan anchor size"])
def test_impossible_geometry_rejected_when_the_config_is_built(raw, match):
    with pytest.raises(ValueError, match=match):
        config_from_dict(raw)


@pytest.mark.parametrize("raw, match", [
    ({"post": {"crop_margin": -0.5}}, "post.crop_margin -0.5"),
    ({"post": {"top_k": -1}}, "post.top_k -1 .* integer"),
    ({"post": {"top_k": 2.5}}, "post.top_k 2.5 .* integer"),
    ({"post": {"nms_iou": 1.5}}, "post.nms_iou 1.5"),
    ({"post": {"score_thresh": math.nan}}, "post.score_thresh nan"),
    ({"post": {"refiner_pos_iou": 2.0}}, "post.refiner_pos_iou 2.0"),
    ({"net": {"refiner_pointnet": []}}, "PointNet needs at least one layer"),
    ({"net": {"refiner_head": [64, 0]}}, "refiner widths .* integers >= 1"),
], ids=["negative margin", "negative top_k", "fractional top_k", "nms iou above 1",
        "nan score threshold", "refiner iou above 1", "no PointNet layer", "zero head width"])
def test_unusable_post_and_refiner_settings_rejected_when_the_config_is_built(raw, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)


@pytest.mark.parametrize("raw, match", [
    ({"train": {"rpn_epochs": 2.5}}, "train.rpn_epochs 2.5 .* integer >= 0"),
    ({"train": {"rpn_epochs": -2}}, "train.rpn_epochs -2 .* integer >= 0"),
    ({"train": {"refiner_jitter": -1}}, "train.refiner_jitter -1 .* integer >= 0"),
    ({"train": {"lr": math.nan}}, "train.lr nan .* finite and > 0"),
    ({"net": {"encoder_channels": -3}}, "net.encoder_channels -3 .* integer >= 1"),
    ({"net": {"encoder_channels": 0}}, "net.encoder_channels 0 .* integer >= 1"),
    ({"net": {"width_mult": math.nan}}, "net.width_mult nan .* finite and > 0"),
    ({"net": {"width_mult": math.inf}}, "net.width_mult inf .* finite and > 0"),
    ({"anchors": {"sizes": []}}, "anchors.sizes must not be empty"),
    ({"anchors": {"angles_deg": []}}, "anchors.angles_deg must not be empty"),
    ({"seed": 1.5}, "seed 1.5 .* integer >= 0"),
    ({"seed": -1}, "seed -1 .* integer >= 0"),
    ({"synthetic": {"n_objects": [3, 1]}}, r"synthetic.n_objects \(3, 1\) .* low <= high"),
], ids=["fractional epochs", "negative epochs", "negative jitter", "nan lr",
        "negative encoder width", "zero encoder width", "nan width", "infinite width",
        "no anchor size", "no anchor angle", "fractional seed", "negative seed",
        "object range reversed"])
def test_unusable_training_net_and_scene_settings_rejected_when_the_config_loads(raw, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)


@pytest.mark.parametrize("raw, match", [
    ({"loss": {"gamma": -1}}, r"loss.gamma -1 must be finite and > 0"),
    ({"loss": {"ohem_keep": 0}}, r"loss.ohem_keep 0 must be an integer >= 1"),
    ({"loss": {"ohem_keep": 2.5}}, r"loss.ohem_keep 2.5 must be an integer >= 1"),
    ({"loss": {"sigma": math.nan}}, r"loss.sigma nan must be finite and > 0"),
    ({"anchors": {"sizes": [[1, 2]]}}, r"anchor size 0 \(1, 2\) of sizes must be three"),
    ({"anchors": {"angles_deg": [0, 180]}},
     r"anchors.angles_deg \(0, 180\) must be distinct modulo 180 degrees: 0 and 180 coincide"),
    ({"voxel_size": [0, 0.1, 0.1]}, r"x voxel size 0 of voxel_size must be positive"),
    ({"max_points_per_voxel": 0}, r"max_points_per_voxel 0 must be an integer >= 1"),
    ({"voxel_range": [[0.0, 12.8], [-6.4, 6.4]]}, r"axis_range .* must have three axes"),
], ids=["negative gamma", "zero ohem_keep", "fractional ohem_keep", "nan sigma",
        "two-entry anchor size", "anchor angles equal modulo pi", "zero voxel size",
        "zero voxel cap", "two-axis voxel range"])
def test_loss_anchor_and_voxel_settings_raise_config_errors_naming_the_field(raw, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)


@pytest.mark.parametrize("angles, pair", [
    ([0, 180], "0 and 180"),
    ([0, 179.99999999999], "0 and 179.99999999999"),
    ([0, 180.00000000001], "0 and 180.00000000001"),
    ([45, 90, -135], "45 and -135"),
    ([10, 370], "10 and 370"),
], ids=["half turn", "just short of a half turn", "just past a half turn", "negative",
        "full turn"])
def test_anchor_angles_equal_modulo_a_half_turn_rejected_in_degrees(angles, pair):
    with pytest.raises(ConfigError, match=rf"anchors.angles_deg \(.*\) must be distinct modulo "
                                          rf"180 degrees: {pair} coincide"):
        config_from_dict({"anchors": {"angles_deg": angles}})


@pytest.mark.parametrize("angles", [[0, math.nan], [math.inf], "0, 90"],
                         ids=["nan", "inf", "not a list"])
def test_anchor_angles_must_be_a_list_of_finite_degrees(angles):
    with pytest.raises(ConfigError, match=r"anchors.angles_deg .* must be a list of finite"):
        config_from_dict({"anchors": {"angles_deg": angles}})


def test_anchor_angles_a_hair_apart_from_a_half_turn_still_load():
    # 1e-6 degrees is ~1.7e-8 radians, above the 1e-9 radian tolerance
    assert len(config_from_dict({"anchors": {"angles_deg": [0, 179.999999]}})
               .anchors.spec().angles) == 2


@pytest.mark.parametrize("raw, match", [
    ({"augment": {"flip_prob": 2.0}}, r"augment.flip_prob 2.0 must be in \[0, 1\]"),
    ({"augment": {"mixup_objects": -3}}, r"augment.mixup_objects -3 must be an integer >= 0"),
    ({"augment": {"mixup_objects": 1.5}}, r"augment.mixup_objects 1.5 must be an integer >= 0"),
    ({"augment": {"scale_range": [1.2, 0.8]}},
     r"augment.scale_range \(1.2, 0.8\) must be two finite values 0 < low <= high"),
    ({"augment": {"scale_range": [0.0, 1.1]}}, r"augment.scale_range \(0.0, 1.1\)"),
    ({"augment": {"scale_range": [0.9]}}, r"augment.scale_range \(0.9,\)"),
    ({"augment": {"global_rot_deg": math.nan}}, r"augment.global_rot_deg nan must be finite"),
    ({"augment": {"object_rot_deg": -5.0}}, r"augment.object_rot_deg -5.0 must be finite and >= 0"),
    ({"anchors": {"pos_iou": 2.0, "neg_iou": 1.5}}, r"anchors.pos_iou 2.0 must be in \(0, 1\]"),
    ({"anchors": {"pos_iou": 0.0, "neg_iou": -0.5}}, r"anchors.pos_iou 0.0 must be in \(0, 1\]"),
    ({"anchors": {"neg_iou": 1.0}}, r"anchors.neg_iou 1.0 must be in \[0, 1\)"),
    ({"anchors": {"z_center": math.nan}}, r"anchors.z_center nan must be finite"),
], ids=["flip_prob above 1", "negative mixup", "fractional mixup", "scale range reversed",
        "zero scale", "one scale", "nan global rotation", "negative object rotation",
        "iou above 1", "zero pos iou", "neg iou of 1", "nan anchor height"])
def test_unusable_augment_and_anchor_settings_rejected_when_the_config_loads(raw, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)


def test_zero_epochs_scenes_and_jitter_load():
    cfg = config_from_dict({"train": {"rpn_epochs": 0, "refiner_epochs": 0,
                                      "refiner_jitter": 0},
                            "synthetic": {"n_scenes": 0}})
    assert (cfg.train.rpn_epochs, cfg.synthetic.n_scenes) == (0, 0)


@pytest.mark.parametrize("raw, match", [
    ({"train": {"optimizer": "adam"}}, r"unknown TrainParams keys: \['optimizer'\]"),
    ({"data_dir": "d"}, r"unknown PipelineConfig keys: \['data_dir'\]"),
], ids=["train.optimizer", "data_dir"])
def test_removed_keys_are_unknown(raw, match):
    # training always runs Adam, and `ingest --data` names the dataset root
    with pytest.raises(ConfigError, match=match):
        config_from_dict(raw)


@pytest.mark.parametrize("field", ["gamma", "sigma"])
def test_nan_loss_weight_rejected_when_the_config_loads(field):
    with pytest.raises(ConfigError, match=f"loss.{field} nan must be finite and > 0"):
        config_from_dict({"loss": {field: math.nan}})


def test_top_level_keys_override_defaults():
    cfg = config_from_dict({"max_points_per_voxel": 4, "seed": 9})
    assert (cfg.max_points_per_voxel, cfg.seed) == (4, 9)
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
