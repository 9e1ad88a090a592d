import numpy as np
import pytest

from fastpoint import cli
from fastpoint.config import load_config, save_config, toy_config
from fastpoint.errors import ConfigError
from fastpoint.nn import RefinerNet, VoxelRPN
from fastpoint.pipeline import infer_frame
from fastpoint.postprocess import write_detections
from fastpoint.synthetic import generate_dataset
from fastpoint.train import merge_parameters


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_dump_config_roundtrips(tmp_path, capsys):
    p = tmp_path / "toy.yaml"
    code, out = run(["dump-config", str(p)], capsys)
    assert code == 0 and p.exists()
    assert load_config(p) == toy_config()


def test_voxelize_synthetic_frame(tmp_path, capsys):
    code, out = run(["--out", str(tmp_path), "voxelize"], capsys)
    assert code == 0
    assert (tmp_path / "000000.voxels").exists()
    assert "occupied voxels" in out


def test_targets_summary(tmp_path, capsys):
    code, out = run(["--out", str(tmp_path), "targets", "--limit", "2"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("0000")]
    assert len(lines) == 2
    assert all("pos=" in ln and "neg=" in ln for ln in lines)


def test_infer_missing_checkpoint_exits_2(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path), "infer",
                     "--checkpoint", str(tmp_path / "nope.npz")])
    captured = capsys.readouterr()
    assert code == 2
    assert "checkpoint not found" in captured.err


def test_infer_skip_refiner_writes_proposals(tmp_path, capsys):
    cfg = toy_config()
    rpn = VoxelRPN(cfg.net_config(), seed=0)
    ckpt = tmp_path / "ckpt.npz"
    merge_parameters(rpn, RefinerNet(cfg.refiner_config(), seed=1)).save(ckpt)
    frame_id, pc, _ = generate_dataset(cfg.synthetic.scene_spec(cfg.voxel_range), 1,
                                       cfg.seed)[0]
    code, _ = run(["--out", str(tmp_path), "infer", "--checkpoint", str(ckpt),
                   "--frames", frame_id, "--skip-refiner"], capsys)
    assert code == 0
    write_detections(tmp_path / "want.txt", infer_frame(frame_id, pc, rpn, None, cfg).proposals)
    assert (tmp_path / f"{frame_id}.txt").read_text() == (tmp_path / "want.txt").read_text()


def test_eval_without_detections_reports_zero(tmp_path, capsys):
    dets = tmp_path / "dets"
    dets.mkdir()
    code, out = run(["--out", str(tmp_path), "eval", "--dets", str(dets),
                     "--iou", "0.5"], capsys)
    assert code == 0
    assert "3D 0.5 all all 0.000000" in out
    assert (tmp_path / "eval.txt").exists()


def test_augment_writes_scans(tmp_path, capsys):
    code, out = run(["--out", str(tmp_path), "augment", "--limit", "1"], capsys)
    assert code == 0
    assert (tmp_path / "000000.bin").exists()


def test_seed_override(tmp_path, capsys):
    a = run(["--seed", "1", "--out", str(tmp_path / "a"), "voxelize"], capsys)[1]
    b = run(["--seed", "2", "--out", str(tmp_path / "b"), "voxelize"], capsys)[1]
    # different seeds generate different synthetic scenes
    assert a.split(":")[1] != b.split(":")[1]


def test_selftest_passes(capsys):
    code, out = run(["selftest"], capsys)
    assert code == 0
    assert out.count("PASS") == 9 and "FAIL" not in out
    assert "PASS crop vs brute force" in out
    assert ("PASS conv_nd chunks vs one product, conv_nd and conv_voxels vs direct convolution"
            in out)
    assert ("PASS gradients of conv_nd, conv_voxels, deconv_nd, batchnorm_relu (train and "
            "eval) and the three losses vs finite differences" in out)


def test_negative_seed_flag_rejected():
    with pytest.raises(ConfigError, match="seed -1 must be an integer >= 0"):
        cli.main(["--seed", "-1", "targets"])


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_ingest_kitti_frame(tmp_path, capsys):
    from fastpoint import kitti
    from fastpoint.geometry import Box3D

    data = tmp_path / "data"
    for sub in ("velodyne", "label_2", "calib"):
        (data / sub).mkdir(parents=True)
    pts = np.array([[5.0, 0.0, -1.0, 0.5], [200.0, 0.0, 0.0, 0.1]])
    kitti.write_velodyne(data / "velodyne" / "000000.bin", kitti.PointCloud(pts))
    calib = kitti.Calibration(np.eye(3), np.hstack([np.eye(3), np.zeros((3, 1))]),
                              np.hstack([np.eye(3), np.zeros((3, 1))]))
    (data / "calib" / "000000.txt").write_text(
        "R0_rect: 1 0 0 0 1 0 0 0 1\n"
        "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n"
        "P2: 1 0 0 0 0 1 0 0 0 0 1 0\n")
    label = kitti.FrameLabel("Car", Box3D(5.0, 0.0, -1.0, 3.9, 1.7, 1.56, 0.2),
                             0.0, 0, np.array([0.0, 0.0, 100.0, 100.0]), 0.0)
    (data / "label_2" / "000000.txt").write_text(
        kitti.format_label_line(label, calib) + "\n")
    code, out = run(["ingest", "000000", "--data", str(data)], capsys)
    assert code == 0
    assert "2 points (1 in range)" in out
    assert "Car" in out


def test_train_toy_rejects_an_empty_training_set(tmp_path, capsys):
    cfg = toy_config()
    cfg.synthetic.n_scenes = 0
    p = tmp_path / "empty.yaml"
    save_config(cfg, p)
    with pytest.raises(ValueError, match="train_voxelrpn: no training frames"):
        cli.main(["--config", str(p), "--out", str(tmp_path), "train-toy"])


def test_train_toy_rejects_a_refiner_without_samples(tmp_path, capsys):
    # an untrained RPN proposes nothing near a gt, and there are no jittered copies
    cfg = toy_config()
    cfg.synthetic.n_scenes = 2
    cfg.train.rpn_epochs = 0
    cfg.train.refiner_jitter = 0
    p = tmp_path / "no_samples.yaml"
    save_config(cfg, p)
    with pytest.raises(ValueError, match="train_refiner: none of the 2 frames yields a sample"):
        cli.main(["--config", str(p), "--out", str(tmp_path), "train-toy"])
    assert not (tmp_path / "checkpoint.npz").exists()
