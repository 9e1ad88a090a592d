import math

import numpy as np
import pytest

from fastpoint import kitti
from fastpoint.kitti import (Calibration, FrameLabel, MalformedCalib, MalformedLabel,
                             PointCloud, TruncatedFile)


def make_label_line(cls="Car", trunc=0.0, occ=0, bbox=(300, 150, 400, 250),
                    hwl=(1.56, 1.7, 3.9), loc=(5.0, 1.5, 20.0), ry=0.3, score=None):
    parts = [cls, f"{trunc}", f"{occ}", "0.1", *map(str, bbox), *map(str, hwl),
             *map(str, loc), f"{ry}"]
    if score is not None:
        parts.append(str(score))
    return " ".join(parts)


def test_velodyne_roundtrip(tmp_path):
    pts = np.array([[1.5, -2.25, 0.5, 0.75], [10.0, 0.0, -1.0, 0.0]])
    p = tmp_path / "000000.bin"
    kitti.write_velodyne(p, PointCloud(pts))
    back = kitti.read_velodyne(p)
    assert np.allclose(back.points, pts)  # values chosen exactly representable


def test_velodyne_rejects_truncated_file(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * 20)
    with pytest.raises(TruncatedFile):
        kitti.read_velodyne(p)


def test_crop_to_range_half_open_and_order_preserving():
    pc = PointCloud(np.array([
        [0.0, 0.0, 0.0, 0.1],
        [9.999, 4.999, 0.999, 0.2],
        [10.0, 0.0, 0.0, 0.3],     # x == max excluded
        [5.0, -5.0, 0.0, 0.4],     # y == min included
        [-0.1, 0.0, 0.0, 0.5],
    ]))
    out = kitti.crop_to_range(pc, np.array([[0, 10], [-5, 5], [-1, 1]]))
    assert np.allclose(out.points[:, 3], [0.1, 0.2, 0.4])


def test_crop_rejects_empty_range():
    with pytest.raises(ValueError):
        kitti.crop_to_range(PointCloud(np.zeros((0, 4))), np.array([[1, 1], [0, 1], [0, 1]]))


def test_parse_label_identity_calib_geometry():
    calib = Calibration.identity()
    lab = kitti.parse_label_line(make_label_line(), calib)
    assert lab.cls == "Car"
    b = lab.box
    # identity calib: camera coords pass through; z center is bottom + h/2
    assert (b.x, b.y) == pytest.approx((5.0, 1.5))
    assert b.z == pytest.approx(20.0 + 1.56 / 2)
    assert (b.l, b.w, b.h) == pytest.approx((3.9, 1.7, 1.56))
    assert b.theta == pytest.approx(-0.3 - math.pi / 2)


def test_parse_label_roundtrip_through_format():
    calib = Calibration.identity()
    for line in (make_label_line(), make_label_line(cls="Pedestrian", ry=-2.0, score=0.7)):
        lab = kitti.parse_label_line(line, calib)
        again = kitti.parse_label_line(kitti.format_label_line(lab, calib), calib)
        assert again.cls == lab.cls
        assert np.allclose(again.box.as_array(), lab.box.as_array(), atol=1e-5)
        assert (again.score is None) == (lab.score is None)


def test_dontcare_has_no_box():
    lab = kitti.parse_label_line(
        "DontCare -1 -1 -10 500 160 550 180 -1 -1 -1 -1000 -1000 -1000 -10",
        Calibration.identity())
    assert lab.cls == "DontCare" and lab.box is None
    assert lab.difficulty == kitti.DIFFICULTY_IGNORED


def test_unknown_class_becomes_other():
    lab = kitti.parse_label_line(make_label_line(cls="Van"), Calibration.identity())
    assert lab.cls == "Other"


def test_malformed_label_field_count_and_numbers():
    with pytest.raises(MalformedLabel):
        kitti.parse_label_line("Car 1 2 3", Calibration.identity())
    bad = make_label_line().replace("3.9", "abc")
    with pytest.raises(MalformedLabel):
        kitti.parse_label_line(bad, Calibration.identity())


def test_difficulty_tiers():
    # tall box, unoccluded -> easy
    assert kitti.assign_difficulty(0.0, 0, (0, 0, 0, 50)) == kitti.DIFFICULTY_EASY
    # partially occluded -> moderate
    assert kitti.assign_difficulty(0.2, 1, (0, 0, 0, 50)) == kitti.DIFFICULTY_MODERATE
    # heavy occlusion -> hard
    assert kitti.assign_difficulty(0.4, 2, (0, 0, 0, 30)) == kitti.DIFFICULTY_HARD
    # too small on screen -> ignored
    assert kitti.assign_difficulty(0.0, 0, (0, 0, 0, 10)) == kitti.DIFFICULTY_IGNORED


def test_calibration_rejects_nonorthonormal_rotation():
    bad = np.eye(3) * 2.0
    with pytest.raises(MalformedCalib):
        Calibration(bad, np.hstack([np.eye(3), np.zeros((3, 1))]),
                    np.hstack([np.eye(3), np.zeros((3, 1))]))


def test_cam_lidar_transform_roundtrip():
    angle = 0.2
    rot = np.array([[math.cos(angle), -math.sin(angle), 0],
                    [math.sin(angle), math.cos(angle), 0],
                    [0, 0, 1]])
    calib = Calibration(rot, np.hstack([np.eye(3), np.array([[0.1], [0.2], [-0.3]])]),
                        np.hstack([np.eye(3), np.zeros((3, 1))]))
    pts = np.random.default_rng(0).normal(size=(10, 3))
    back = calib.cam_to_lidar(calib.lidar_to_cam(pts))
    assert np.allclose(back, pts, atol=1e-12)


def test_read_calib_file(tmp_path):
    p = tmp_path / "calib.txt"
    p.write_text(
        "P0: " + " ".join(["0"] * 12) + "\n"
        "P2: " + " ".join(str(v) for v in np.hstack([np.eye(3), np.zeros((3, 1))]).ravel()) + "\n"
        "R0_rect: 1 0 0 0 1 0 0 0 1\n"
        "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n")
    calib = kitti.read_calib_file(p)
    assert np.allclose(calib.r0_rect, np.eye(3))


def test_read_calib_missing_key(tmp_path):
    p = tmp_path / "calib.txt"
    p.write_text("R0_rect: 1 0 0 0 1 0 0 0 1\n")
    with pytest.raises(MalformedCalib):
        kitti.read_calib_file(p)


def test_label_file(tmp_path):
    calib = Calibration.identity()
    (tmp_path / "000001.txt").write_text(make_label_line() + "\n\n" +
                                         make_label_line(cls="Cyclist") + "\n")
    labels = kitti.read_label_file(tmp_path / "000001.txt", calib)
    assert [l.cls for l in labels] == ["Car", "Cyclist"]


def test_yaw_conversion_is_involution():
    for ry in (-3.0, -1.2, 0.0, 0.9, 3.1):
        theta = kitti._cam_yaw_to_lidar(ry)
        assert kitti._lidar_yaw_to_cam(theta) == pytest.approx(
            kitti.normalize_angle(ry), abs=1e-12)
