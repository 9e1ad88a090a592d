import math

import numpy as np
import pytest

from fastpoint import geometry, postprocess
from fastpoint.anchors import AnchorSpec, build_anchor_grid, encode_rpn
from fastpoint.errors import ShapeMismatch
from fastpoint.geometry import Box3D, BoxBEV
from fastpoint.postprocess import (DegenerateCorners, Detection,
                                   corners_to_box, decode_detections, nms_rotated,
                                   read_detections, write_detections)
from fastpoint.selfcheck import brute_force_nms, random_bev_box
from fastpoint.voxels import VoxelSpec

WORLD = VoxelSpec(((0.0, 8.0), (-4.0, 4.0), (-3.0, 1.0)), (0.5, 0.5, 0.2), 6)
SPEC = AnchorSpec(((3.9, 1.7, 1.56),),
                  (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4), -1.0)


def test_nms_keeps_highest_of_overlapping_pair():
    boxes = [BoxBEV(0, 0, 4, 2, 0.0), BoxBEV(0.3, 0.1, 4, 2, 0.05),
             BoxBEV(20, 0, 4, 2, 1.0)]
    kept = nms_rotated(boxes, np.array([0.7, 0.9, 0.5]), iou_thresh=0.1)
    assert kept == [1, 2]


def test_nms_tie_broken_by_index():
    boxes = [BoxBEV(0, 0, 4, 2, 0), BoxBEV(0, 0, 4, 2, 0)]
    kept = nms_rotated(boxes, np.array([0.5, 0.5]), iou_thresh=0.3)
    assert kept == [0]


def test_nms_threshold_is_strict_inequality():
    # IoU exactly at the threshold is not suppressed
    a, b = BoxBEV(0, 0, 2, 2, 0), BoxBEV(1, 0, 2, 2, 0)
    iou = geometry.iou_bev(a, b)
    assert nms_rotated([a, b], np.array([0.9, 0.8]), iou) == [0, 1]


def test_nms_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for trial in range(5):
        boxes = [random_bev_box(rng, 6.0) for _ in range(40)]
        scores = rng.uniform(0, 1, 40)
        assert nms_rotated(boxes, scores, 0.2) == brute_force_nms(boxes, scores, 0.2)


def test_nms_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nms_rotated([BoxBEV(0, 0, 1, 1, 0)], np.array([np.nan]), 0.5)
    with pytest.raises(ValueError):
        nms_rotated([BoxBEV(0, 0, 1, 1, 0)], np.array([0.5]), 1.5)


def test_nms_accepts_3d_boxes():
    boxes = [Box3D(0, 0, 0, 4, 2, 1.5, 0), Box3D(0.1, 0, 0, 4, 2, 1.5, 0)]
    assert nms_rotated(boxes, np.array([0.4, 0.6]), 0.1) == [1]


def test_decode_detections_threshold_and_exact_recovery():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    gt = Box3D(3.1, -0.9, -0.8, 3.8, 1.8, 1.5, 0.2)
    cls = np.zeros((4, 4, 4))
    reg = np.zeros((4, 4, 4, 7))
    flat_i = 37
    a_box = Box3D.from_array(anchors.boxes[flat_i])
    cls.reshape(-1)[flat_i] = 0.9
    reg.reshape(-1, 7)[flat_i] = encode_rpn(gt, a_box, float(anchors.diag[flat_i]))
    dets = decode_detections(cls, reg, anchors, score_thresh=0.3)
    assert len(dets) == 1
    assert dets[0].score == pytest.approx(0.9)
    assert np.allclose(dets[0].box.as_array()[:6], gt.as_array()[:6], atol=1e-9)


def test_decode_detections_sorted_descending():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    cls = np.zeros((4, 4, 4))
    cls.reshape(-1)[[3, 10, 40]] = [0.5, 0.9, 0.7]
    dets = decode_detections(cls, np.zeros((4, 4, 4, 7)), anchors, 0.4)
    assert [d.score for d in dets] == [0.9, 0.7, 0.5]


def test_decode_detections_empty_below_threshold():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    assert decode_detections(np.zeros((4, 4, 4)), np.zeros((4, 4, 4, 7)),
                             anchors, 0.3) == []


def test_decode_detections_shape_mismatch():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    with pytest.raises(ShapeMismatch):
        decode_detections(np.zeros((2, 4, 4)), np.zeros((4, 4, 4, 7)), anchors, 0.3)


def test_corners_to_box_exact_on_cuboid():
    rng = np.random.default_rng(1)
    from fastpoint.selfcheck import random_box3d
    for _ in range(100):
        b = random_box3d(rng)
        fit = corners_to_box(geometry.corners_3d(b))
        assert np.allclose(fit.as_array()[:6], b.as_array()[:6], atol=1e-9)
        dtheta = abs(geometry.normalize_angle(fit.theta - b.theta))
        assert min(dtheta, abs(dtheta - math.pi)) < 1e-9


def test_corners_to_box_tolerates_noise():
    b = Box3D(2, 1, 0, 4, 2, 1.5, 0.5)
    rng = np.random.default_rng(2)
    noisy = geometry.corners_3d(b) + rng.normal(0, 0.01, size=(8, 3))
    fit = corners_to_box(noisy)
    assert np.allclose(fit.as_array()[:3], b.as_array()[:3], atol=0.05)
    assert abs(geometry.normalize_angle(fit.theta - b.theta)) < 0.05


def test_corners_to_box_rejects_collapsed_set():
    with pytest.raises(DegenerateCorners):
        corners_to_box(np.zeros((8, 3)))


def test_detection_file_roundtrip(tmp_path):
    dets = [Detection(Box3D(5.0, -1.0, -0.5, 3.9, 1.7, 1.56, 0.3), 0.87),
            Detection(Box3D(10.0, 2.0, -0.4, 3.5, 1.6, 1.5, -1.2), 0.55, "Pedestrian")]
    p = tmp_path / "000000.txt"
    write_detections(p, dets)
    back = read_detections(p)
    assert len(back) == 2
    for orig, rec in zip(dets, back):
        assert rec.cls == orig.cls
        assert rec.score == pytest.approx(orig.score, abs=1e-5)
        assert np.allclose(rec.box.as_array()[:6], orig.box.as_array()[:6], atol=1e-4)


def test_empty_detection_file(tmp_path):
    p = tmp_path / "empty.txt"
    write_detections(p, [])
    assert read_detections(p) == []
