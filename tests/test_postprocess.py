import math
import warnings

import numpy as np
import pytest

from fastpoint import geometry
from fastpoint.anchors import AnchorSpec, build_anchor_grid, decode_rpn, encode_rpn
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
    kept = nms_rotated(geometry.bev_rows(boxes), np.array([0.7, 0.9, 0.5]), iou_thresh=0.1,
                       top_k=3)
    assert kept == [1, 2]


def test_nms_tie_broken_by_index():
    boxes = [BoxBEV(0, 0, 4, 2, 0), BoxBEV(0, 0, 4, 2, 0)]
    kept = nms_rotated(geometry.bev_rows(boxes), np.array([0.5, 0.5]), iou_thresh=0.3,
                       top_k=2)
    assert kept == [0]


def test_nms_threshold_is_strict_inequality():
    # IoU exactly at the threshold is not suppressed
    a, b = BoxBEV(0, 0, 2, 2, 0), BoxBEV(1, 0, 2, 2, 0)
    iou = geometry.iou_bev(a, b)
    assert nms_rotated(geometry.bev_rows([a, b]), np.array([0.9, 0.8]), iou, 2) == [0, 1]


def test_nms_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for trial in range(5):
        boxes = [random_bev_box(rng, 6.0) for _ in range(40)]
        scores = rng.uniform(0, 1, 40)
        rows = geometry.bev_rows(boxes)
        want = brute_force_nms(boxes, scores, 0.2)
        assert nms_rotated(rows, scores, 0.2, len(boxes)) == want
        # stopping at top_k keeps the first top_k of the full result
        for top_k in (0, 1, len(want) // 2, len(want) - 1):
            assert nms_rotated(rows, scores, 0.2, top_k) == want[:top_k]
        # tied scores, broken by index
        ties = np.round(scores, 1)
        for thresh in (0.0, 0.1, 0.5):
            want = brute_force_nms(boxes, ties, thresh)
            assert nms_rotated(rows, ties, thresh, len(boxes)) == want
            assert nms_rotated(rows, ties, thresh, len(want) // 2) == want[:len(want) // 2]


def test_nms_tests_only_later_ranked_nearby_pairs(monkeypatch):
    # a box ranked above a kept box is suppressed or kept, and a kept one was
    # already tested against it; a pair beyond the circumradii cannot overlap
    rng = np.random.default_rng(1)
    boxes = [random_bev_box(rng, 6.0) for _ in range(30)] + [BoxBEV(90, 90, 2, 1, 0)]
    scores = rng.uniform(0, 1, len(boxes))
    box_of = {tuple(r): b for r, b in zip(geometry.bev_rows(boxes), boxes)}
    rank = {id(b): r for r, b in enumerate(boxes[i] for i in np.argsort(-scores))}
    want = brute_force_nms(boxes, scores, 0.2)
    pairs = []
    kernel = geometry._iou_bev_pairs

    def counting(rows_a, rows_b):
        pairs.extend((box_of[tuple(a)], box_of[tuple(b)]) for a, b in zip(rows_a, rows_b))
        return kernel(rows_a, rows_b)

    monkeypatch.setattr(geometry, "_iou_bev_pairs", counting)
    assert nms_rotated(geometry.bev_rows(boxes), scores, 0.2, len(boxes)) == want
    assert pairs
    for a, b in pairs:
        assert rank[id(a)] < rank[id(b)]
        assert math.hypot(a.x - b.x, a.y - b.y) <= (math.hypot(a.l, a.w)
                                                    + math.hypot(b.l, b.w)) / 2


def test_nms_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nms_rotated(geometry.bev_rows([BoxBEV(0, 0, 1, 1, 0)]), np.array([np.nan]), 0.5, 1)
    with pytest.raises(ValueError):
        nms_rotated(geometry.bev_rows([BoxBEV(0, 0, 1, 1, 0)]), np.array([0.5]), 1.5, 1)
    with pytest.raises(ValueError):
        nms_rotated(geometry.bev_rows([BoxBEV(0, 0, 1, 1, 0)]), np.array([0.5]), 0.5, -1)


def test_nms_rejects_more_boxes_than_scores():
    boxes = [BoxBEV(5.0 * k, 0, 1, 1, 0) for k in range(3)]
    with pytest.raises(ShapeMismatch):
        nms_rotated(geometry.bev_rows(boxes), np.array([0.9, 0.8]), 0.5, 3)


def test_nms_rejects_more_scores_than_boxes():
    boxes = [BoxBEV(5.0 * k, 0, 1, 1, 0) for k in range(2)]
    with pytest.raises(ShapeMismatch):
        nms_rotated(geometry.bev_rows(boxes), np.array([0.9, 0.8, 0.7]), 0.5, 3)


def test_nms_rejects_anything_but_bev_rows():
    boxes = [Box3D(0, 0, 0, 4, 2, 1.5, 0), Box3D(0.1, 0, 0, 4, 2, 1.5, 0)]
    scores = np.array([0.4, 0.6])
    for bad in (boxes, [b.bev() for b in boxes], geometry.bev_rows(boxes).tolist(),
                np.array([b.as_array() for b in boxes]), geometry.bev_rows(boxes)[0], []):
        with pytest.raises(ShapeMismatch):
            nms_rotated(bad, scores, 0.1, 2)
    assert nms_rotated(geometry.bev_rows(boxes), scores, 0.1, 2) == [1]
    assert nms_rotated(np.zeros((0, 5)), np.zeros(0), 0.1, 30) == []


def test_decode_detections_threshold_and_exact_recovery():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    gt = Box3D(3.1, -0.9, -0.8, 3.8, 1.8, 1.5, 0.2)
    cls = np.zeros((4, 4, 4))
    reg = np.zeros((4, 4, 4, 7))
    flat_i = 37
    a_box = Box3D.from_array(anchors.boxes[flat_i])
    cls.reshape(-1)[flat_i] = 0.9
    reg.reshape(-1, 7)[flat_i] = encode_rpn(gt, a_box, float(anchors.diag[flat_i]))
    cand = decode_detections(cls, reg, anchors, score_thresh=0.3)
    assert cand.shape == (1, 8)
    assert cand[0, 7] == 0.9
    assert np.allclose(cand[0, :6], gt.as_array()[:6], atol=1e-9)


def test_decode_detections_sorted_descending():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    cls = np.zeros((4, 4, 4))
    cls.reshape(-1)[[3, 10, 40]] = [0.5, 0.9, 0.7]
    cand = decode_detections(cls, np.zeros((4, 4, 4, 7)), anchors, 0.4)
    assert cand[:, 7].tolist() == [0.9, 0.7, 0.5]
    assert cand[:, :7].tobytes() == anchors.boxes[[10, 40, 3]].tobytes()


def test_decode_detections_empty_below_threshold():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    cand = decode_detections(np.zeros((4, 4, 4)), np.zeros((4, 4, 4, 7)), anchors, 0.3)
    assert cand.shape == (0, 8)


def test_decode_detections_shape_mismatch():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    with pytest.raises(ShapeMismatch):
        decode_detections(np.zeros((2, 4, 4)), np.zeros((4, 4, 4, 7)), anchors, 0.3)


def broken_maps(anchor, column, value):
    """Toy head maps scoring every anchor 0.5, with one entry of one anchor
    replaced: column 7 is its score, 0-6 its deltas."""
    cls = np.full((4, 4, 4), 0.5)
    reg = np.zeros((4, 4, 4, 7))
    if column == 7:
        cls.reshape(-1)[anchor] = value
    else:
        reg.reshape(-1, 7)[anchor, column] = value
    return cls, reg


@pytest.mark.parametrize("anchor, column, value", [
    (9, 0, np.nan),     # x delta
    (21, 4, np.nan),    # log-size delta
    (0, 6, np.inf),     # theta delta
    (63, 7, np.nan),    # score: NaN passes no threshold, yet it is rejected
], ids=["nan x", "nan log-size", "inf theta", "nan score"])
def test_decode_detections_rejects_non_finite_maps(anchor, column, value):
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    with pytest.raises(ValueError, match=f"anchor {anchor}:"):
        decode_detections(*broken_maps(anchor, column, value), anchors, 0.3)


def test_decode_detections_names_the_first_broken_anchor():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    cls, reg = broken_maps(40, 7, np.nan)
    reg.reshape(-1, 7)[12, 2] = -np.inf
    with pytest.raises(ValueError, match="anchor 12:"):
        decode_detections(cls, reg, anchors, 0.3)


@pytest.mark.parametrize("column", [0, 1, 2], ids=["x", "y", "z"])
def test_decode_detections_rejects_a_finite_delta_that_overflows(column):
    # 1.5e308 times the anchor diagonal (x, y) or height (z) overflows to inf
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="anchor 17: .* non-finite box"):
            decode_detections(*broken_maps(17, column, 1.5e308), anchors, 0.3)


def test_decode_detections_clamps_a_very_negative_log_size_delta():
    anchors = build_anchor_grid((4, 4), SPEC, WORLD)
    cand = decode_detections(*broken_maps(5, 3, -800.0), anchors, 0.3)
    row = cand[5]    # equal scores keep anchor order
    assert np.all(np.isfinite(cand)) and np.all(cand[:, 3:6] > 0)
    assert row[5] == pytest.approx(anchors.boxes[5, 5] * 16 / 1000, rel=1e-12)
    assert Box3D.from_array(row[:7]).h == row[5]


def test_decoded_rows_equal_bev_rows_of_their_boxes():
    # the NMS rows are sliced from the decoded rows; the proposals are Box3Ds
    # built from them. Both agree to the byte only if every decoded theta is
    # a fixed point of normalize_angle, as a Box3D holds it.
    rng = np.random.default_rng(5)
    n = 20_000
    boxes = np.column_stack([rng.uniform(-40, 40, (n, 3)), rng.uniform(0.5, 5, (n, 3)),
                             rng.uniform(-math.pi, math.pi, n)])
    deltas = rng.normal(scale=0.5, size=(n, 7))
    deltas[:, 6] = rng.normal(scale=3.0, size=n)
    # anchor angles and deltas whose float sum lands exactly on +-pi, or on an
    # odd multiple of it, before the wrap
    edge = np.array([0.0, math.pi / 4, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                     0.3, -2.9, 1e-17])
    targets = (math.pi, -math.pi, 3 * math.pi, -3 * math.pi)
    m = len(edge)
    for k, target in enumerate(targets):
        boxes[k * m:(k + 1) * m, 6] = edge
        deltas[k * m:(k + 1) * m, 6] = target - edge
    sums = boxes[:4 * m, 6] + deltas[:4 * m, 6]
    assert all(np.any(sums == target) for target in targets)
    out = decode_rpn(deltas, boxes, np.hypot(boxes[:, 3], boxes[:, 4]))
    assert np.all(out[:, 6] > -math.pi) and np.all(out[:, 6] <= math.pi)
    assert all(geometry.normalize_angle(t) == t for t in out[:, 6].tolist())
    built = [Box3D.from_array(r) for r in out]
    assert out[:, [0, 1, 3, 4, 6]].tobytes() == geometry.bev_rows(built).tobytes()
    assert out.tobytes() == np.array([b.as_array() for b in built]).tobytes()


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


def test_corners_to_box_rejects_non_finite_corners():
    corners = geometry.corners_3d(Box3D(0, 0, 0, 4, 2, 1.5, 0.3))
    for bad in (np.nan, np.inf):
        broken = corners.copy()
        broken[5, 1] = bad
        with pytest.raises(DegenerateCorners):
            corners_to_box(broken)


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
