import math

import numpy as np
import pytest

from fastpoint import anchors as A
from fastpoint import geometry
from fastpoint.geometry import Box3D
from fastpoint.selfcheck import random_box3d
from fastpoint.voxels import VoxelSpec

WORLD = VoxelSpec(((0.0, 8.0), (-4.0, 4.0), (-3.0, 1.0)), (0.5, 0.5, 0.2), 6)
SPEC = A.AnchorSpec(((3.9, 1.7, 1.56),),
                    (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4), -1.0)


def grid():
    return A.build_anchor_grid((4, 4), SPEC, WORLD)


def decode_rpn_scalar(delta: np.ndarray, anchor: Box3D, d_a: float) -> Box3D:
    """Reference decode of one delta, written out field by field."""
    dx, dy, dz, dh, dw, dl, dt = (float(v) for v in delta)
    dh, dw, dl = (min(max(v, -A.MAX_LOG_SIZE_DELTA), A.MAX_LOG_SIZE_DELTA)
                  for v in (dh, dw, dl))
    return Box3D(anchor.x + dx * d_a, anchor.y + dy * d_a, anchor.z + dz * anchor.h,
                 anchor.l * math.exp(dl), anchor.w * math.exp(dw), anchor.h * math.exp(dh),
                 geometry.normalize_angle(anchor.theta + dt))


def test_anchor_count_and_layout():
    anchors = grid()
    assert len(anchors) == 4 * 4 * 1 * 4
    # flattening is (y, x, size, angle): first 4 anchors share the first cell
    first_cell = anchors.boxes[:4]
    assert np.allclose(first_cell[:, 0], 1.0)    # x center of first column
    assert np.allclose(first_cell[:, 1], -3.0)   # y center of first row
    assert np.allclose(first_cell[:, 6], SPEC.angles)
    # next block moves one cell along x
    assert np.allclose(anchors.boxes[4:8, 0], 3.0)
    assert np.allclose(anchors.boxes[4:8, 1], -3.0)
    # one full row later, y advances
    assert np.allclose(anchors.boxes[16:20, 1], -1.0)


def test_anchor_bev_rows_are_the_boxes_bev():
    anchors = grid()
    assert np.array_equal(anchors.bev,
                          geometry.bev_rows([Box3D.from_array(r).bev() for r in anchors.boxes]))


def test_anchor_z_and_dims():
    anchors = grid()
    assert np.allclose(anchors.boxes[:, 2], -1.0)
    assert np.allclose(anchors.boxes[:, 3:6], [3.9, 1.7, 1.56])
    assert np.allclose(anchors.diag, math.hypot(3.9, 1.7))


def test_angles_must_differ_mod_pi():
    with pytest.raises(ValueError):
        A.AnchorSpec(((1, 1, 1),), (0.0, math.pi), -1.0)


@pytest.mark.parametrize("angles", [(0.0, math.pi - 1e-12), (0.0, math.pi + 1e-12),
                                    (0.5, 0.5 - 2 * math.pi)],
                         ids=["just short", "just past", "full turn"])
def test_angles_a_hair_from_a_half_turn_apart_coincide(angles):
    with pytest.raises(ValueError, match=r"must be distinct modulo pi: .* coincide"):
        A.AnchorSpec(((1, 1, 1),), angles, -1.0)


@pytest.mark.parametrize("size", [(3.9, 0.0, 1.56), (3.9, 1.7, math.nan), (math.inf, 1.7, 1.56),
                                  (3.9, -1.7, 1.56), (3.9, 1.7)],
                         ids=["zero", "nan", "inf", "negative", "two entries"])
def test_anchor_spec_rejects_impossible_size(size):
    with pytest.raises(ValueError, match=r"anchor size 1 .* three finite, positive"):
        A.AnchorSpec(((3.9, 1.7, 1.56), size), (0.0,), -1.0)


def test_assignment_bands():
    anchors = grid()
    # gt exactly on an anchor: that anchor is positive
    gt = Box3D(1.0, -3.0, -1.0, 3.9, 1.7, 1.56, 0.0)
    asn = A.assign_targets(anchors, [gt], pos_iou=0.6, neg_iou=0.45)
    assert asn.labels[0] == A.POSITIVE
    assert asn.matched_gt[0] == 0
    # anchors overlapping the gt at intermediate IoU are ignored, distant negative
    ious = geometry.iou_bev_matrix(anchors.bev, geometry.bev_rows([gt]))[:, 0]
    for i, v in enumerate(ious):
        if v >= 0.6:
            assert asn.labels[i] == A.POSITIVE
        elif v < 0.45:
            assert asn.labels[i] in (A.NEGATIVE, A.POSITIVE)  # rescue can promote
        else:
            assert asn.labels[i] in (A.IGNORE, A.POSITIVE)


def test_every_overlapped_gt_gets_a_positive():
    anchors = grid()
    # awkward gt between cells and at an off-anchor angle: below pos_iou everywhere
    gt = Box3D(2.0, -2.0, -1.0, 3.9, 1.7, 1.56, math.pi / 8)
    asn = A.assign_targets(anchors, [gt], pos_iou=0.95, neg_iou=0.45)
    assert len(asn.positive_indices) == 1
    i = asn.positive_indices[0]
    ious = geometry.iou_bev_matrix(anchors.bev, geometry.bev_rows([gt]))[:, 0]
    assert i == ious.argmax()


def test_no_gts_all_negative():
    asn = A.assign_targets(grid(), [], pos_iou=0.6, neg_iou=0.45)
    assert np.all(asn.labels == A.NEGATIVE)


def test_positive_reg_targets_roundtrip_to_gt():
    anchors = grid()
    gt = Box3D(1.3, -2.8, -0.9, 3.8, 1.8, 1.5, 0.1)
    asn = A.assign_targets(anchors, [gt], pos_iou=0.6, neg_iou=0.45)
    pos = asn.positive_indices
    assert len(pos) > 0
    for dec in A.decode_rpn(asn.reg_targets[pos], anchors.boxes[pos], anchors.diag[pos]):
        assert np.allclose(dec[:6], gt.as_array()[:6], atol=1e-9)
        assert abs(geometry.normalize_angle(dec[6] - gt.theta)) % math.pi \
            == pytest.approx(0.0, abs=1e-9)


def test_encode_known_offset():
    anchor = Box3D(0, 0, -1.0, 3.9, 1.7, 1.56, 0.0)
    d_a = math.hypot(3.9, 1.7)
    gt = Box3D(1.0, 0, -1.0, 3.9, 1.7, 1.56, 0.0)
    delta = A.encode_rpn(gt, anchor, d_a)
    assert delta[0] == pytest.approx(1.0 / d_a, abs=1e-12)
    assert np.allclose(delta[1:], 0.0, atol=1e-12)


def test_encode_unit_square_diagonal():
    anchor = Box3D(0, 0, 0, 2, 4, 2, 0)
    d_a = math.hypot(2, 4)  # sqrt(20)
    gt = Box3D(1, 0, 0, 2, 4, 2, 0)
    assert A.encode_rpn(gt, anchor, d_a)[0] == pytest.approx(1 / math.sqrt(20), abs=1e-12)


def test_angle_target_wrapped_to_half_pi_band():
    anchor = Box3D(0, 0, 0, 2, 1, 1, 0.0)
    gt = Box3D(0, 0, 0, 2, 1, 1, 2.0)  # ~114.6 deg
    delta = A.encode_rpn(gt, anchor, math.hypot(2, 1))
    assert -math.pi / 2 < delta[6] <= math.pi / 2
    assert delta[6] == pytest.approx(2.0 - math.pi, abs=1e-12)


def test_decode_rpn_batch_matches_scalar():
    rng = np.random.default_rng(2)
    anchors = grid()
    deltas = rng.normal(scale=0.2, size=(len(anchors), 7))
    out = A.decode_rpn(deltas, anchors.boxes, anchors.diag)
    for i in range(0, len(anchors), 17):
        dec = decode_rpn_scalar(deltas[i], Box3D.from_array(anchors.boxes[i]),
                                float(anchors.diag[i]))
        assert np.allclose(out[i], dec.as_array(), atol=1e-12)


def test_decode_clamps_large_log_size_deltas():
    anchors = grid()
    deltas = np.zeros((len(anchors), 7))
    deltas[:, 3:6] = [800.0, 4.0, -3.0]
    out = A.decode_rpn(deltas, anchors.boxes, anchors.diag)
    assert np.all(np.isfinite(out))
    assert np.allclose(out[:, 5], anchors.boxes[:, 5] * 1000.0 / 16)   # h clamped
    assert np.allclose(out[:, 4], anchors.boxes[:, 4] * math.exp(4.0))  # w below the clamp
    assert np.allclose(out[:, 3], anchors.boxes[:, 3] * math.exp(-3.0))
    dec = decode_rpn_scalar(deltas[0], Box3D.from_array(anchors.boxes[0]),
                            float(anchors.diag[0]))
    assert np.allclose(dec.as_array(), out[0], atol=1e-12)
    # unclamped, exp(-800) is 0 and the box would have no size
    deltas[:, 3:6] = [-800.0, -4.0, 3.0]
    out = A.decode_rpn(deltas, anchors.boxes, anchors.diag)
    assert np.all(np.isfinite(out)) and np.all(out[:, 3:6] > 0)
    assert np.allclose(out[:, 5], anchors.boxes[:, 5] * 16 / 1000)       # h clamped
    assert np.allclose(out[:, 4], anchors.boxes[:, 4] * math.exp(-4.0))  # w above the clamp
    dec = decode_rpn_scalar(deltas[0], Box3D.from_array(anchors.boxes[0]),
                            float(anchors.diag[0]))
    assert np.allclose(dec.as_array(), out[0], atol=1e-12)


def test_corner_encoding_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        gt, proposal = random_box3d(rng), random_box3d(rng)
        corners = A.decode_corners(A.encode_corners(gt, proposal), proposal)
        assert np.allclose(corners, geometry.corners_3d(gt), atol=1e-9)


def test_corner_encoding_identity_proposal():
    b = Box3D(1, 2, 0, 4, 2, 1.5, 0.7)
    target = A.encode_corners(b, b).reshape(8, 3)
    assert np.allclose(target, geometry.corners_3d(Box3D(0, 0, 0, 4, 2, 1.5, 0.0)),
                       atol=1e-12)


def test_encode_requires_positive_diagonal():
    b = Box3D(0, 0, 0, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        A.encode_rpn(b, b, 0.0)
