import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastpoint import geometry
from fastpoint.errors import ShapeMismatch
from fastpoint.geometry import Box3D, BoxBEV
from fastpoint.selfcheck import (brute_force_points_in_box, mc_iou_bev, random_bev_box,
                                 random_box3d)


def test_normalize_angle_half_open_interval():
    assert geometry.normalize_angle(math.pi) == pytest.approx(math.pi)
    assert geometry.normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert geometry.normalize_angle(3 * math.pi) == pytest.approx(math.pi)
    assert geometry.normalize_angle(0.1 - 4 * math.pi) == pytest.approx(0.1)


def test_box_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        Box3D(0, 0, 0, 0.0, 1, 1, 0)
    with pytest.raises(ValueError):
        BoxBEV(0, 0, 1, -2, 0)


def test_box_array_roundtrip():
    b = Box3D(1, 2, 3, 4, 2, 1.5, 0.3)
    assert Box3D.from_array(b.as_array()) == b


def test_corners_bev_axis_aligned():
    c = geometry.corners_bev(BoxBEV(0, 0, 4, 2, 0))
    assert np.allclose(c, [[2, 1], [-2, 1], [-2, -1], [2, -1]])


def test_corners_3d_bottom_then_top():
    c = geometry.corners_3d(Box3D(0, 0, 0, 2, 2, 2, 0))
    assert c.shape == (8, 3)
    assert np.allclose(c[:4, 2], -1) and np.allclose(c[4:, 2], 1)
    assert np.allclose(c[4:, :2], c[:4, :2])


def test_iou_identical_boxes():
    b = BoxBEV(1, 2, 3, 2, 0.7)
    assert geometry.iou_bev(b, b) == pytest.approx(1.0)


def test_small_far_box_self_iou_keeps_its_digits():
    # a 6.6 x 4.4 cm box 3.4 m out: a shoelace summed on absolute coordinates
    # cancels ~eps * |position|^2 / area and read up to 1.8e-12 off 1. What
    # remains is the corners' own rounding, ~eps * |position| / width per
    # coordinate (measured <= 2.4e-14 here)
    boxes = [BoxBEV(3.4 * math.cos(phi), 3.4 * math.sin(phi), 0.066, 0.044, theta)
             for phi in np.linspace(0, 2 * math.pi, 24, endpoint=False)
             for theta in (0.0, 0.1, 0.9, 1.4)]
    bound = 4 * np.finfo(float).eps * 3.4 / 0.044
    for b in boxes:
        assert abs(geometry.iou_bev(b, b) - 1.0) < bound, b
    rows = geometry.bev_rows(boxes)
    assert np.all(np.abs(np.diag(geometry.iou_bev_matrix(rows, rows)) - 1.0) < bound)


def test_iou_disjoint_boxes():
    assert geometry.iou_bev(BoxBEV(0, 0, 2, 2, 0.3), BoxBEV(10, 0, 2, 2, 1.0)) == 0.0


def test_iou_unit_squares_rotated_45_degrees():
    # unit square vs itself rotated 45 deg: octagon intersection
    inter = 2 * (math.sqrt(2) - 1)
    expected = inter / (2 - inter)
    got = geometry.iou_bev(BoxBEV(0, 0, 1, 1, 0), BoxBEV(0, 0, 1, 1, math.pi / 4))
    assert got == pytest.approx(expected, abs=1e-12)


def test_iou_half_overlap_translation():
    got = geometry.iou_bev(BoxBEV(0, 0, 2, 2, 0), BoxBEV(1, 0, 2, 2, 0))
    assert got == pytest.approx(2.0 / 6.0, abs=1e-12)


def test_iou_3d_hand_case():
    a = Box3D(0, 0, 0, 2, 2, 2, 0)
    b = Box3D(1, 0, 1, 2, 2, 2, 0)
    # overlap: 1 x 2 x 1 = 2; union: 8 + 8 - 2
    assert geometry.iou_3d(a, b) == pytest.approx(2.0 / 14.0, abs=1e-12)


def test_iou_invariant_to_heading_flip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_bev_box(rng), random_bev_box(rng)
        flipped = BoxBEV(b.x, b.y, b.l, b.w, geometry.normalize_angle(b.theta + math.pi))
        assert geometry.iou_bev(a, b) == pytest.approx(geometry.iou_bev(a, flipped), abs=1e-12)


def test_iou_matches_monte_carlo():
    rng = np.random.default_rng(4)
    for k in range(10):
        a, b = random_bev_box(rng), random_bev_box(rng)
        assert geometry.iou_bev(a, b) == pytest.approx(
            mc_iou_bev(a, b, 400_000, seed=k), abs=5e-3)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.5, 4), st.floats(0.5, 4),
       st.floats(-math.pi, math.pi))
@settings(max_examples=60, deadline=None)
def test_self_iou_and_symmetry(x, y, l, w, theta):
    b = BoxBEV(x, y, l, w, theta)
    other = BoxBEV(x + 0.5, y - 0.3, w, l, -theta)
    assert geometry.iou_bev(b, b) == pytest.approx(1.0, abs=1e-9)
    assert geometry.iou_bev(b, other) == pytest.approx(geometry.iou_bev(other, b), abs=1e-12)
    assert 0.0 <= geometry.iou_bev(b, other) <= 1.0


def bev(box) -> BoxBEV:
    return box.bev() if isinstance(box, Box3D) else box


def shoelace_slack(boxes) -> float:
    """How far the IoU can move when the shoelace sums its products in
    another order: a few eps * |corner|**2 / area, which is large for a
    small box far from the origin."""
    bevs = [bev(b) for b in boxes]
    reach2 = max(float(np.max(np.sum(geometry.corners_bev(b) ** 2, axis=1))) for b in bevs)
    return 32 * np.finfo(float).eps * reach2 / min(b.l * b.w for b in bevs)


def assert_matrix_is_pairwise_scalar(boxes_a, boxes_b):
    mat = geometry.iou_bev_matrix(geometry.bev_rows(boxes_a), geometry.bev_rows(boxes_b))
    assert mat.shape == (len(boxes_a), len(boxes_b))
    ref = np.array([[geometry.iou_bev(bev(a), bev(b)) for b in boxes_b]
                    for a in boxes_a]).reshape(mat.shape)
    # the same clipping on arrays: only the shoelace's summation order differs
    tol = max(1e-12, shoelace_slack(list(boxes_a) + list(boxes_b)))
    assert np.allclose(mat, ref, rtol=0, atol=tol)


def test_iou_bev_matrix_matches_scalar():
    rng = np.random.default_rng(0)
    assert_matrix_is_pairwise_scalar([random_box3d(rng, 4.0) for _ in range(6)],
                                     [random_box3d(rng, 4.0) for _ in range(5)])
    assert_matrix_is_pairwise_scalar([random_bev_box(rng, 3.0) for _ in range(20)],
                                     [random_bev_box(rng, 3.0) for _ in range(15)])


def test_iou_bev_matrix_far_touching_and_empty():
    square = BoxBEV(0, 0, 1, 1, 0)
    rows = geometry.bev_rows
    # far apart; and corner to corner, where the center distance is exactly
    # the sum of the circumradii
    assert_matrix_is_pairwise_scalar([square], [BoxBEV(30, -20, 4, 2, 0.5)])
    assert_matrix_is_pairwise_scalar([square], [BoxBEV(1, 1, 1, 1, 0)])
    assert geometry.iou_bev_matrix(rows([square]), rows([BoxBEV(1, 1, 1, 1, 0)]))[0, 0] == 0.0
    assert geometry.iou_bev_matrix(rows([]), rows([square])).shape == (0, 1)
    assert geometry.iou_bev_matrix(rows([square]), rows([])).shape == (1, 0)
    assert geometry.iou_bev_matrix(rows([]), rows([])).shape == (0, 0)


def test_iou_bev_matrix_rejects_rows_that_are_not_n_by_5():
    good = geometry.bev_rows([BoxBEV(0, 0, 1, 1, 0)])
    for bad in (np.zeros((2, 4)), np.zeros(5), np.zeros((1, 5, 1)), [BoxBEV(0, 0, 1, 1, 0)]):
        with pytest.raises(ShapeMismatch):
            geometry.iou_bev_matrix(bad, good)
        with pytest.raises(ShapeMismatch):
            geometry.iou_bev_matrix(good, bad)


def test_iou_bev_matrix_rejects_nonfinite_or_flat_rows():
    good = geometry.bev_rows([BoxBEV(0, 0, 1, 1, 0)])
    for k, v, msg in ((0, np.nan, "finite"), (4, np.inf, "finite"),
                      (2, 0.0, "positive"), (3, -1.0, "positive")):
        bad = good.copy()
        bad[0, k] = v
        with pytest.raises(ValueError, match=msg):
            geometry.iou_bev_matrix(bad, good)
        with pytest.raises(ValueError, match=msg):
            geometry.iou_bev_matrix(good, bad)


def degenerate_pair(family: str, a: BoxBEV, b: BoxBEV):
    """a and a partner built from b in one of the clipping's degenerate
    configurations; "random" keeps b."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    if family == "identical":
        return a, a
    if family == "shared_edge":
        # b's length, a's width, abutting a along a's length axis
        d = (a.l + b.l) / 2
        return a, BoxBEV(a.x + d * c, a.y + d * s, b.l, a.w, a.theta)
    if family == "corners_touching":
        dl, dw = (a.l + b.l) / 2, (a.w + b.w) / 2
        return a, BoxBEV(a.x + dl * c - dw * s, a.y + dl * s + dw * c, b.l, b.w, a.theta)
    if family == "contained":
        # circumradius plus offset stay inside a's inscribed circle
        m = min(a.l, a.w)
        return a, BoxBEV(a.x + 0.05 * m * c, a.y + 0.05 * m * s, 0.3 * m, 0.2 * m, b.theta)
    if family in ("turn_90", "turn_180"):
        turn = math.pi / 2 if family == "turn_90" else math.pi
        return a, BoxBEV(a.x + 0.1 * b.x, a.y + 0.1 * b.y, a.l, a.w, a.theta + turn)
    if family == "sub_mm":
        tiny = lambda box: BoxBEV(1e-4 * box.x, 1e-4 * box.y, 1e-4 * box.l, 1e-4 * box.w,
                                  box.theta)
        return tiny(a), tiny(b)
    return a, b


bev_boxes = st.builds(BoxBEV, st.floats(-3, 3), st.floats(-3, 3), st.floats(0.2, 5),
                      st.floats(0.2, 5), st.floats(-math.pi, math.pi))


@given(st.sampled_from(["random", "identical", "shared_edge", "corners_touching",
                        "contained", "turn_90", "turn_180", "sub_mm"]), bev_boxes, bev_boxes)
@settings(max_examples=300, deadline=None)
def test_iou_bev_matrix_equals_scalar_on_degenerate_pairs(family, a, b):
    pair = degenerate_pair(family, a, b)
    # both orders and both self pairs
    assert_matrix_is_pairwise_scalar(pair, pair)


def test_iou_bev_matrix_matches_monte_carlo():
    rng = np.random.default_rng(7)
    a = [random_bev_box(rng, 1.5) for _ in range(6)]
    b = [random_bev_box(rng, 1.5) for _ in range(6)]
    got = np.diag(geometry.iou_bev_matrix(geometry.bev_rows(a), geometry.bev_rows(b)))
    assert np.any(got > 0.05)
    for k in range(6):
        assert got[k] == pytest.approx(mc_iou_bev(a[k], b[k], 400_000, seed=k), abs=5e-3)


def test_canonize_points_roundtrip():
    rng = np.random.default_rng(5)
    frame = Box3D(1, -2, 0.5, 4, 2, 1.5, 0.8)
    pts = rng.normal(size=(40, 3))
    back = geometry.uncanonize_points(frame, geometry.canonize_points(frame, pts))
    assert np.allclose(back, pts, atol=1e-12)


def uncanonize_box(frame: Box3D, subject: Box3D) -> Box3D:
    """Reference inverse of canonize_box."""
    center = geometry.uncanonize_points(frame, subject.as_array()[None, :3])[0]
    return Box3D(center[0], center[1], center[2], subject.l, subject.w, subject.h,
                 geometry.normalize_angle(subject.theta + frame.theta))


def test_canonize_box_roundtrip_and_center():
    frame = Box3D(2, 3, -1, 4, 2, 1.5, 0.6)
    sub = Box3D(2.5, 3.5, -0.8, 3.8, 1.9, 1.4, 0.9)
    canon = geometry.canonize_box(frame, sub)
    self_canon = geometry.canonize_box(frame, frame)
    assert np.allclose([self_canon.x, self_canon.y, self_canon.z, self_canon.theta], 0, atol=1e-12)
    back = uncanonize_box(frame, canon)
    assert np.allclose(back.as_array(), sub.as_array(), atol=1e-12)


def reference_points_in_box(points, b, margin=0.0):
    """Reference for points_in_box: canonize every point, then compare."""
    local = geometry.canonize_points(b, np.asarray(points, dtype=np.float64)[:, :3])
    return ((np.abs(local[:, 0]) <= b.l / 2 + margin)
            & (np.abs(local[:, 1]) <= b.w / 2 + margin)
            & (np.abs(local[:, 2]) <= b.h / 2 + margin))


def planted_points(b, margin, rng):
    """Points on the faces and corners of b expanded by margin, on the corners
    of its axis-aligned BEV bounds, and each of those moved 1 ulp along every
    axis, plus points scattered around the box."""
    half = np.array([b.l / 2 + margin, b.w / 2 + margin, b.h / 2 + margin])
    faces = []
    for ax in range(3):
        for sign in (-1.0, 1.0):
            p = rng.uniform(-1, 1, (8, 3)) * half
            p[:, ax] = sign * half[ax]
            faces.append(p)
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    on_box = geometry.uncanonize_points(b, np.vstack(faces + [signs * half]))
    c, s = abs(math.cos(b.theta)), abs(math.sin(b.theta))
    bounds = np.array([c * half[0] + s * half[1], s * half[0] + c * half[1], half[2]])
    base = np.vstack([on_box, np.array([b.x, b.y, b.z]) + signs * bounds])
    moved = []
    for ax in range(3):
        for to in (-np.inf, np.inf):
            q = base.copy()
            q[:, ax] = np.nextafter(q[:, ax], to)
            moved.append(q)
    around = np.array([b.x, b.y, b.z]) + rng.uniform(-1.5, 1.5, (200, 3)) * bounds
    return np.vstack([base] + moved + [around])


def assert_crop_points(pts, b, margin, want):
    """crop_points keeps the points of the mask want, in input order, and
    its coordinates are canonize_points' of those points, byte for byte."""
    idx, coords = geometry.crop_points(pts, b, margin)
    assert np.array_equal(idx, np.flatnonzero(want))
    assert coords.tobytes() == geometry.canonize_points(b, pts[idx, :3]).tobytes()


def test_points_in_box_matches_references_on_planted_boundary_points():
    rng = np.random.default_rng(16)
    thetas = [0.0, math.pi / 2, -math.pi / 2, math.pi, math.pi / 4, -3 * math.pi / 4]
    thetas += list(rng.uniform(-math.pi, math.pi, 40))
    on_face = 0
    for theta in thetas:
        for margin in (0.0, 0.3, 2.0):
            r, a = rng.uniform(0, 80), rng.uniform(-math.pi, math.pi)
            b = Box3D(r * math.cos(a), r * math.sin(a), rng.uniform(-3, 3), rng.uniform(0.3, 6),
                      rng.uniform(0.3, 4), rng.uniform(0.3, 3), theta)
            pts = planted_points(b, margin, rng)
            got = geometry.points_in_box(pts, b, margin)
            ref = reference_points_in_box(pts, b, margin)
            assert got.tobytes() == ref.tobytes(), (theta, margin)
            assert_crop_points(pts, b, margin, ref)
            brute = brute_force_points_in_box(pts, b, margin)
            # the two references round the canonized coordinates differently
            # (a matmul against Python's per-term products), so on a face
            # they may disagree, and only within 2 ulps of the face
            split = np.flatnonzero(ref != brute)
            local = np.abs(geometry.canonize_points(b, pts[split])[:, :2])
            face = np.array([b.l / 2 + margin, b.w / 2 + margin])
            ulps = np.min(np.abs(local - face) / np.spacing(face), axis=1)
            assert np.all(ulps <= 2.0), ulps
            assert np.array_equal(got[-200:], brute[-200:])
            on_face += len(split)
    assert on_face < 0.05 * len(thetas) * 3 * len(pts)


def test_points_in_box_matches_bruteforce():
    rng = np.random.default_rng(6)
    box = Box3D(0.5, -0.5, 0.2, 3, 1.5, 1.2, 0.4)
    pts = rng.uniform(-3, 3, size=(500, 3))
    for margin in (0.0, 0.3):
        got = geometry.points_in_box(pts, box, margin)
        brute = brute_force_points_in_box(pts, box, margin)
        assert np.array_equal(got, brute)
        assert_crop_points(pts, box, margin, brute)


def test_crop_points_keeps_one_point_among_near_ones():
    # the one point inside each box shares its axis-aligned bounds with two
    # outside it, so one row of the three canonized is kept: numpy multiplies
    # a single row by gemv, whose rounding differs from gemm's rows
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = Box3D(*rng.uniform(-20, 20, 3), 4.0, 1.0, 2.0, math.pi / 4 + rng.uniform(-0.1, 0.1))
        corners = np.array([[0.0, 1.2, 0.0], [0.5, -1.2, 0.0]])
        local = np.vstack([rng.uniform(-0.4, 0.4, (1, 3)), corners])
        pts = geometry.uncanonize_points(b, local)[[1, 0, 2]]
        assert_crop_points(pts, b, 0.0, brute_force_points_in_box(pts, b, 0.0))


def test_points_in_box_accepts_4_column_clouds():
    pts = np.array([[0.0, 0.0, 0.0, 0.9], [5.0, 5.0, 5.0, 0.1]])
    got = geometry.points_in_box(pts, Box3D(0, 0, 0, 2, 2, 2, 0))
    assert got.tolist() == [True, False]
