import math

import numpy as np
import pytest

from fastpoint import augmentation as aug
from fastpoint import geometry
from fastpoint.augmentation import (GtDatabase, GtEntry, build_gt_database,
                                    global_augment, mixup_sample, perturb_objects)
from fastpoint.geometry import Box3D
from fastpoint.kitti import FrameLabel, PointCloud


def label(cls, box):
    return FrameLabel(cls, box, 0.0, 0, np.array([0, 0, 50, 50], dtype=float), 0.0)


def scene_with_box(n=50, seed=0):
    """Points uniform inside a box at (5, 1), plus scattered background."""
    rng = np.random.default_rng(seed)
    box = Box3D(5.0, 1.0, 0.0, 4.0, 2.0, 1.5, 0.3)
    local = rng.uniform([-2, -1, -0.75], [2, 1, 0.75], size=(n, 3))
    world = geometry.uncanonize_points(box, local)
    interior = np.hstack([world, rng.uniform(0, 1, (n, 1))])
    bg = rng.uniform([20, -10, -1], [40, 10, 1], size=(30, 3))
    bg = np.hstack([bg, rng.uniform(0, 1, (30, 1))])
    return PointCloud(np.vstack([interior, bg])), box


def test_global_augment_keeps_points_inside_their_box():
    pc, box = scene_with_box()
    n_in = geometry.points_in_box(pc.points, box).sum()
    for seed in range(5):
        out_pc, out_boxes = global_augment(pc, [box], seed)
        assert len(out_boxes) == 1
        assert geometry.points_in_box(out_pc.points, out_boxes[0]).sum() == n_in


def test_global_augment_scale_bounds_and_determinism():
    pc, box = scene_with_box()
    a = global_augment(pc, [box], seed=7)
    b = global_augment(pc, [box], seed=7)
    assert np.array_equal(a[0].points, b[0].points)
    assert np.allclose(a[1][0].as_array(), b[1][0].as_array())
    s = a[1][0].l / box.l
    assert 0.95 <= s <= 1.05
    assert a[1][0].w / box.w == pytest.approx(s)
    assert a[1][0].h / box.h == pytest.approx(s)


def test_global_augment_rotation_within_range():
    pc, box = scene_with_box()
    for seed in range(10):
        _, boxes = global_augment(pc, [box], seed, flip_prob=0.0,
                                  scale_range=(1.0, 1.0), rot_range_deg=45.0)
        d = geometry.normalize_angle(boxes[0].theta - box.theta)
        assert abs(d) <= math.radians(45.0) + 1e-9


def test_global_augment_flip_mirrors_y():
    pc, box = scene_with_box()
    out_pc, boxes = global_augment(pc, [box], seed=0, flip_prob=1.0,
                                   scale_range=(1.0, 1.0), rot_range_deg=0.0)
    assert np.allclose(out_pc.points[:, 1], -pc.points[:, 1])
    assert boxes[0].y == pytest.approx(-box.y)
    assert boxes[0].theta == pytest.approx(-box.theta)


def test_perturb_moves_points_with_their_box():
    pc, box = scene_with_box()
    n_in = geometry.points_in_box(pc.points, box).sum()
    out_pc, out_boxes = perturb_objects(pc, [box], seed=3)
    moved = out_boxes[0]
    assert not np.allclose(moved.as_array(), box.as_array())
    assert geometry.points_in_box(out_pc.points, moved).sum() == n_in
    # dims never change
    assert (moved.l, moved.w, moved.h) == (box.l, box.w, box.h)


def collision_checks(monkeypatch):
    """(candidate, other) BEV pairs of every collision check, recorded by
    wrapping geometry.iou_bev, with the check's verdict."""
    checks, iou_bev = [], geometry.iou_bev

    def spy(a, b):
        iou = iou_bev(a, b)
        checks.append((a, b, iou > 0))
        return iou

    monkeypatch.setattr(geometry, "iou_bev", spy)
    return checks


def test_perturb_rejects_colliding_poses(monkeypatch):
    pc, box = scene_with_box()
    # a second box so close that most jitters collide
    other = Box3D(5.0, 4.0, 0.0, 4.0, 2.0, 1.5, 0.0)
    monkeypatch.setattr(aug, "PERTURB_XY_SIGMA", 3.0)
    checks = collision_checks(monkeypatch)
    _, out_boxes = perturb_objects(pc, [box, other], seed=1)
    monkeypatch.undo()
    assert any(collides for _, _, collides in checks)
    for b in out_boxes:
        for c in out_boxes:
            if b is not c:
                assert geometry.iou_bev(b.bev(), c.bev()) == 0.0


def test_perturb_gives_up_after_max_tries(monkeypatch):
    pc, box = scene_with_box()
    # surround the box so every jitter collides
    ring = Box3D(5.01, 1.0, 0.0, 30.0, 30.0, 1.5, 0.0)
    monkeypatch.setattr(aug, "PERTURB_TRIES", 4)
    checks = collision_checks(monkeypatch)
    _, out = perturb_objects(pc, [box, ring], seed=0)
    # the small box cannot move without hitting the giant overlapping ring box
    assert np.allclose(out[0].as_array(), box.as_array())
    assert sum(1 for _, other, collides in checks if other == ring.bev() and collides) == 4


def test_mixup_pastes_non_overlapping_entries():
    pc, box = scene_with_box()
    paste_box = Box3D(30.0, 5.0, 0.0, 4.0, 2.0, 1.5, 0.5)
    paste_pts = np.hstack([geometry.uncanonize_points(
        paste_box, np.random.default_rng(1).uniform(-0.5, 0.5, (10, 3))),
        np.full((10, 1), 0.7)])
    db = GtDatabase([GtEntry("Car", paste_box, paste_pts, "000")])
    out_pc, out_boxes = mixup_sample(pc, [box], db, n_objects=1, seed=0)
    assert len(out_boxes) == 2
    assert np.allclose(out_boxes[1].as_array(), paste_box.as_array())
    assert geometry.points_in_box(out_pc.points, paste_box).sum() == 10


def test_mixup_skips_overlapping_entry():
    pc, box = scene_with_box()
    db = GtDatabase([GtEntry("Car", box, pc.points[:5].copy(), "000")])
    out_pc, out_boxes = mixup_sample(pc, [box], db, n_objects=1, seed=0)
    assert len(out_boxes) == 1
    assert np.array_equal(out_pc.points, pc.points)


def test_mixup_removes_clashing_base_points():
    pc, box = scene_with_box()
    # entry located where background points already exist
    paste_box = Box3D(30.0, 0.0, 0.0, 20.0, 20.0, 2.0, 0.0)
    paste_pts = np.array([[30.0, 0.0, 0.0, 0.5]])
    db = GtDatabase([GtEntry("Car", paste_box, paste_pts, "000")])
    out_pc, _ = mixup_sample(pc, [box], db, n_objects=1, seed=0)
    clash = geometry.points_in_box(pc.points, paste_box, aug.CONTEXT_MARGIN)
    assert len(out_pc.points) == len(pc.points) - clash.sum() + 1


def test_mixup_empty_db_noop():
    pc, box = scene_with_box()
    out_pc, out_boxes = mixup_sample(pc, [box], GtDatabase([]), 3, seed=0)
    assert np.array_equal(out_pc.points, pc.points)
    assert len(out_boxes) == 1


def test_build_gt_database_filters():
    pc, box = scene_with_box()
    sparse = Box3D(60.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0)   # no points inside
    labels = [label("Car", box), label("Car", sparse), label("DontCare", None)]
    db = build_gt_database([("000", pc, labels)])
    assert len(db) == 1
    e = db.entries[0]
    assert e.cls == "Car" and e.frame_id == "000"
    assert len(e.points) >= aug.MIN_DB_POINTS
    # crop includes the context margin band
    assert geometry.points_in_box(e.points, box, aug.CONTEXT_MARGIN).all()


