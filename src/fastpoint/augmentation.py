"""Training-time augmentation: whole-scene transforms, per-object
perturbation with collision rejection, and ground-truth mixup (pasting
cropped objects from a database into the scene)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Box3D, normalize_angle
from .kitti import PointCloud

CONTEXT_MARGIN = 0.3     # meters kept around a database crop
MIN_DB_POINTS = 5        # interior points required for a database entry
PERTURB_XY_SIGMA = 1.0   # meters, std of a perturbed object's x and y shift
PERTURB_Z_SIGMA = 0.3    # meters, std of its z shift
PERTURB_TRIES = 10       # poses drawn per object before it is left in place


@dataclass
class GtEntry:
    cls: str
    box: Box3D
    points: np.ndarray     # (n, 4) cropped with context margin, world frame
    frame_id: str


@dataclass
class GtDatabase:
    entries: list

    def __len__(self):
        return len(self.entries)


def _rotate_xy(pts: np.ndarray, phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    out = pts.copy()
    out[:, 0] = c * pts[:, 0] - s * pts[:, 1]
    out[:, 1] = s * pts[:, 0] + c * pts[:, 1]
    return out


def global_augment(pc: PointCloud, gts: list, seed: int,
                   flip_prob: float = 0.5, scale_range=(0.95, 1.05),
                   rot_range_deg: float = 45.0) -> tuple:
    """Scene-level flip / scale / rotation, applied to points and boxes alike."""
    rng = np.random.default_rng(seed)
    pts = pc.points.copy()
    boxes = [g for g in gts]
    if rng.random() < flip_prob:
        pts[:, 1] = -pts[:, 1]
        boxes = [Box3D(b.x, -b.y, b.z, b.l, b.w, b.h, -b.theta) for b in boxes]
    s = rng.uniform(*scale_range)
    pts[:, :3] *= s
    boxes = [Box3D(b.x * s, b.y * s, b.z * s, b.l * s, b.w * s, b.h * s, b.theta)
             for b in boxes]
    phi = math.radians(rng.uniform(-rot_range_deg, rot_range_deg))
    pts[:, :2] = _rotate_xy(pts[:, :2], phi)
    c, sn = math.cos(phi), math.sin(phi)
    boxes = [Box3D(c * b.x - sn * b.y, sn * b.x + c * b.y, b.z, b.l, b.w, b.h,
                   normalize_angle(b.theta + phi)) for b in boxes]
    return PointCloud(pts), boxes


def perturb_objects(pc: PointCloud, gts: list, seed: int,
                    rot_range_deg: float = 18.0) -> tuple:
    """Independently jitter each gt box and its interior points.

    A proposed pose is rejected (and resampled, up to PERTURB_TRIES times)
    when the moved box overlaps any other box in BEV; after the tries run
    out the object is left untouched.
    """
    rng = np.random.default_rng(seed)
    pts = pc.points.copy()
    boxes = list(gts)
    for i, box in enumerate(list(boxes)):
        inside = geometry.points_in_box(pts, box)
        for _ in range(PERTURB_TRIES):
            dx, dy = rng.normal(0.0, PERTURB_XY_SIGMA, 2)
            dz = rng.normal(0.0, PERTURB_Z_SIGMA)
            phi = math.radians(rng.uniform(-rot_range_deg, rot_range_deg))
            cand = Box3D(box.x + dx, box.y + dy, box.z + dz, box.l, box.w, box.h,
                         normalize_angle(box.theta + phi))
            if not any(geometry.iou_bev(cand.bev(), other.bev()) > 0
                       for j, other in enumerate(boxes) if j != i):
                break
        else:
            continue    # every pose collided: the object stays where it was
        # rotate interior points about the box's own axis, then translate
        local = pts[inside].copy()
        local[:, :3] = geometry.canonize_points(box, local[:, :3])
        local[:, :2] = _rotate_xy(local[:, :2], phi)
        local[:, :3] = geometry.uncanonize_points(box, local[:, :3])
        local[:, 0] += dx
        local[:, 1] += dy
        local[:, 2] += dz
        pts[inside] = local
        boxes[i] = cand
    return PointCloud(pts), boxes


def mixup_sample(pc: PointCloud, gts: list, db: GtDatabase, n_objects: int,
                 seed: int) -> tuple:
    """Paste up to n_objects database entries at their stored poses.

    An entry is skipped when its box overlaps any existing or already
    placed box in BEV. Base-scene points inside the entry's context
    region are removed before insertion so surfaces do not double up.
    """
    rng = np.random.default_rng(seed)
    pts = pc.points.copy()
    boxes = list(gts)
    if len(db) == 0 or n_objects <= 0:
        return PointCloud(pts), boxes
    picks = rng.choice(len(db), size=min(n_objects, len(db)), replace=False)
    added = []
    for k in picks:
        entry = db.entries[k]
        if any(geometry.iou_bev(entry.box.bev(), b.bev()) > 0 for b in boxes):
            continue
        clash = geometry.points_in_box(pts, entry.box, CONTEXT_MARGIN)
        pts = pts[~clash]
        added.append(entry)
        boxes.append(entry.box)
    if added:
        pts = np.vstack([pts] + [e.points for e in added])
    return PointCloud(pts), boxes


def build_gt_database(frames: list) -> GtDatabase:
    """One entry per non-DontCare gt with at least MIN_DB_POINTS interior
    points; crops include the context margin. frames: (frame_id, pc, labels)."""
    entries = []
    for frame_id, pc, labels in frames:
        for lab in labels:
            if lab.cls == "DontCare" or lab.box is None:
                continue
            interior = geometry.points_in_box(pc.points, lab.box)
            if interior.sum() < MIN_DB_POINTS:
                continue
            crop = pc.points[geometry.points_in_box(pc.points, lab.box, CONTEXT_MARGIN)]
            entries.append(GtEntry(lab.cls, lab.box, crop.copy(), str(frame_id)))
    return GtDatabase(entries)
