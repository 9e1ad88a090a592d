"""Two-phase training: the region-proposal network first, then the
refiner on its frozen features. Deterministic given the config seed."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, losses, refiner_features
from .anchors import assign_targets, build_anchor_grid, encode_corners
from .config import PipelineConfig
from .errors import EmptyProposal
from .kitti import PointCloud
from .nn import Parameters, RefinerNet, VoxelRPN
from .pipeline import select_proposals
# bound here only so that the benchmark's tracer can patch them under train
from .postprocess import nms_rotated  # noqa: F401
from .voxels import slot_counts, to_dense, voxelize


class DivergedLoss(RuntimeError):
    pass


def _is_weight(name: str) -> bool:
    # decay applies to conv/linear weights only, not biases or norm params
    return name.endswith("/w")


class SGD:
    def __init__(self, params: Parameters, lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self):
        for name in self.params.names():
            t = self.params.tensors[name]
            if t.grad is None:
                continue
            g = t.grad
            if self.weight_decay and _is_weight(name):
                g = g + self.weight_decay * t.data
            t.data -= self.lr * g


class Adam:
    """Adaptive-moment gradient descent (bias-corrected first/second moments)."""

    def __init__(self, params: Parameters, lr: float, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(params.tensors[n].data) for n in params.names()}
        self.v = {n: np.zeros_like(params.tensors[n].data) for n in params.names()}

    def step(self):
        self.t += 1
        for name in self.params.names():
            t = self.params.tensors[name]
            if t.grad is None:
                continue
            g = t.grad
            if self.weight_decay and _is_weight(name):
                g = g + self.weight_decay * t.data
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            mhat = self.m[name] / (1 - self.b1 ** self.t)
            vhat = self.v[name] / (1 - self.b2 ** self.t)
            t.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(cfg: PipelineConfig, params: Parameters, lr: float):
    if cfg.train.optimizer == "adam":
        return Adam(params, lr, weight_decay=cfg.train.weight_decay)
    if cfg.train.optimizer == "sgd":
        return SGD(params, lr, weight_decay=cfg.train.weight_decay)
    raise ValueError(f"unknown optimizer {cfg.train.optimizer!r}")


def _lr_at(base: float, epoch: int, decay_epochs, factor: float) -> float:
    lr = base
    for e in decay_epochs:
        if epoch >= e:
            lr *= factor
    return lr


@dataclass
class PreparedFrame:
    frame_id: str
    pc: PointCloud
    gts: list
    slots: np.ndarray       # (V, cap, 4) points of the occupied voxels
    counts: np.ndarray      # (V,) stored points per voxel
    coords: np.ndarray      # (V, 3) voxel indices
    assignment: object


def prepare_frames(frames: list, cfg: PipelineConfig, anchor_set) -> list:
    """Voxelize and assign targets once per frame (no augmentation here)."""
    spec = cfg.voxel_spec()
    out = []
    for i, (frame_id, pc, gts) in enumerate(frames):
        grid = voxelize(pc, spec, seed=cfg.seed * 7919 + i)
        out.append(PreparedFrame(
            frame_id, pc, gts, to_dense(grid), slot_counts(grid), grid.coords,
            assign_targets(anchor_set, gts, cfg.anchors.pos_iou, cfg.anchors.neg_iou)))
    return out


def rpn_loss(rpn: VoxelRPN, frame: PreparedFrame, cfg: PipelineConfig, train: bool = True):
    from . import autodiff as ad

    cls_map, reg_map, _ = rpn.forward(frame.slots, frame.counts, frame.coords,
                                      cfg.voxel_spec().dims, train=train)
    probs = cls_map.reshape(-1)
    asn = frame.assignment
    pos_idx = asn.positive_indices
    neg_idx = asn.negative_indices
    pos_probs = ad.take(probs, pos_idx)
    neg_probs = ad.take(probs, neg_idx)
    loss_c = losses.cls_loss(pos_probs, neg_probs, cfg.loss)
    deltas = reg_map.reshape(-1, 7)
    if len(pos_idx):
        flat = (pos_idx[:, None] * 7 + np.arange(7)[None, :]).ravel()
        pred = ad.take(deltas.reshape(-1), flat).reshape(len(pos_idx), 7)
        loss_r = losses.reg_loss_rpn(pred, asn.reg_targets[pos_idx], cfg.loss.sigma)
    else:
        loss_r = ad.Tensor(0.0)
    return loss_c + loss_r


def train_voxelrpn(prepared: list, cfg: PipelineConfig, log=None) -> VoxelRPN:
    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    opt = make_optimizer(cfg, rpn.params, cfg.train.lr)
    for epoch in range(cfg.train.rpn_epochs):
        opt.lr = _lr_at(cfg.train.lr, epoch, cfg.train.rpn_decay_epochs,
                        cfg.train.decay_factor)
        total = 0.0
        for frame in prepared:
            rpn.params.zero_grad()
            loss = rpn_loss(rpn, frame, cfg, train=True)
            if not math.isfinite(loss.item()):
                raise DivergedLoss(f"epoch {epoch}: loss {loss.item()}")
            loss.backward()
            opt.step()
            total += loss.item()
        if log is not None:
            log(f"rpn epoch={epoch} lr={opt.lr:.5g} loss={total / len(prepared):.6f}")
    return rpn


def _refiner_training_pairs(proposals, frame: PreparedFrame, cfg: PipelineConfig):
    """(proposal, matched gt) for proposals overlapping a gt in BEV."""
    pairs = []
    for det in proposals:
        best, best_iou = None, cfg.post.refiner_pos_iou
        for gt in frame.gts:
            iou = geometry.iou_bev(det.box.bev(), gt.bev())
            if iou > best_iou:
                best, best_iou = gt, iou
        if best is not None:
            pairs.append((det, best))
    return pairs[:cfg.post.max_refiner_proposals]


def _jitter_proposal(gt, rng, min_iou: float):
    """Perturb a gt box into a plausible proposal overlapping it in BEV."""
    for _ in range(20):
        cand = geometry.Box3D(
            gt.x + rng.normal(0.0, 0.15), gt.y + rng.normal(0.0, 0.15),
            gt.z + rng.normal(0.0, 0.10),
            gt.l * rng.uniform(0.93, 1.07), gt.w * rng.uniform(0.93, 1.07),
            gt.h * rng.uniform(0.93, 1.07),
            gt.theta + rng.uniform(-0.15, 0.15))
        if geometry.iou_bev(cand.bev(), gt.bev()) > min_iou:
            return cand
    return gt


def train_refiner(prepared: list, rpn: VoxelRPN, cfg: PipelineConfig,
                  log=None) -> RefinerNet:
    refiner = RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
    base_lr = cfg.train.refiner_lr if cfg.train.refiner_lr is not None else cfg.train.lr
    opt = make_optimizer(cfg, refiner.params, base_lr)
    spec = cfg.voxel_spec()
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), spec)

    # features are frozen: proposals and fused maps computed once up front
    rng = np.random.default_rng(cfg.seed * 104729 + 11)
    cache = []
    for frame in prepared:
        # plain arrays: the forward graph is freed before the next frame's
        cls_map, reg_map, fused = (t.data for t in rpn.forward(
            frame.slots, frame.counts, frame.coords, spec.dims, train=False))
        proposals = select_proposals(cls_map, reg_map, anchor_set, cfg.post)
        pairs = _refiner_training_pairs(proposals, frame, cfg)
        boxes = [(det.box, det.score, gt) for det, gt in pairs]
        for gt in frame.gts:
            for _ in range(cfg.train.refiner_jitter):
                boxes.append((_jitter_proposal(gt, rng, cfg.post.refiner_pos_iou),
                              1.0, gt))
        samples = []
        for box, score, gt in boxes:
            try:
                bf = refiner_features.build_box_feature(
                    frame.pc, fused, box, score, spec, cfg.post.crop_margin)
            except EmptyProposal:
                continue
            samples.append((bf, encode_corners(gt, box)))
        cache.append(samples)

    for epoch in range(cfg.train.refiner_epochs):
        opt.lr = _lr_at(base_lr, epoch, cfg.train.refiner_decay_epochs,
                        cfg.train.decay_factor)
        total, n = 0.0, 0
        for samples in cache:
            if not samples:
                continue
            # trained per frame: one update over all of the frame's proposals
            refiner.params.zero_grad()
            frame_loss = None
            for bf, target in samples:
                pred = refiner.forward(bf.coords, bf.feats, train=True)
                term = losses.corner_loss(pred, target, cfg.loss.sigma)
                frame_loss = term if frame_loss is None else frame_loss + term
            frame_loss = frame_loss * (1.0 / len(samples))
            if not math.isfinite(frame_loss.item()):
                raise DivergedLoss(f"refiner epoch {epoch}: loss {frame_loss.item()}")
            frame_loss.backward()
            opt.step()
            total += frame_loss.item()
            n += 1
        if log is not None and n:
            log(f"refiner epoch={epoch} lr={opt.lr:.5g} loss={total / n:.6f}")
    return refiner


def merge_parameters(rpn: VoxelRPN, refiner: RefinerNet) -> Parameters:
    merged = Parameters()
    for src in (rpn.params, refiner.params):
        merged.tensors.update(src.tensors)
        merged.stats.update(src.stats)
    return merged
