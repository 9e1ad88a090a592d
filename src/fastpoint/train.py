"""Two-phase training: the region-proposal network first, then the
refiner on its frozen features. Both phases run one epoch loop.
Deterministic given the config seed."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry, losses, refiner_features
from .anchors import assign_targets, build_anchor_grid, encode_corners
from .autodiff import no_grad
from .config import PipelineConfig
from .kitti import PointCloud
from .nn import Parameters, RefinerNet, VoxelRPN
from .pipeline import select_proposals
from .voxels import VoxelGrid, voxelize
# bound here only so that the benchmark's tracer can patch them under train
from .postprocess import nms_rotated  # noqa: F401
from .voxels import slot_counts, to_dense  # noqa: F401


class DivergedLoss(RuntimeError):
    pass


def _is_weight(name: str) -> bool:
    # decay applies to conv/linear weights only, not biases or norm params
    return name.endswith("/w")


class SGD:
    """Plain gradient descent, kept only for the benchmark tracer's train.SGD.step."""

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

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # moment decays; the denominator's floor

    def __init__(self, params: Parameters, lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
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
            self.m[name] = self.BETA1 * self.m[name] + (1 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1 - self.BETA2) * g * g
            mhat = self.m[name] / (1 - self.BETA1 ** self.t)
            vhat = self.v[name] / (1 - self.BETA2 ** self.t)
            t.data -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)


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
    grid: VoxelGrid
    assignment: object


def prepare_frames(frames: list, cfg: PipelineConfig, anchor_set) -> list:
    """Voxelize and assign targets once per frame (no augmentation here)."""
    spec = cfg.voxel_spec()
    out = []
    for i, (frame_id, pc, gts) in enumerate(frames):
        out.append(PreparedFrame(
            frame_id, pc, gts, voxelize(pc, spec, seed=cfg.seed * 7919 + i),
            assign_targets(anchor_set, gts, cfg.anchors.pos_iou, cfg.anchors.neg_iou)))
    return out


def rpn_loss(rpn: VoxelRPN, frame: PreparedFrame, cfg: PipelineConfig, train: bool = True):
    cls_map, reg_map, _ = rpn.forward(frame.grid, train=train)
    probs = cls_map.reshape(-1)
    asn = frame.assignment
    pos_idx = asn.positive_indices
    neg_idx = asn.negative_indices
    pos_probs = ad.take(probs, pos_idx)
    neg_probs = ad.take(probs, neg_idx)
    loss_c = losses.cls_loss(pos_probs, neg_probs, cfg.loss)
    if len(pos_idx):
        pred = ad.take(reg_map.reshape(-1, 7), pos_idx)
        loss_r = losses.reg_loss_rpn(pred, asn.reg_targets[pos_idx], cfg.loss.sigma)
    else:
        loss_r = ad.Tensor(0.0)
    return loss_c + loss_r


def _fit(phase: str, params: Parameters, updates: list, loss_of, cfg: PipelineConfig,
         base_lr: float, epochs: int, decay_epochs, log) -> None:
    """The epoch loop of both training phases: each epoch takes one optimizer
    step per entry of updates, on the loss that loss_of(entry) builds, and
    logs the mean loss. A non-finite loss raises DivergedLoss before its
    step."""
    opt = Adam(params, base_lr, weight_decay=cfg.train.weight_decay)
    for epoch in range(epochs):
        opt.lr = _lr_at(base_lr, epoch, decay_epochs, cfg.train.decay_factor)
        total = 0.0
        for entry in updates:
            params.zero_grad()
            loss = loss_of(entry)
            if not math.isfinite(loss.item()):
                raise DivergedLoss(f"{phase} epoch {epoch}: loss {loss.item()}")
            loss.backward()
            opt.step()
            total += loss.item()
        if log is not None and updates:
            log(f"{phase} epoch={epoch} lr={opt.lr:.5g} loss={total / len(updates):.6f}")


def train_voxelrpn(prepared: list, cfg: PipelineConfig, log=None) -> VoxelRPN:
    if not prepared:
        raise ValueError("train_voxelrpn: no training frames")
    rpn = VoxelRPN(cfg.net_config(), seed=cfg.seed)
    _fit("rpn", rpn.params, prepared, lambda frame: rpn_loss(rpn, frame, cfg, train=True),
         cfg, cfg.train.lr, cfg.train.rpn_epochs, cfg.train.rpn_decay_epochs, log)
    return rpn


def _refiner_training_pairs(proposals, frame: PreparedFrame, cfg: PipelineConfig):
    """(proposal, matched gt) for proposals overlapping a gt in BEV above
    refiner_pos_iou; of equal best gts the first is matched."""
    if not frame.gts:
        return []
    iou = geometry.iou_bev_matrix(geometry.bev_rows([det.box for det in proposals]),
                                  geometry.bev_rows(frame.gts))
    return [(det, frame.gts[g]) for det, g, best in
            zip(proposals, iou.argmax(axis=1), iou.max(axis=1))
            if best > cfg.post.refiner_pos_iou]


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
    if not prepared:
        raise ValueError("train_refiner: no training frames")
    refiner = RefinerNet(cfg.refiner_config(), seed=cfg.seed + 1)
    spec = cfg.voxel_spec()
    anchor_set = build_anchor_grid(cfg.map_dims(), cfg.anchors.spec(), spec)

    # features are frozen: proposals and fused maps computed once up front
    rng = np.random.default_rng(cfg.seed * 104729 + 11)
    cache = []
    for frame in prepared:
        with no_grad():
            cls_map, reg_map, fused = (t.data for t in rpn.forward(frame.grid, train=False))
        proposals = select_proposals(cls_map, reg_map, anchor_set, cfg.post)
        pairs = _refiner_training_pairs(proposals, frame, cfg)
        boxes = [(det.box, gt) for det, gt in pairs]
        for gt in frame.gts:
            for _ in range(cfg.train.refiner_jitter):
                boxes.append((_jitter_proposal(gt, rng, cfg.post.refiner_pos_iou), gt))
        batch, kept = refiner_features.refiner_features(
            frame.pc, fused, [box for box, _ in boxes], spec, cfg.post.crop_margin)
        if batch is not None:
            targets = [encode_corners(boxes[i][1], boxes[i][0]) for i in kept]
            cache.append((batch, np.stack(targets)))
    if not cache:
        raise ValueError(f"train_refiner: none of the {len(prepared)} frames yields a sample "
                         f"(no proposal above refiner_pos_iou {cfg.post.refiner_pos_iou} "
                         f"and refiner_jitter {cfg.train.refiner_jitter})")

    def frame_loss(entry):
        # trained per frame: one forward and one update over all of the
        # frame's proposals; the mean over their P * 24 corner offsets is the
        # mean of the proposals' means
        batch, targets = entry
        return losses.corner_loss(refiner.forward(*batch), targets, cfg.loss.sigma)

    base_lr = cfg.train.refiner_lr if cfg.train.refiner_lr is not None else cfg.train.lr
    _fit("refiner", refiner.params, cache, frame_loss,
         cfg, base_lr, cfg.train.refiner_epochs, cfg.train.refiner_decay_epochs, log)
    return refiner


def merge_parameters(rpn: VoxelRPN, refiner: RefinerNet) -> Parameters:
    merged = Parameters()
    for src in (rpn.params, refiner.params):
        merged.tensors.update(src.tensors)
        merged.stats.update(src.stats)
    return merged
