"""Detector losses: binary cross entropy with separate positive/negative
normalization and hard-negative mining, smooth L1 regression, and the
canonized corner loss.

All functions accept autodiff Tensors (or arrays, promoted to constants)
and return scalar Tensors so they can sit at the top of a backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeMismatch

PROB_EPS = 1e-7  # log is undefined at {0, 1}


@dataclass(frozen=True)
class LossConfig:
    gamma: float = 10.0       # weight on the negative classification term
    sigma: float = 3.0        # smooth-L1 transition point is 1/sigma^2
    ohem_keep: int = 512      # hardest negatives retained

    def __post_init__(self):
        if self.gamma <= 0 or self.sigma <= 0 or self.ohem_keep < 1:
            raise ValueError("gamma > 0, sigma > 0, ohem_keep >= 1 required")


def bce(p, t) -> Tensor:
    """-(t log p + (1-t) log(1-p)), elementwise, with probability clamping."""
    p = ad.as_tensor(p).clip(PROB_EPS, 1.0 - PROB_EPS)
    t = np.asarray(t, dtype=np.float64)
    return -(t * ad.log(p) + (1.0 - t) * ad.log(1.0 - p))


def cls_loss(pos_probs, neg_probs, cfg: LossConfig) -> Tensor:
    """Mean positive BCE plus gamma-weighted mean over the kept hardest negatives.

    Kept negatives are the ohem_keep largest-loss ones (ties broken by
    index); each term is normalized by its own count.
    """
    pos_probs = ad.as_tensor(pos_probs)
    neg_probs = ad.as_tensor(neg_probs)
    total = Tensor(0.0)
    n_pos = pos_probs.size
    if n_pos > 0:
        total = total + bce(pos_probs, np.ones(n_pos)).sum() * (1.0 / n_pos)
    n_neg = neg_probs.size
    if n_neg > 0:
        neg_losses = bce(neg_probs, np.zeros(n_neg))
        keep = min(cfg.ohem_keep, n_neg)
        # stable argsort on descending loss -> ties broken by index
        hardest = np.argsort(-neg_losses.data, kind="stable")[:keep]
        kept = ad.take(neg_losses, hardest)
        total = total + kept.sum() * (cfg.gamma / keep)
    return total


def smooth_l1(x, sigma: float) -> Tensor:
    """0.5 (sigma x)^2 below |x| = 1/sigma^2, |x| - 0.5/sigma^2 beyond."""
    x = ad.as_tensor(x)
    a = ad.absolute(x)
    cut = 1.0 / sigma ** 2
    quad = 0.5 * sigma ** 2 * (x * x)
    lin = a - 0.5 * cut
    return ad.where_mask(np.abs(x.data) < cut, quad, lin)


def reg_loss_rpn(pred_deltas, target_deltas, sigma: float = 3.0) -> Tensor:
    """Mean over positives of summed smooth L1 over the 7 components."""
    pred = ad.as_tensor(pred_deltas)
    target = np.asarray(target_deltas, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    if pred.size == 0:
        return Tensor(0.0)
    per_pos = smooth_l1(pred - target, sigma).sum(axis=1)
    return per_pos.sum() * (1.0 / pred.shape[0])


def corner_loss(pred_corners, target_corners, sigma: float = 3.0) -> Tensor:
    """Mean smooth L1 over the 24 corner-offset components."""
    pred = ad.as_tensor(pred_corners)
    target = np.asarray(target_corners, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    return smooth_l1(pred - target, sigma).mean()
