"""Detector losses: binary cross entropy with separate positive/negative
normalization and hard-negative mining, smooth L1 regression, and the
canonized corner loss.

Each loss accepts autodiff Tensors (or arrays, promoted to constants) and
returns one scalar ``autodiff.node`` whose backward is closed form, so it
can sit at the top of a backward pass. ``bce`` and ``smooth_l1`` are the
numpy helpers behind them: each returns its elementwise value together
with the derivative of that value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeMismatch

PROB_EPS = 1e-7  # log is undefined at {0, 1}


@dataclass(frozen=True)
class LossConfig:
    gamma: float = 10.0       # weight on the negative classification term
    sigma: float = 3.0        # smooth-L1 transition point is 1/sigma^2
    ohem_keep: int = 512      # hardest negatives retained

    def __post_init__(self):
        # written so that NaN fails too
        for name in ("gamma", "sigma"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
                raise ConfigError(f"loss.{name} {value!r} must be finite and > 0")
        if not (isinstance(self.ohem_keep, numbers.Integral) and self.ohem_keep >= 1):
            raise ConfigError(f"loss.ohem_keep {self.ohem_keep!r} must be an integer >= 1")


def bce(p: np.ndarray, t) -> tuple:
    """-(t log p + (1-t) log(1-p)) elementwise, with p clamped to
    [PROB_EPS, 1 - PROB_EPS], and its derivative in p, which is zero where
    the clamp bites."""
    q = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    t = np.asarray(t, dtype=np.float64)
    value = -(t * np.log(q) + (1.0 - t) * np.log(1.0 - q))
    inside = (p >= PROB_EPS) & (p <= 1.0 - PROB_EPS)
    return value, ((1.0 - t) / (1.0 - q) - t / q) * inside


def cls_loss(pos_probs, neg_probs, cfg: LossConfig) -> Tensor:
    """Mean positive BCE plus gamma-weighted mean over the kept hardest negatives.

    Kept negatives are the ohem_keep largest-loss ones (ties broken by
    index); each term is normalized by its own count, and only the kept
    negatives receive gradient.
    """
    pos_probs, neg_probs = ad.as_tensor(pos_probs), ad.as_tensor(neg_probs)
    total = 0.0
    d_pos = np.zeros(pos_probs.shape)
    d_neg = np.zeros(neg_probs.shape)
    n_pos = pos_probs.size
    if n_pos > 0:
        value, deriv = bce(pos_probs.data, 1.0)
        total = total + value.sum() * (1.0 / n_pos)
        d_pos = deriv * (1.0 / n_pos)
    n_neg = neg_probs.size
    if n_neg > 0:
        value, deriv = bce(neg_probs.data, 0.0)
        keep = min(cfg.ohem_keep, n_neg)
        # stable argsort on descending loss -> ties broken by index
        hardest = np.argsort(-value, kind="stable")[:keep]
        total = total + value[hardest].sum() * (cfg.gamma / keep)
        d_neg[hardest] = deriv[hardest] * (cfg.gamma / keep)
    return ad.node((pos_probs, neg_probs), total, lambda g: (g * d_pos, g * d_neg))


def smooth_l1(x: np.ndarray, sigma: float) -> tuple:
    """0.5 (sigma x)^2 below |x| = 1/sigma^2, |x| - 0.5/sigma^2 beyond,
    elementwise, and its derivative: sigma^2 x below the cut, sign(x) beyond."""
    cut = 1.0 / sigma ** 2
    a = np.abs(x)
    quad = a < cut
    value = np.where(quad, 0.5 * sigma ** 2 * (x * x), a - 0.5 * cut)
    return value, np.where(quad, sigma ** 2 * x, np.sign(x))


def reg_loss_rpn(pred_deltas, target_deltas, sigma: float = 3.0) -> Tensor:
    """Mean over positives of summed smooth L1 over the 7 components."""
    pred = ad.as_tensor(pred_deltas)
    target = np.asarray(target_deltas, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    if pred.size == 0:
        return Tensor(0.0)
    value, deriv = smooth_l1(pred.data - target, sigma)
    scale = 1.0 / pred.shape[0]
    return ad.node((pred,), value.sum(axis=1).sum() * scale, lambda g: (g * deriv * scale,))


def corner_loss(pred_corners, target_corners, sigma: float = 3.0) -> Tensor:
    """Mean smooth L1 over the 24 corner-offset components."""
    pred = ad.as_tensor(pred_corners)
    target = np.asarray(target_corners, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{pred.shape} vs {target.shape}")
    value, deriv = smooth_l1(pred.data - target, sigma)
    scale = 1.0 / value.size
    return ad.node((pred,), value.sum() * scale, lambda g: (g * deriv * scale,))
