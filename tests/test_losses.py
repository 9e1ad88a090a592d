import math

import numpy as np
import pytest

from fastpoint import losses
from fastpoint.autodiff import Tensor
from fastpoint.errors import ShapeMismatch
from fastpoint.losses import LossConfig


def test_bce_hand_values():
    assert losses.bce(Tensor(np.array([0.5])), np.array([1.0])).data[0] == pytest.approx(
        math.log(2), abs=1e-12)
    assert losses.bce(Tensor(np.array([0.5])), np.array([0.0])).data[0] == pytest.approx(
        math.log(2), abs=1e-12)
    # certainty costs nothing
    assert losses.bce(Tensor(np.array([1.0 - 1e-7])), np.array([1.0])).data[0] == pytest.approx(
        0.0, abs=1e-6)


def test_bce_clips_extreme_probabilities():
    out = losses.bce(Tensor(np.array([0.0, 1.0])), np.array([1.0, 0.0]))
    assert np.all(np.isfinite(out.data))


def test_cls_loss_hand_value():
    # one positive and one negative, both at p=0.5, keep cap above count:
    # ln2 + gamma * ln2 = 11 ln2 with gamma=10
    cfg = LossConfig()
    got = losses.cls_loss(np.array([0.5]), np.array([0.5]), cfg).item()
    assert got == pytest.approx(11 * math.log(2), abs=1e-12)


def test_cls_loss_keeps_hardest_negatives():
    cfg = LossConfig(ohem_keep=2)
    pos = np.array([0.9])
    neg = np.array([0.1, 0.8, 0.5, 0.7])     # hardest: 0.8 and 0.7
    got = losses.cls_loss(pos, neg, cfg).item()
    expected = -math.log(0.9) + cfg.gamma / 2 * (-math.log(0.2) - math.log(0.3))
    assert got == pytest.approx(expected, rel=1e-10)


def test_cls_loss_no_positives_still_penalizes_negatives():
    cfg = LossConfig()
    # a single negative means only one hardest negative can be kept
    got = losses.cls_loss(np.array([]), np.array([0.5]), cfg).item()
    assert got == pytest.approx(cfg.gamma * math.log(2), rel=1e-10)


def test_smooth_l1_branch_values():
    s = 3.0
    # quadratic branch: 0.5 * (sigma x)^2 at the boundary x = 1/sigma^2
    at_cut = losses.smooth_l1(np.array([1 / s ** 2]), s).data[0]
    assert at_cut == pytest.approx(0.5 / s ** 2, abs=1e-12)     # 1/18
    # linear branch at x = 1
    at_one = losses.smooth_l1(np.array([1.0]), s).data[0]
    assert at_one == pytest.approx(1 - 0.5 / s ** 2, abs=1e-12)  # 17/18
    # continuity across the boundary
    lo = losses.smooth_l1(np.array([1 / s ** 2 - 1e-9]), s).data[0]
    hi = losses.smooth_l1(np.array([1 / s ** 2 + 1e-9]), s).data[0]
    assert lo == pytest.approx(hi, abs=1e-8)


def test_smooth_l1_symmetric():
    x = np.array([-0.4, 0.4, -0.05, 0.05])
    v = losses.smooth_l1(x, 3.0).data
    assert np.allclose(v[0], v[1]) and np.allclose(v[2], v[3])


def test_reg_loss_is_mean_over_rows_of_component_sums():
    pred = Tensor(np.zeros((2, 7)))
    tgt = np.full((2, 7), 1.0)
    got = losses.reg_loss_rpn(pred, tgt, 3.0).item()
    assert got == pytest.approx(7 * (1 - 0.5 / 9), rel=1e-12)


def test_reg_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        losses.reg_loss_rpn(Tensor(np.zeros((2, 7))), np.zeros((3, 7)), 3.0)


def test_corner_loss_hand_value():
    # uniform error of 1/9 on all 24 coordinates, quadratic branch boundary
    pred = Tensor(np.zeros(24))
    tgt = np.full(24, 1.0 / 9.0)
    got = losses.corner_loss(pred, tgt, 3.0).item()
    assert got == pytest.approx(0.5 / 9, abs=1e-12)   # mean of 24 identical terms


def test_corner_loss_zero_at_target():
    tgt = np.arange(24, dtype=float)
    assert losses.corner_loss(Tensor(tgt.copy()), tgt, 3.0).item() == 0.0


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(gamma=-1)
    with pytest.raises(ValueError):
        LossConfig(sigma=0)


@pytest.mark.parametrize("field", ["gamma", "sigma"])
def test_loss_config_rejects_nan(field):
    with pytest.raises(ValueError, match="gamma > 0, sigma > 0"):
        LossConfig(**{field: math.nan})


def test_cls_loss_gradient_direction():
    # pushing positive probability up and negative down lowers the loss
    p_pos = Tensor(np.array([0.6]), requires_grad=True)
    p_neg = Tensor(np.array([0.4]), requires_grad=True)
    losses.cls_loss(p_pos, p_neg, LossConfig()).backward()
    assert p_pos.grad[0] < 0
    assert p_neg.grad[0] > 0
