import math

import numpy as np
import pytest

from fastpoint import losses
from fastpoint.autodiff import Tensor
from fastpoint.errors import ConfigError, ShapeMismatch
from fastpoint.losses import LossConfig


def test_bce_hand_values():
    value, deriv = losses.bce(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert value == pytest.approx([math.log(2), math.log(2)], abs=1e-12)
    assert deriv == pytest.approx([-2.0, 2.0], abs=1e-12)
    # certainty costs nothing
    assert losses.bce(np.array([1.0 - 1e-7]), 1.0)[0][0] == pytest.approx(0.0, abs=1e-6)


def test_bce_clips_extreme_probabilities():
    value, deriv = losses.bce(np.array([0.0, 1.0, -0.5, 1.5]), np.array([1.0, 0.0, 1.0, 0.0]))
    assert np.all(np.isfinite(value))
    assert value == pytest.approx([-math.log(losses.PROB_EPS)] * 4, rel=1e-9)
    assert np.array_equal(deriv, np.zeros(4))   # the clamp bites: no gradient


def test_bce_and_smooth_l1_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    p = rng.uniform(0.05, 0.95, 8)
    for t in (0.0, 1.0):
        fd = (losses.bce(p + h, t)[0] - losses.bce(p - h, t)[0]) / (2 * h)
        assert losses.bce(p, t)[1] == pytest.approx(fd, rel=1e-6)
    x = np.concatenate([[0.0, 1 / 9, -1 / 9], rng.normal(size=8)])
    fd = (losses.smooth_l1(x + h, 3.0)[0] - losses.smooth_l1(x - h, 3.0)[0]) / (2 * h)
    assert losses.smooth_l1(x, 3.0)[1] == pytest.approx(fd, rel=1e-5, abs=1e-9)


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
    # (which takes the linear branch, of the same value and slope)
    (at_cut,), (slope_at_cut,) = losses.smooth_l1(np.array([1 / s ** 2]), s)
    assert at_cut == pytest.approx(0.5 / s ** 2, abs=1e-12)     # 1/18
    assert slope_at_cut == 1.0
    # linear branch at x = 1
    (at_one,), (slope_at_one,) = losses.smooth_l1(np.array([1.0]), s)
    assert at_one == pytest.approx(1 - 0.5 / s ** 2, abs=1e-12)  # 17/18
    assert slope_at_one == 1.0
    # continuity of value and slope across the boundary
    (lo, hi), (d_lo, d_hi) = losses.smooth_l1(np.array([1 / s ** 2 - 1e-9, 1 / s ** 2 + 1e-9]), s)
    assert lo == pytest.approx(hi, abs=1e-8)
    assert d_lo == pytest.approx(d_hi, abs=1e-8)


def test_smooth_l1_symmetric():
    x = np.array([-0.4, 0.4, -0.05, 0.05])
    v, d = losses.smooth_l1(x, 3.0)
    assert np.allclose(v[0], v[1]) and np.allclose(v[2], v[3])
    assert np.allclose(d[0], -d[1]) and np.allclose(d[2], -d[3])


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
    with pytest.raises(ConfigError, match="loss.gamma -1 must be finite and > 0"):
        LossConfig(gamma=-1)
    with pytest.raises(ConfigError, match="loss.sigma 0 must be finite and > 0"):
        LossConfig(sigma=0)


@pytest.mark.parametrize("field", ["gamma", "sigma"])
def test_loss_config_rejects_nan(field):
    with pytest.raises(ConfigError, match=f"loss.{field} nan must be finite and > 0"):
        LossConfig(**{field: math.nan})


@pytest.mark.parametrize("keep", [0, -3, 2.5, "512"])
def test_loss_config_rejects_an_ohem_keep_that_is_not_a_positive_integer(keep):
    with pytest.raises(ConfigError, match=f"loss.ohem_keep {keep!r} must be an integer >= 1"):
        LossConfig(ohem_keep=keep)


def test_cls_loss_gradient_direction():
    # pushing positive probability up and negative down lowers the loss
    p_pos = Tensor(np.array([0.6]), requires_grad=True)
    p_neg = Tensor(np.array([0.4]), requires_grad=True)
    losses.cls_loss(p_pos, p_neg, LossConfig()).backward()
    assert p_pos.grad[0] < 0
    assert p_neg.grad[0] > 0


# ------------------------------------------------------------- loss nodes
def test_each_loss_is_one_node_on_its_inputs():
    pos = Tensor(np.array([0.7, 0.2]), requires_grad=True)
    neg = Tensor(np.array([0.4]), requires_grad=True)
    pred = Tensor(np.zeros((2, 7)), requires_grad=True)
    corners = Tensor(np.zeros(24), requires_grad=True)
    for out, inputs in ((losses.cls_loss(pos, neg, LossConfig()), (pos, neg)),
                        (losses.reg_loss_rpn(pred, np.ones((2, 7)), 3.0), (pred,)),
                        (losses.corner_loss(corners, np.ones(24), 3.0), (corners,))):
        assert out.shape == () and len(out._parents) == len(inputs)
        assert all(a is b for a, b in zip(out._parents, inputs))


def _assert_matches_fd(make, tensors, steps, lo=-np.inf, hi=np.inf):
    """Every input gradient of make(*tensors) against finite differences:
    central inside (lo, hi), and one-sided second order pointing into
    [lo, hi] at its ends, where the loss has a kink; steps[k](v) is the
    step at value v of input k."""
    make(*tensors).backward()
    for k, t in enumerate(tensors):
        for i in range(t.size):
            def at(d):
                args = [u.data.copy() for u in tensors]
                args[k].reshape(-1)[i] += d
                return make(*args).item()

            v, got = t.data.reshape(-1)[i], t.grad.reshape(-1)[i]
            h = steps[k](v)
            if v in (lo, hi):
                h = h if v == lo else -h
                f0 = at(0.0)
                ref = (4 * (at(h) - f0) - (at(2 * h) - f0)) / (2 * h)
            else:
                ref = (at(h) - at(-h)) / (2 * h)
            assert abs(ref - got) <= 1e-4 * max(abs(ref), abs(got), 1e-8), (k, i, ref, got)


EPS = losses.PROB_EPS


@pytest.mark.parametrize("pos, neg, keep", [
    ([], [0.3, 0.9, EPS, 1 - EPS], 4),
    ([0.3, 0.9, EPS, 1 - EPS], [], 4),
    ([EPS, 1 - EPS, 0.5], [0.6, 1 - EPS, EPS, 0.2, 0.45], 3),
], ids=["no positives", "no negatives", "both"])
def test_cls_loss_gradient_at_the_clamp_matches_finite_differences(pos, neg, keep):
    # at p exactly PROB_EPS or 1 - PROB_EPS the clamp does not bite, so the
    # gradient is the derivative from inside the clamp range. Each step is
    # small against the distance of p from the log's pole: 0 for a
    # positive, 1 for a negative.
    cfg = LossConfig(ohem_keep=keep)
    tensors = [Tensor(np.array(pos, dtype=float), requires_grad=True),
               Tensor(np.array(neg, dtype=float), requires_grad=True)]
    _assert_matches_fd(lambda p, n: losses.cls_loss(p, n, cfg), tensors,
                       (lambda v: 1e-4 * v, lambda v: 1e-4 * (1 - v)), EPS, 1 - EPS)


def test_smooth_l1_losses_gradients_at_zero_and_at_the_cut_match_finite_differences():
    cut = 1.0 / 9.0
    x = np.array([0.0, cut, -cut, 0.5 * cut, -2.0, 0.3, -0.01])
    pred = Tensor(np.resize(x, (3, 7)), requires_grad=True)
    _assert_matches_fd(lambda p: losses.reg_loss_rpn(p, np.zeros((3, 7)), 3.0), [pred],
                       (lambda v: 1e-6,))
    target = np.linspace(-1.0, 1.0, 24)
    corners = Tensor(np.resize(x, 24) + target, requires_grad=True)
    _assert_matches_fd(lambda p: losses.corner_loss(p, target, 3.0), [corners],
                       (lambda v: 1e-6,))


def test_cls_loss_gradient_goes_to_the_first_of_tied_negatives_at_the_cut():
    cfg = LossConfig(ohem_keep=2)
    neg = Tensor(np.array([0.3, 0.7, 0.3, 0.3]), requires_grad=True)
    losses.cls_loss(np.array([]), neg, cfg).backward()
    # 0.7 and the first 0.3 are kept; only they receive gradient
    d = cfg.gamma / 2 * np.array([1 / (1 - 0.7), 1 / (1 - 0.3)])
    assert neg.grad[[1, 0]] == pytest.approx(d, rel=1e-12)
    assert np.array_equal(neg.grad[2:], np.zeros(2))
