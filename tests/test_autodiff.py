import numpy as np
import pytest

from fastpoint import autodiff as ad
from fastpoint.autodiff import Tensor, NotScalar


def fd_grad(f, x, step=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, shapes, seed=0, rtol=1e-5):
    """build(tensors) -> scalar Tensor; compares each input's gradient to FD."""
    rng = np.random.default_rng(seed)
    datas = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(d.copy(), requires_grad=True) for d in datas]
    out = build(tensors)
    out.backward()
    for k, t in enumerate(tensors):
        def f(x):
            args = [Tensor(d.copy()) for d in datas]
            args[k] = Tensor(x.copy())
            return build(args).item()
        ref = fd_grad(f, datas[k].copy())
        scale = np.maximum(np.maximum(np.abs(ref), np.abs(t.grad)), 1e-6)
        assert np.all(np.abs(ref - t.grad) / scale < rtol), f"input {k}"


def test_add_mul_broadcast_grads():
    check_op(lambda ts: ((ts[0] + ts[1]) * ts[2]).sum(), [(3, 4), (4,), (3, 1)])


def test_sub_div_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5,))
    b = rng.uniform(1.0, 2.0, size=(5,))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = (ta / tb - tb).sum()
    out.backward()
    assert np.allclose(ta.grad, 1.0 / b)
    assert np.allclose(tb.grad, -a / b ** 2 - 1.0)


def test_pow_matmul_grads():
    check_op(lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [(2, 3), (3, 4)])


def test_mean_axis_and_keepdims():
    x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
    m = x.mean(axis=0)
    assert m.shape == (4,)
    m.sum().backward()
    assert np.allclose(x.grad, 1 / 3)


def test_max_axis_routes_gradient_to_first_argmax():
    x = Tensor(np.array([[1.0, 5.0, 5.0], [2.0, 0.0, 7.0]]), requires_grad=True)
    x.max(axis=1).sum().backward()
    expected = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(x.grad, expected)


def test_reshape_transpose_flip_grads():
    check_op(lambda ts: (ts[0].reshape(6).transpose((0,)) * 2).sum(), [(2, 3)])
    check_op(lambda ts: (ts[0].transpose((1, 0)).flip((0,)) ** 3).sum(), [(2, 3)])


def test_log_exp_sigmoid_relu_abs_sqrt_grads():
    rng = np.random.default_rng(2)
    pos = rng.uniform(0.5, 2.0, size=(6,))
    for fn in (ad.log, ad.sqrt):
        t = Tensor(pos.copy(), requires_grad=True)
        fn(t).sum().backward()
        ref = fd_grad(lambda x: fn(Tensor(x)).sum().item(), pos.copy())
        assert np.allclose(t.grad, ref, rtol=1e-5)
    anywhere = rng.normal(size=(6,)) + 0.01   # keep away from relu/abs kinks
    for fn in (ad.exp, ad.sigmoid, ad.relu, ad.absolute):
        t = Tensor(anywhere.copy(), requires_grad=True)
        fn(t).sum().backward()
        ref = fd_grad(lambda x: fn(Tensor(x)).sum().item(), anywhere.copy())
        assert np.allclose(t.grad, ref, rtol=1e-5, atol=1e-8)


def test_concat_grad_splits_by_input():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    out = ad.concat([a, b], axis=0)
    (out * np.arange(10).reshape(5, 2)).sum().backward()
    assert np.array_equal(a.grad, np.arange(4).reshape(2, 2))
    assert np.array_equal(b.grad, np.arange(4, 10).reshape(3, 2))


def test_pad_grad_is_interior_slice():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    p = ad.pad(x, ((1, 1), (0, 2)))
    assert p.shape == (4, 5)
    w = np.zeros((4, 5))
    w[1:3, 0:3] = 7.0
    (p * w).sum().backward()
    assert np.all(x.grad == 7.0)


def test_take_scatter_adds_repeated_indices():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    ad.take(x, np.array([0, 0, 2])).sum().backward()
    assert np.array_equal(x.grad, np.array([2.0, 0.0, 1.0]))


def test_scatter_places_rows_and_backward_gathers():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    out = ad.scatter(x, np.array([2, 0]), 3)
    assert np.array_equal(out.data, np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 2.0]]))
    (out * Tensor(np.array([[1.0, 2.0], [5.0, 6.0], [3.0, 4.0]]))).sum().backward()
    assert np.array_equal(x.grad, np.array([[3.0, 4.0], [1.0, 2.0]]))


def test_dilate_inserts_zeros_and_backward_slices():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    d = ad.dilate(x, (2, 2))
    assert d.shape == (3, 3)
    assert np.array_equal(d.data, np.array([[1, 0, 2], [0, 0, 0], [3, 0, 4]], dtype=float))
    d.sum().backward()
    assert np.all(x.grad == 1.0)


def test_where_mask_selects_and_masks_gradient():
    mask = np.array([True, False, True])
    a = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    b = Tensor(np.array([5.0, 5.0, 5.0]), requires_grad=True)
    out = ad.where_mask(mask, a * 2, b * 3)
    assert np.array_equal(out.data, np.array([2.0, 15.0, 2.0]))
    out.sum().backward()
    assert np.array_equal(a.grad, np.array([2.0, 0.0, 2.0]))
    assert np.array_equal(b.grad, np.array([0.0, 3.0, 0.0]))


def test_clip_gradient_zero_outside_range():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    x.clip(0.0, 1.0).sum().backward()
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NotScalar):
        (x * 2).backward()


def test_grad_accumulates_through_shared_subexpression():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x + x        # dy/dx = 2x + 1 = 7
    y.sum().backward()
    assert np.allclose(x.grad, 7.0)


def test_backward_keeps_grad_on_leaves_only():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([2.0, 0.5, -1.0]), requires_grad=True)
    h = x * w
    loss = (h * h).sum()
    loss.backward()
    assert h.grad is None and loss.grad is None
    assert np.array_equal(x.grad, 2 * h.data * w.data)
    assert np.array_equal(w.grad, 2 * h.data * x.data)


def test_numpy_operand_does_not_absorb_tensor():
    x = Tensor(np.ones(3), requires_grad=True)
    out = np.array([2.0, 2.0, 2.0]) * x
    assert isinstance(out, Tensor)
    out.sum().backward()
    assert np.allclose(x.grad, 2.0)


def test_detach_blocks_gradient():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (x.detach() * x).sum().backward()
    assert np.allclose(x.grad, 2.0)   # only the undetached path contributes
