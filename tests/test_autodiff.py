import numpy as np
import pytest

from fastpoint import autodiff as ad
from fastpoint.autodiff import GraphConsumed, NotScalar, Tensor


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


def squared(y: Tensor) -> Tensor:
    return (y * y).sum()


def test_matmul_grads():
    check_op(lambda ts: squared(ts[0] @ ts[1]), [(2, 3), (3, 4)])


def test_batched_matmul_broadcast_matrix_grads():
    check_op(lambda ts: squared(ts[0] @ ts[1]), [(5, 4, 3), (3, 2)])


def test_batched_matmul_grads():
    check_op(lambda ts: squared(ts[0] @ ts[1]), [(5, 4, 3), (5, 3, 2)])


def test_max_axis_routes_gradient_to_first_argmax():
    x = Tensor(np.array([[1.0, 5.0, 5.0], [2.0, 0.0, 7.0]]), requires_grad=True)
    x.max(axis=1).sum().backward()
    expected = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(x.grad, expected)


def test_reshape_transpose_grads():
    check_op(lambda ts: (ts[0].reshape(6).transpose((0,)) * 2).sum(), [(2, 3)])


def test_sigmoid_relu_grads():
    anywhere = np.random.default_rng(2).normal(size=(6,)) + 0.01   # clear of the relu kink
    for fn in (ad.sigmoid, ad.relu):
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


def test_take_scatter_adds_repeated_indices():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    ad.take(x, np.array([0, 0, 2])).sum().backward()
    assert np.array_equal(x.grad, np.array([2.0, 0.0, 1.0]))


def test_take_backward_byte_equal_to_add_at_on_repeated_indices():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    idx = rng.integers(0, 15, size=(40, 30))        # many repeats; cells 15..19 never read
    g = rng.normal(size=idx.shape) * 10.0 ** rng.integers(-8, 8, size=idx.shape)
    (ad.take(x.reshape(-1), idx) * Tensor(g)).sum().backward()
    want = np.zeros(20)
    np.add.at(want, idx.ravel(), g.ravel())
    assert x.grad.tobytes() == want.reshape(4, 5).tobytes()


def test_max_gradient_goes_to_first_argmax_along_any_axis():
    data = np.zeros((2, 3, 4))
    data[1, :, 2] = 1.0
    x = Tensor(data, requires_grad=True)
    x.max(axis=0).sum().backward()
    want = np.zeros((2, 3, 4))
    want[0] = 1.0
    want[0, :, 2] = 0.0
    want[1, :, 2] = 1.0
    assert np.array_equal(x.grad, want)


def test_take_gathers_rows_and_backward_adds_them():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = np.array([[2, 0, 2], [3, 2, 2]])          # row 1 never read, row 2 four times
    out = ad.take(x, idx)
    assert out.data.tobytes() == x.data[idx].tobytes() and out.shape == (2, 3, 3)
    g = rng.normal(size=(2, 3, 3)) * 10.0 ** rng.integers(-8, 8, size=(2, 3, 3))
    (out * Tensor(g)).sum().backward()
    want = np.zeros((4, 3))
    np.add.at(want, idx.ravel(), g.reshape(-1, 3))
    assert x.grad.tobytes() == want.tobytes()
    r = rng.normal(size=(2, 3, 3))
    check_op(lambda ts: squared(ad.take(ts[0], idx) * r), [(4, 3)])


def test_add_planes_is_the_adjoint_of_the_plane_gather():
    # <take(x), y> == <x, add_planes(y)>; the table repeats cells and never reads cell 9
    rng = np.random.default_rng(6)
    table = rng.integers(0, 9, size=(4, 7))
    x, y = rng.normal(size=(3, 10)), rng.normal(size=(3, 4, 7))
    spread = ad.add_planes(y, table, 10)
    want = np.zeros((3, 10))
    for c in range(3):
        np.add.at(want[c], table.ravel(), y[c].ravel())
    assert spread.tobytes() == want.tobytes()
    assert np.sum(np.take(x, table, axis=1) * y) == pytest.approx(np.sum(x * spread), rel=1e-12)


def test_node_records_its_backward_only_with_a_graph():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = ad.node((x,), x.data * 3.0, lambda g: (g * 3.0,))
    (y * y).sum().backward()
    assert np.array_equal(x.grad, np.array([18.0, -36.0]))
    with ad.no_grad():
        z = ad.node((x,), x.data * 3.0, lambda g: (g * 3.0,))
    assert z._parents == () and z._backward is None and not z.requires_grad


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


def test_no_grad_records_no_graph():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with ad.no_grad():
        h = ad.relu(w * 3.0)
        out = h.sum()
    assert h._parents == () and out._parents == () and not out.requires_grad
    assert np.array_equal(h.data, [3.0, 0.0])
    out.backward()
    assert w.grad is None
    ad.relu(w * 3.0).sum().backward()      # recorded again after the scope
    assert np.array_equal(w.grad, [3.0, 0.0])


def test_no_grad_nests_and_restores_after_an_exception():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(KeyError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (w * 2.0).requires_grad     # the inner exit kept the outer scope
            raise KeyError("inside")
    assert (w * 2.0)._parents


def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = x * x
    first, shared = y.sum(), (y * 3.0).sum()
    first.backward()
    grad = x.grad.copy()
    with pytest.raises(GraphConsumed):
        first.backward()
    with pytest.raises(GraphConsumed):
        shared.backward()       # reaches y, which the first sweep consumed
    assert np.array_equal(x.grad, grad)     # the refused sweeps touched no leaf
    (x * x).sum().backward()
    assert np.array_equal(x.grad, 2 * grad)
