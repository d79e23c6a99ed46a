"""Unit tests for the reverse-mode autodiff engine."""

import numpy as np
import pytest

from repro.autograd import Tensor, concat, gather_rows, scatter_add_rows, segment_sum, stack

from _helpers import numerical_gradient


class TestTensorBasics:
    def test_construction_defaults(self):
        t = Tensor([1.0, 2.0])
        assert t.shape == (2,)
        assert not t.requires_grad
        assert t.grad is None

    def test_numpy_and_item(self):
        t = Tensor(3.5)
        assert t.item() == pytest.approx(3.5)
        assert isinstance(t.numpy(), np.ndarray)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        c = (b * 3.0).sum()
        c.backward()
        assert a.grad is None

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None


class TestArithmeticForward:
    def test_add_sub_mul_div(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4, 6])
        assert np.allclose((a - b).data, [-2, -2])
        assert np.allclose((a * b).data, [3, 8])
        assert np.allclose((a / b).data, [1 / 3, 0.5])

    def test_scalar_operands(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((a + 1).data, [2, 3])
        assert np.allclose((2 * a).data, [2, 4])
        assert np.allclose((1 - a).data, [0, -1])
        assert np.allclose((4 / a).data, [4, 2])

    def test_pow_and_neg(self):
        a = Tensor([2.0, 3.0])
        assert np.allclose((a ** 2).data, [4, 9])
        assert np.allclose((-a).data, [-2, -3])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)


class TestGradients:
    def test_add_broadcast_gradient(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 2)), requires_grad=True)
        out = (a + b).sum()
        out.backward()
        assert np.allclose(a.grad, np.ones((3, 2)))
        assert np.allclose(b.grad, np.full((1, 2), 3.0))

    def test_mul_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5, 7])
        assert np.allclose(b.grad, [2, 3])

    def test_matmul_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        ((a @ b) ** 2).sum().backward()

        def loss_a(x):
            return float(((x @ b_data) ** 2).sum())

        def loss_b(x):
            return float(((a_data @ x) ** 2).sum())

        assert np.allclose(a.grad, numerical_gradient(loss_a, a_data.copy()), atol=1e-4)
        assert np.allclose(b.grad, numerical_gradient(loss_b, b_data.copy()), atol=1e-4)

    def test_elementwise_gradients_match_numerical(self):
        rng = np.random.default_rng(1)
        x_data = rng.uniform(0.5, 2.0, size=(4,))

        cases = {
            "exp": (lambda t: t.exp().sum(), lambda x: float(np.exp(x).sum())),
            "log": (lambda t: t.log().sum(), lambda x: float(np.log(x).sum())),
            "tanh": (lambda t: t.tanh().sum(), lambda x: float(np.tanh(x).sum())),
            "sigmoid": (
                lambda t: t.sigmoid().sum(),
                lambda x: float((1 / (1 + np.exp(-x))).sum()),
            ),
        }
        for name, (tensor_fn, numpy_fn) in cases.items():
            x = Tensor(x_data.copy(), requires_grad=True)
            tensor_fn(x).backward()
            numeric = numerical_gradient(numpy_fn, x_data.copy())
            assert np.allclose(x.grad, numeric, atol=1e-5), name

    def test_leaky_relu_gradient(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        x.leaky_relu(0.1).sum().backward()
        assert np.allclose(x.grad, [0.1, 1.0])

    def test_relu_gradient(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_division_gradient(self):
        a = Tensor([4.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.0])

    def test_reused_tensor_accumulates_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a * 3 + a * 2).sum()
        out.backward()
        assert np.allclose(a.grad, [5.0, 5.0])

    def test_repeated_backward_accumulates(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        assert np.allclose(a.grad, [4.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full(4, 0.25))

    def test_max_gradient_spreads_over_ties(self):
        a = Tensor([1.0, 3.0, 3.0], requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.0, 0.5, 0.5])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        out = a.max(axis=1)
        assert np.allclose(out.data, [5.0, 7.0])
        out.sum().backward()
        assert np.allclose(a.grad, [[0, 1], [1, 0]])

    def test_reshape_and_transpose(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.reshape(3, 2).T
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_getitem_gradient(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[np.array([0, 2, 2])].sum().backward()
        assert np.allclose(a.grad, [1, 0, 2, 0, 0])


class TestJoins:
    def test_concat_forward_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(2 * np.ones((3, 2)), requires_grad=True)
        out = concat([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 3).sum().backward()
        assert np.allclose(a.grad, np.full((2, 2), 3.0))
        assert np.allclose(b.grad, np.full((3, 2), 3.0))

    def test_stack(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_gather_rows(self):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = gather_rows(a, [2, 0])
        assert np.allclose(out.data, [[4, 5], [0, 1]])
        out.sum().backward()
        assert np.allclose(a.grad, [[1, 1], [0, 0], [1, 1]])

    def test_gather_rows_duplicate_indices_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(4, 3))
        weights = rng.normal(size=(3, 3))
        rows = [1, 1, 3]

        a = Tensor(base.copy(), requires_grad=True)
        (gather_rows(a, rows) * Tensor(weights)).sum().backward()

        def loss(x):
            return float((x[rows] * weights).sum())

        assert np.allclose(a.grad, numerical_gradient(loss, base.copy()))


class TestScatterAddRows:
    def test_forward_accumulates_duplicates(self):
        base = Tensor(np.zeros((3, 2)))
        updates = Tensor(np.array([[1.0, 2.0], [10.0, 20.0], [3.0, 4.0]]))
        out = scatter_add_rows(base, [2, 0, 2], updates)
        assert np.allclose(out.data, [[10, 20], [0, 0], [4, 6]])

    def test_out_of_place(self):
        base = Tensor(np.zeros((2, 2)))
        scatter_add_rows(base, [0], Tensor(np.ones((1, 2))))
        assert np.allclose(base.data, 0.0)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            scatter_add_rows(Tensor(np.zeros((3, 2))), [0, 1], Tensor(np.ones((3, 2))))

    def test_gradients_match_numerical(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(4, 2))
        updates = rng.normal(size=(3, 2))
        weights = rng.normal(size=(4, 2))
        rows = [3, 0, 3]

        b = Tensor(base.copy(), requires_grad=True)
        u = Tensor(updates.copy(), requires_grad=True)
        (scatter_add_rows(b, rows, u) * Tensor(weights)).sum().backward()

        def loss_base(x):
            out = x.copy()
            np.add.at(out, rows, updates)
            return float((out * weights).sum())

        def loss_updates(x):
            out = base.copy()
            np.add.at(out, rows, x)
            return float((out * weights).sum())

        assert np.allclose(b.grad, numerical_gradient(loss_base, base.copy()))
        assert np.allclose(u.grad, numerical_gradient(loss_updates, updates.copy()))


class TestSegmentSum:
    def test_forward(self):
        x = Tensor(np.arange(8.0).reshape(4, 2))
        out = segment_sum(x, [0, 0, 1, 1], 2)
        assert np.allclose(out.data, [[2, 4], [10, 12]])

    def test_empty_segment(self):
        x = Tensor(np.ones((2, 3)))
        out = segment_sum(x, [2, 2], 3)
        assert np.allclose(out.data[0], 0)
        assert np.allclose(out.data[2], 2)

    def test_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        out = segment_sum(x, [0, 1, 1], 2)
        (out * Tensor([[1.0, 1.0], [5.0, 5.0]])).sum().backward()
        assert np.allclose(x.grad, [[1, 1], [5, 5], [5, 5]])

    def test_mismatched_ids_raise(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((3, 2))), [0, 1], 2)
