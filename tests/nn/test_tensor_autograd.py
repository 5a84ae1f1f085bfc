"""Finite-difference verification of the autograd engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, concatenate, maximum, minimum, stack, where

EPS = 1e-6
TOL = 1e-4


def numerical_gradient(func, array: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.ravel()
    grad_flat = gradient.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + EPS
        upper = func(array)
        flat[index] = original - EPS
        lower = func(array)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * EPS)
    return gradient


def check_gradient(op, shape, positive=False, seed=0):
    """Compare analytic and numerical gradients for a unary scalar-valued op."""
    rng = np.random.default_rng(seed)
    data = rng.normal(0.5, 1.0, size=shape)
    if positive:
        data = np.abs(data) + 0.5
    tensor = Tensor(data.copy(), requires_grad=True)
    output = op(tensor)
    output.backward()
    numeric = numerical_gradient(lambda arr: float(op(Tensor(arr)).data), data)
    np.testing.assert_allclose(tensor.grad, numeric, rtol=TOL, atol=TOL)


class TestElementwiseGradients:
    def test_add_mul_chain(self):
        check_gradient(lambda t: ((t * 3.0 + 2.0) * t).sum(), (3, 4))

    def test_sub_div(self):
        check_gradient(lambda t: ((t - 1.5) / (t + 5.0)).sum(), (2, 5), positive=True)

    def test_pow(self):
        check_gradient(lambda t: (t**3).sum(), (4,))

    def test_exp(self):
        check_gradient(lambda t: t.exp().sum(), (3, 3))

    def test_log(self):
        check_gradient(lambda t: t.log().sum(), (6,), positive=True)

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), (2, 3))

    def test_relu(self):
        check_gradient(lambda t: t.relu().sum(), (10,), seed=3)

    def test_leaky_relu(self):
        check_gradient(lambda t: t.leaky_relu(0.1).sum(), (10,), seed=4)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), (5,))

    def test_abs(self):
        check_gradient(lambda t: t.abs().sum(), (7,), seed=5)

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt().sum(), (4,), positive=True)

    def test_clip(self):
        check_gradient(lambda t: t.clip(-0.5, 0.8).sum(), (9,), seed=6)


class TestMatmulAndReductions:
    def test_matmul_left(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        (ta @ Tensor(b)).sum().backward()
        numeric = numerical_gradient(lambda arr: float((Tensor(arr) @ Tensor(b)).sum().data), a)
        np.testing.assert_allclose(ta.grad, numeric, rtol=TOL, atol=TOL)

    def test_matmul_right(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        tb = Tensor(b.copy(), requires_grad=True)
        (Tensor(a) @ tb).sum().backward()
        numeric = numerical_gradient(lambda arr: float((Tensor(a) @ Tensor(arr)).sum().data), b)
        np.testing.assert_allclose(tb.grad, numeric, rtol=TOL, atol=TOL)

    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), (3, 5))

    def test_sum_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), (4, 6))

    def test_max_reduction(self):
        check_gradient(lambda t: t.max(axis=1).sum(), (4, 5), seed=7)

    def test_reshape_transpose(self):
        check_gradient(lambda t: (t.reshape(6, 2).T ** 2).sum(), (3, 4))

    def test_getitem(self):
        check_gradient(lambda t: (t[1:3, :2] ** 2).sum(), (4, 4))


class TestSoftmaxFamily:
    def test_softmax_gradient(self):
        check_gradient(lambda t: (t.softmax(axis=-1) * np.arange(4)).sum(), (3, 4))

    def test_log_softmax_gradient(self):
        check_gradient(lambda t: (t.log_softmax(axis=-1) * np.arange(5)).sum(), (2, 5))

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(6, 3)))
        rows = t.softmax(axis=-1).data.sum(axis=-1)
        np.testing.assert_allclose(rows, np.ones(6), atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        t = Tensor(np.random.default_rng(1).normal(size=(4, 7)))
        np.testing.assert_allclose(
            t.log_softmax(axis=-1).data, np.log(t.softmax(axis=-1).data), atol=1e-12
        )


class TestCombinators:
    def test_concatenate_gradient(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (concatenate([ta, tb], axis=1) ** 2).sum().backward()
        np.testing.assert_allclose(ta.grad, 2 * a, rtol=TOL)
        np.testing.assert_allclose(tb.grad, 2 * b, rtol=TOL)

    def test_stack_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (stack([a, b], axis=0) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])
        np.testing.assert_allclose(b.grad, [2.0, 2.0])

    def test_minimum_maximum_route_gradients(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        minimum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])
        a.zero_grad(), b.zero_grad()
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_where(self):
        condition = np.array([True, False, True])
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
        out = where(condition, a, b)
        np.testing.assert_allclose(out.data, [1.0, 5.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestBroadcasting:
    def test_bias_broadcast(self):
        w = Tensor(np.ones((1, 4)), requires_grad=True)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        (x + w).sum().backward()
        np.testing.assert_allclose(w.grad, np.full((1, 4), 5.0))

    def test_scalar_broadcast(self):
        s = Tensor(np.array(2.0), requires_grad=True)
        x = Tensor(np.ones((3, 3)))
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 9.0)


class TestGraphMechanics:
    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        detached = x.detach()
        assert not detached.requires_grad
        (detached * 2.0).sum()
        assert x.grad is None

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_item_and_shape_helpers(self):
        x = Tensor(np.array([[3.0]]))
        assert x.item() == 3.0
        assert x.shape == (1, 1)
        assert x.ndim == 2
        assert x.size == 1
        assert len(Tensor(np.zeros(4))) == 4



class TestDetachCopies:
    def test_detach_returns_an_independent_copy(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        detached = x.detach()
        detached.data[0] = 99.0
        assert x.data[0] == 1.0
        assert not detached.requires_grad

    def test_numpy_still_aliases(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert x.numpy() is x.data


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5), min_size=2, max_size=8),
    scale=st.floats(0.1, 3.0),
)
def test_property_linear_chain_gradient(values, scale):
    """d/dx of sum(scale * tanh(x)) equals scale * (1 - tanh(x)^2) elementwise."""
    data = np.array(values, dtype=np.float64)
    x = Tensor(data.copy(), requires_grad=True)
    (x.tanh() * scale).sum().backward()
    expected = scale * (1.0 - np.tanh(data) ** 2)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-8, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
def test_property_softmax_probabilities(values):
    """Softmax output is a probability vector for any finite logits."""
    probs = Tensor(np.array(values)).softmax(axis=-1).data
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-9
