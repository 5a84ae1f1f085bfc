"""Tests for loss functions and training diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.functional import explained_variance, mse_loss
from repro.nn.tensor import Tensor


class TestLosses:
    def test_mse_value(self):
        prediction = Tensor(np.array([1.0, 2.0, 3.0]))
        target = Tensor(np.array([1.0, 0.0, 6.0]))
        assert float(mse_loss(prediction, target).item()) == pytest.approx((0 + 4 + 9) / 3)

    def test_mse_gradient(self):
        prediction = Tensor(np.array([2.0]), requires_grad=True)
        mse_loss(prediction, Tensor(np.array([0.0]))).backward()
        np.testing.assert_allclose(prediction.grad, [4.0])


class TestExplainedVariance:
    def test_perfect_prediction(self):
        returns = np.array([1.0, 2.0, 3.0])
        assert explained_variance(returns, returns) == pytest.approx(1.0)

    def test_mean_prediction_is_zero(self):
        returns = np.array([1.0, 2.0, 3.0])
        predictions = np.full(3, returns.mean())
        assert explained_variance(predictions, returns) == pytest.approx(0.0)

    def test_constant_returns(self):
        assert explained_variance(np.array([0.0, 1.0]), np.array([2.0, 2.0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            explained_variance(np.zeros(3), np.zeros(4))
