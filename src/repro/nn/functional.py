"""Loss functions and small tensor utilities shared by training code."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, used for value-function regression (Algorithm 1,
    step 7) and the supervised-learning baseline."""
    diff = prediction - target
    return (diff * diff).mean()


def explained_variance(predictions: np.ndarray, returns: np.ndarray) -> float:
    """Fraction of return variance explained by the value function.

    A standard PPO training diagnostic: 1 is a perfect critic, 0 means the
    critic is no better than predicting the mean, negative is worse.
    """
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    returns = np.asarray(returns, dtype=np.float64).ravel()
    if predictions.shape != returns.shape:
        raise ValueError("predictions and returns must have the same shape")
    var_returns = returns.var()
    if var_returns < 1e-12:
        return 0.0
    return float(1.0 - (returns - predictions).var() / var_returns)
