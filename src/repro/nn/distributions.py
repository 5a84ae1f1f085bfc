"""Probability distributions for the discrete sizing action space.

The paper uses a discrete action space in which every tunable device
parameter is either increased by one step, kept, or decreased by one step at
each time step.  The policy head therefore outputs an ``M x 3`` matrix of
logits per observation (``M`` = number of tunable parameters), interpreted
row-wise as independent categorical distributions.  The policy is
batch-first, so :class:`BatchedMultiCategorical` wraps the graded
``(B, M, 3)`` logits of a batch of observations and provides the
differentiable log-probabilities and entropies PPO's update needs (Eq. 3).
A single observation is a batch of one.  Choosing actions needs no
gradient: the policy samples from numpy probabilities with
:func:`sample_from_probs`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def sample_from_probs(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF categorical sampling over the last axis of ``probs``.

    One draw block of shape ``probs.shape[:-1] + (1,)`` is consumed from
    ``rng``.  This is the single sampling implementation behind the policy's
    ``act_batch`` (PPO rollouts) and ``select_action_batch`` (deployment), so
    both consume the same draws from the same rng.
    """
    cumulative = probs.cumsum(axis=-1)
    draws = rng.random(size=probs.shape[:-1] + (1,))
    if probs.shape[-1] <= 1:
        return np.zeros(probs.shape[:-1], dtype=np.int64)
    return (draws > cumulative[..., :-1]).sum(axis=-1).astype(np.int64)


class BatchedMultiCategorical:
    """Independent categorical distributions per device parameter, per row.

    Wraps ``(B, M, K)`` logits — the output of the policy's forward pass over
    a :class:`~repro.env.spaces.BatchedObservation`; in this project ``K = 3``
    (decrease / keep / increase) — and computes log-probabilities and
    entropies for the whole batch with single array operations.
    """

    def __init__(self, logits: Tensor) -> None:
        if logits.ndim != 3:
            raise ValueError(
                f"BatchedMultiCategorical expects (B, M, K) logits, got shape {logits.shape}"
            )
        self.logits = logits
        self._log_probs = logits.log_softmax(axis=-1)

    @property
    def batch_size(self) -> int:
        return self.logits.shape[0]

    @property
    def num_parameters(self) -> int:
        return self.logits.shape[1]

    @property
    def num_choices(self) -> int:
        return self.logits.shape[2]

    @property
    def probs(self) -> np.ndarray:
        """Row-stochastic ``(B, M, K)`` probability tensor (detached)."""
        return np.exp(self._log_probs.data)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Per-row joint log-probabilities, shape ``(B,)``."""
        actions = np.asarray(actions, dtype=np.int64)
        expected = (self.batch_size, self.num_parameters)
        if actions.shape != expected:
            raise ValueError(f"actions must have shape {expected}, got {actions.shape}")
        if np.any(actions < 0) or np.any(actions >= self.num_choices):
            raise ValueError("action index out of range")
        batch_index = np.arange(self.batch_size)[:, None]
        param_index = np.arange(self.num_parameters)[None, :]
        return self._log_probs[batch_index, param_index, actions].sum(axis=-1)

    def entropy(self) -> Tensor:
        """Per-row total entropies, shape ``(B,)``.

        The probabilities stay in the graph (``exp`` of the log-softmax):
        with them detached, ``d/dlogits`` of ``-sum(p log p)`` collapses to
        ``sum_k p_k (delta_kj - p_j) = 0`` and an entropy bonus would have no
        effect on training.
        """
        return -(self._log_probs.exp() * self._log_probs).sum(axis=(-2, -1))
