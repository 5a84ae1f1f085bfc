"""Tests for the batched categorical action distribution and action sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.env.spaces import BatchedObservation
from repro.nn.distributions import BatchedMultiCategorical, sample_from_probs
from repro.nn.tensor import Tensor


def one_row(logits: np.ndarray) -> BatchedMultiCategorical:
    """A batch of one over ``(M, K)`` logits."""
    return BatchedMultiCategorical(Tensor(np.asarray(logits, dtype=np.float64)[None]))


class TestBatchedMultiCategorical:
    def test_shape_properties(self):
        dist = BatchedMultiCategorical(Tensor(np.zeros((2, 5, 3))))
        assert dist.batch_size == 2
        assert dist.num_parameters == 5
        assert dist.num_choices == 3
        assert dist.probs.shape == (2, 5, 3)
        np.testing.assert_allclose(dist.probs.sum(axis=-1), np.ones((2, 5)))

    def test_log_prob_is_sum_of_rows(self):
        logits = np.random.default_rng(0).normal(size=(4, 3))
        dist = one_row(logits)
        action = np.array([0, 2, 1, 1])
        expected = sum(np.log(dist.probs[0, i, a]) for i, a in enumerate(action))
        assert float(dist.log_prob(action[None]).item()) == pytest.approx(expected)

    def test_log_prob_validates_action(self):
        dist = one_row(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            dist.log_prob(np.array([[0, 1]]))
        with pytest.raises(ValueError):
            dist.log_prob(np.array([[0, 1, 5]]))

    def test_sampling_never_draws_a_zero_probability_choice(self):
        probs = np.array([[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
        rng = np.random.default_rng(0)
        for _ in range(50):
            np.testing.assert_array_equal(sample_from_probs(probs, rng), [[1, 0, 2]])

    def test_sampling_frequencies_follow_probabilities(self):
        rng = np.random.default_rng(0)
        dist = one_row(np.array([[2.0, 0.0, -2.0]]))
        samples = np.array([sample_from_probs(dist.probs, rng)[0, 0] for _ in range(4000)])
        empirical = np.bincount(samples, minlength=3) / samples.size
        np.testing.assert_allclose(empirical, dist.probs[0, 0], atol=0.03)

    def test_sampling_draws_one_block_in_batch_order(self):
        probs = np.exp(np.random.default_rng(1).normal(size=(4, 6, 3)))
        probs /= probs.sum(axis=-1, keepdims=True)
        rng = np.random.default_rng(2)
        actions = sample_from_probs(probs, rng)
        draws = np.random.default_rng(2).random(size=(4, 6, 1))
        np.testing.assert_array_equal(actions, (draws > probs.cumsum(axis=-1)[..., :-1]).sum(-1))
        np.testing.assert_array_equal(rng.random(2), np.random.default_rng(2).random(26)[24:])

    def test_entropy_bounds(self):
        uniform = one_row(np.zeros((6, 3)))
        assert float(uniform.entropy().item()) == pytest.approx(6 * np.log(3.0))
        peaked = one_row(np.array([[100.0, 0.0, 0.0]] * 6))
        assert float(peaked.entropy().item()) == pytest.approx(0.0, abs=1e-6)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 6, 3))
        batched = BatchedMultiCategorical(Tensor(logits))
        actions = sample_from_probs(batched.probs, rng)
        joint = batched.log_prob(actions).numpy()
        entropies = batched.entropy().numpy()
        for i in range(4):
            row = one_row(logits[i])
            np.testing.assert_allclose(joint[i], row.log_prob(actions[i][None]).item(), rtol=1e-12)
            np.testing.assert_allclose(entropies[i], row.entropy().item(), rtol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BatchedMultiCategorical(Tensor(np.zeros((4, 3))))
        batched = BatchedMultiCategorical(Tensor(np.zeros((2, 5, 3))))
        with pytest.raises(ValueError):
            batched.log_prob(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            batched.log_prob(np.full((2, 5), 3, dtype=np.int64))

    def test_log_prob_gradients_flow(self):
        logits = Tensor(np.zeros((2, 3, 3)), requires_grad=True)
        batched = BatchedMultiCategorical(logits)
        batched.log_prob(np.array([[0, 1, 2], [2, 1, 0]])).sum().backward()
        assert logits.grad is not None
        assert logits.grad.shape == (2, 3, 3)
        assert np.any(logits.grad != 0.0)


class TestEntropyGradient:
    """The entropy bonus must push on the logits (its gradient once was 0)."""

    @staticmethod
    def entropy_of(logits: np.ndarray) -> np.ndarray:
        return BatchedMultiCategorical(Tensor(logits)).entropy().numpy()

    def test_matches_finite_differences(self):
        logits = np.random.default_rng(7).normal(size=(3, 4, 3))
        weights = np.array([1.0, -0.5, 2.0])  # a distinct weight per row
        tensor = Tensor(logits.copy(), requires_grad=True)
        (BatchedMultiCategorical(tensor).entropy() * weights).sum().backward()

        step = 1e-6
        numeric = np.zeros_like(logits)
        for index in np.ndindex(logits.shape):
            plus, minus = logits.copy(), logits.copy()
            plus[index] += step
            minus[index] -= step
            difference = self.entropy_of(plus) - self.entropy_of(minus)
            numeric[index] = (weights * difference).sum() / (2 * step)
        assert np.abs(numeric).max() > 0.1
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_gradient_vanishes_at_uniform(self):
        uniform = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
        BatchedMultiCategorical(uniform).entropy().sum().backward()
        np.testing.assert_allclose(uniform.grad, 0.0, atol=1e-15)

    def test_policy_entropy_reaches_the_actor(self, opamp_env):
        """Through the policy, the entropy alone moves the actor's weights."""
        policy = repro.make_policy("gcn_fc", opamp_env, np.random.default_rng(0))
        batch = BatchedObservation.stack([opamp_env.reset()])
        _, _, entropies = policy.evaluate_actions(batch, np.zeros((1, opamp_env.num_parameters)))
        entropies.sum().backward()
        head = [p.grad for name, p in policy.named_parameters() if name.startswith("actor_head")]
        assert max(np.abs(grad).max() for grad in head) > 1e-6


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_sampled_actions_always_valid(rows, seed):
    """Sampled action indices are always within [0, num_choices)."""
    rng = np.random.default_rng(seed)
    dist = one_row(rng.normal(size=(rows, 3)))
    action = sample_from_probs(dist.probs, rng)
    assert action.shape == (1, rows)
    assert np.all((action >= 0) & (action < 3))
    # And log_prob of the sampled action is finite.
    assert np.isfinite(float(dist.log_prob(action).item()))
