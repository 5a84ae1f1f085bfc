"""The one grad-free policy forward against the graded one, byte for byte.

``act_batch`` (PPO rollouts) and ``select_action_batch`` (deployment) run
the pure-numpy ``forward_array`` twins of every layer.  Their actions,
log-probabilities and values must be the bytes the autograd path gives —
``action_distribution_batch`` + ``log_prob`` + ``value_batch``, acting on
the distribution's ``probs`` — and they must leave the rng where the graded
path leaves it.  Neither may build a single :class:`~repro.nn.tensor.Tensor`.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.nn.distributions import sample_from_probs
from repro.nn.tensor import Tensor

POLICY_IDS = ("gcn_fc", "gat_fc", "baseline_a", "baseline_b")
ENV_IDS = ("opamp-p2s-v0", "opamp-mna-v0", "rf_pa-fom-v0", "folded_cascode-p2s-v0")
NUM_ENVS = 8


@pytest.fixture(scope="module", params=ENV_IDS)
def lanes(request):
    """An 8-lane batch one random step past reset (rows genuinely differ)."""
    venv = repro.make_env(request.param, seed=0, num_envs=NUM_ENVS)
    venv.reset()
    rng = np.random.default_rng(3)
    actions = np.stack([venv.action_space.sample(rng) for _ in range(NUM_ENVS)])
    observations, _, _, _ = venv.step(actions)
    return venv, observations


def _graded(policy, batch, rng, deterministic):
    distribution = policy.action_distribution_batch(batch)
    if deterministic:
        actions = np.argmax(distribution.probs, axis=-1).astype(np.int64)
    else:
        actions = sample_from_probs(distribution.probs, rng)
    log_probs = distribution.log_prob(actions).numpy()
    return actions, log_probs, policy.value_batch(batch).numpy()


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("deterministic", [True, False], ids=["greedy", "sampled"])
@pytest.mark.parametrize("size", [1, NUM_ENVS])
@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_grad_free_forward_matches_the_graded_forward(lanes, policy_id, size, deterministic):
    venv, observations = lanes
    batch = observations.take(np.arange(size))
    policy = repro.make_policy(policy_id, venv.envs[0], np.random.default_rng(11))

    graded_rng = np.random.default_rng(5)
    expected = _graded(policy, batch, graded_rng, deterministic)
    act_rng = np.random.default_rng(5)
    actual = policy.act_batch(batch, act_rng, deterministic=deterministic)
    select_rng = np.random.default_rng(5)
    selected = policy.select_action_batch(batch, select_rng, deterministic=deterministic)

    for got, want in zip(actual, expected):
        _assert_same_bytes(got, want)
    _assert_same_bytes(selected, expected[0])
    next_draw = graded_rng.random()
    assert act_rng.random() == next_draw
    assert select_rng.random() == next_draw


def test_grad_free_forward_builds_no_tensor(lanes, monkeypatch):
    venv, observations = lanes
    policy = repro.make_policy("gat_fc", venv.envs[0], np.random.default_rng(11))
    built = []
    original = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    rng = np.random.default_rng(0)
    for deterministic in (True, False):
        policy.act_batch(observations, rng, deterministic=deterministic)
        policy.select_action_batch(observations, rng, deterministic=deterministic)
        policy.act(observations[0], rng, deterministic=deterministic)
        policy.select_action(observations[0], rng, deterministic=deterministic)
    assert built == []
    policy.value_batch(observations)
    assert built, "the counting patch must see the graded forward's tensors"
