"""Batched PPO update versus the per-sample reference in ``ppo_reference.py``.

Contract: :meth:`PPOTrainer.update` evaluates each minibatch with one batched
``evaluate_actions`` call and reduces the per-transition losses with one
``.mean()``, where the reference builds one graph per transition and sums
the losses left to right.  Every per-transition quantity is the same
float64 arithmetic, but the batched sums (the loss reduction, and the
gradient accumulation over the batch inside matmul and ``sum`` backward)
reassociate, so the two paths agree to rounding, not bit for bit:

* minibatch loss: ``|batched - reference| <= 1e-12``;
* every parameter gradient: ``atol=1e-12``, absolute because some gat_fc
  gradients are ~1e-18, where a relative bound means nothing;
* per-transition policy losses, value losses, entropies and values:
  ``rtol=1e-12``;
* parameters after one full ``update()`` (4 epochs of Adam steps with
  gradient clipping): ``atol=1e-12``, and the returned statistics
  ``rtol=1e-12``.  Adam normalizes each step by ``sqrt(v) + eps``, so a
  rounding-level gradient difference stays rounding-level in the step.

Measured on this suite's buffers: loss differences <= 1.5e-14, gradient
differences <= 6e-14 on gradients up to ~250, parameter differences after
``update()`` <= 2e-15.
"""

from __future__ import annotations

import numpy as np
import pytest
from ppo_reference import reference_minibatch_loss, reference_update

import repro
from repro.agents.ppo import PPOConfig, PPOTrainer

POLICY_IDS = ("gcn_fc", "gat_fc", "baseline_a", "baseline_b")


def _trainer(env_id: str, policy_id: str) -> PPOTrainer:
    env = repro.make_env(env_id, seed=0, max_steps=12)
    policy = repro.make_policy(policy_id, env, np.random.default_rng(11))
    return PPOTrainer(env, policy, config=PPOConfig(minibatch_size=16), seed=0)


def _buffer(env_id: str, policy_id: str):
    buffer = _trainer(env_id, policy_id).collect_episodes(3)
    buffer.compute_returns_and_advantages()
    return buffer


def _gradients(trainer: PPOTrainer, loss) -> dict:
    trainer.optimizer.zero_grad()
    loss.backward()
    return {name: parameter.grad.copy() for name, parameter in trainer.policy.named_parameters()}


@pytest.mark.parametrize("env_id", ["opamp-p2s-v0", "opamp-mna-v0"])
@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_minibatch_loss_and_gradients_match_reference(env_id, policy_id):
    buffer = _buffer(env_id, policy_id)
    trainer = _trainer(env_id, policy_id)
    indices = np.random.default_rng(4).permutation(len(buffer))[:24]

    loss, policy_loss, value_loss, entropy, values = trainer._minibatch_loss(buffer, indices)
    batched = _gradients(trainer, loss)
    ref_loss, ref_policy, ref_value, ref_entropy, ref_values = reference_minibatch_loss(
        trainer, buffer, indices
    )
    reference = _gradients(trainer, ref_loss)

    assert abs(loss.item() - ref_loss.item()) <= 1e-12
    assert batched.keys() == reference.keys()
    for name in batched:
        np.testing.assert_allclose(batched[name], reference[name], rtol=0, atol=1e-12,
                                   err_msg=name)
    np.testing.assert_allclose(policy_loss, ref_policy, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(value_loss, ref_value, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(entropy, ref_entropy, rtol=1e-12)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_full_update_matches_reference(policy_id):
    buffer = _buffer("opamp-p2s-v0", policy_id)
    batched, reference = _trainer("opamp-p2s-v0", policy_id), _trainer("opamp-p2s-v0", policy_id)

    stats = batched.update(buffer)
    ref_stats = reference_update(reference, buffer)

    for key in stats:
        np.testing.assert_allclose(stats[key], ref_stats[key], rtol=1e-12, atol=1e-15,
                                   err_msg=key)
    parameters = dict(reference.policy.named_parameters())
    for name, parameter in batched.policy.named_parameters():
        np.testing.assert_allclose(parameter.data, parameters[name].data, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_update_calls_evaluate_actions_once_per_minibatch(monkeypatch):
    trainer = _trainer("opamp-p2s-v0", "gcn_fc")
    buffer = trainer.collect_episodes(3)
    calls = []
    evaluate = trainer.policy.evaluate_actions

    def counting(batch, actions):
        calls.append(len(batch))
        return evaluate(batch, actions)

    monkeypatch.setattr(trainer.policy, "evaluate_actions", counting)
    trainer.update(buffer)
    config = trainer.config
    assert len(calls) == config.update_epochs * -(-len(buffer) // config.minibatch_size)
    assert sum(calls) == config.update_epochs * len(buffer)
