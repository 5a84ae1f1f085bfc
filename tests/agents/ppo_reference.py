"""Per-sample PPO update: the reference the batched update is checked against.

This is the update loop :class:`~repro.agents.ppo.PPOTrainer` ran before it
became batched — one ``evaluate_actions`` call and one autograd graph per
transition, the per-sample losses summed left to right and scaled by
``1 / len``.  The only change is that each transition is evaluated as a
batch of one, since the policy has no single-observation forward any more.
It lives in ``tests/`` only; ``test_ppo_update_parity.py`` holds the
tolerance contract between the two.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.agents.ppo import PPOTrainer
from repro.agents.rollout import RolloutBuffer
from repro.env.spaces import BatchedObservation
from repro.nn.functional import explained_variance
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import minimum


def evaluate_one(policy, observation, action):
    """Scalar ``(log_prob, value, entropy)`` tensors of one transition."""
    log_probs, values, entropies = policy.evaluate_actions(
        BatchedObservation.stack([observation]), np.asarray(action)[None]
    )
    return log_probs[0], values[0], entropies[0]


def reference_minibatch_loss(trainer: PPOTrainer, buffer: RolloutBuffer, indices: np.ndarray):
    """Per-sample loss of one minibatch.

    Returns ``(loss, policy_losses, value_losses, entropies, values)``; the
    four lists hold one float per transition, in ``indices`` order.
    """
    config = trainer.config
    loss_terms = []
    policy_losses: List[float] = []
    value_losses: List[float] = []
    entropies: List[float] = []
    values: List[float] = []
    for index in indices:
        transition = buffer.transitions[index]
        advantage = float(buffer.advantages[index])
        target_return = float(buffer.returns[index])
        log_prob, value, entropy = evaluate_one(
            trainer.policy, transition.observation, transition.action
        )
        values.append(float(value.item()))
        ratio = (log_prob - transition.log_prob).exp()
        unclipped = ratio * advantage
        clipped = (
            ratio.clip(1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon)
            * advantage
        )
        policy_loss = -minimum(unclipped, clipped)
        value_error = value - target_return
        value_loss = value_error * value_error
        loss = (
            policy_loss
            + config.value_coef * value_loss
            - config.entropy_coef * entropy
        )
        loss_terms.append(loss)
        policy_losses.append(float(policy_loss.item()))
        value_losses.append(float(value_loss.item()))
        entropies.append(float(entropy.item()))
    total = loss_terms[0]
    for term in loss_terms[1:]:
        total = total + term
    total = total * (1.0 / len(loss_terms))
    return total, policy_losses, value_losses, entropies, values


def reference_update(trainer: PPOTrainer, buffer: RolloutBuffer) -> Dict[str, float]:
    """:meth:`PPOTrainer.update` with the per-sample loss."""
    config = trainer.config
    buffer.compute_returns_and_advantages(normalize=config.normalize_advantages)
    assert buffer.advantages is not None and buffer.returns is not None

    policy_losses: List[float] = []
    value_losses: List[float] = []
    entropies: List[float] = []
    value_predictions = np.zeros(len(buffer))

    for _ in range(config.update_epochs):
        for indices in buffer.minibatch_indices(trainer.rng, config.minibatch_size):
            total, policy_loss, value_loss, entropy, values = reference_minibatch_loss(
                trainer, buffer, indices
            )
            value_predictions[indices] = values
            policy_losses.extend(policy_loss)
            value_losses.extend(value_loss)
            entropies.extend(entropy)
            trainer.optimizer.zero_grad()
            total.backward()
            clip_grad_norm(trainer.policy.parameters(), config.max_grad_norm)
            trainer.optimizer.step()

    return {
        "policy_loss": float(np.mean(policy_losses)),
        "value_loss": float(np.mean(value_losses)),
        "entropy": float(np.mean(entropies)),
        "explained_variance": explained_variance(value_predictions, buffer.returns),
    }
