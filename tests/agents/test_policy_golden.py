"""Golden digests: single-observation acting is row 0 of a B=1 batch.

``policy_golden.json`` holds sha256 digests of ``act`` (greedy and seeded
sampling), ``select_action`` (greedy and seeded sampling) and the
per-transition ``(log_prob, value, entropy)`` of ``evaluate_actions`` for
the four compared policies on ``opamp-p2s-v0`` and ``opamp-mna-v0``.  They
were recorded with the single-observation forward passes the policy had
before it became batch-first, so a match proves the B=1 path reproduces
them bit for bit.  The ``opamp-mna-v0`` rows were re-recorded when the MNA
AC sweep moved to the Schur form: its specs, hence the observations, move by
rounding, so the log-probabilities, values and entropies change while both
``select_action`` digests (the chosen actions) stay as recorded.

Regenerate (only when a change is *meant* to move these numbers) with::

    PYTHONPATH=src python tests/agents/test_policy_golden.py > tests/agents/policy_golden.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.env.spaces import BatchedObservation

GOLDEN = Path(__file__).with_name("policy_golden.json")
ENV_IDS = ("opamp-p2s-v0", "opamp-mna-v0")
POLICY_IDS = ("gcn_fc", "gat_fc", "baseline_a", "baseline_b")
STEPS = 6
DIGESTS = (
    "act_deterministic",
    "act_stochastic",
    "select_action_deterministic",
    "select_action_stochastic",
    "evaluate_actions",
)


def evaluate_row(policy, observation, action):
    """``(log_prob, value, entropy)`` of one transition, as a B=1 batch."""
    batch = BatchedObservation.stack([observation])
    outputs = policy.evaluate_actions(batch, np.asarray(action)[None])
    return tuple(float(tensor.numpy()[0]) for tensor in outputs)


def policy_digests(env_id: str, policy_id: str, evaluate=evaluate_row) -> dict:
    """Digests of one policy's outputs along a fixed random-action rollout."""
    env = repro.make_env(env_id, seed=0)
    policy = repro.make_policy(policy_id, env, np.random.default_rng(11))
    hashes = {name: hashlib.sha256() for name in DIGESTS}
    walk = np.random.default_rng(2)
    observation = env.reset()
    for step in range(STEPS):
        action, log_prob, value = policy.act(
            observation, np.random.default_rng(0), deterministic=True
        )
        hashes["act_deterministic"].update(action.tobytes())
        hashes["act_deterministic"].update(np.array([log_prob, value]).tobytes())
        action, log_prob, value = policy.act(observation, np.random.default_rng(100 + step))
        hashes["act_stochastic"].update(action.tobytes())
        hashes["act_stochastic"].update(np.array([log_prob, value]).tobytes())
        hashes["select_action_deterministic"].update(
            policy.select_action(observation).tobytes()
        )
        hashes["select_action_stochastic"].update(
            policy.select_action(
                observation, np.random.default_rng(200 + step), deterministic=False
            ).tobytes()
        )
        hashes["evaluate_actions"].update(
            np.array(evaluate(policy, observation, action)).tobytes()
        )
        observation, _, done, _ = env.step(env.action_space.sample(walk))
        if done:
            observation = env.reset()
    return {name: digest.hexdigest() for name, digest in hashes.items()}


def record(evaluate=evaluate_row) -> dict:
    return {
        env_id: {policy_id: policy_digests(env_id, policy_id, evaluate) for policy_id in POLICY_IDS}
        for env_id in ENV_IDS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("env_id", ENV_IDS)
@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_batch_of_one_matches_golden(golden, env_id, policy_id):
    assert policy_digests(env_id, policy_id) == golden[env_id][policy_id]


if __name__ == "__main__":
    print(json.dumps(record(), indent=2, sort_keys=True))
