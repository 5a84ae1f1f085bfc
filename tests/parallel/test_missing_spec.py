"""A simulation result that omits a spec, or reports it non-finite, is scored
as invalid and never crashes the step.

``P2SReward`` gives such a result the invalid penalty by design; the
observation follows the same convention: the spec's normalized measured
feature is 0.0 and its error -1.0.  The stub below does that to ``gain`` on
every third call, through the sequential step, the vector step (with
autoreset and lock-step subsets) and the batched deployment — each compared
with the per-environment reference loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.agents.deployment import deploy_policy, deploy_policy_batch
from repro.parallel import VectorCircuitEnv
from repro.simulation.base import SimulationResult
from step_reference import ReferenceVectorEnv
from test_step_parity import (
    assert_observations_equal,
    assert_outputs_equal,
    assert_states_equal,
)
from test_deploy_parity import assert_results_equal


class FlakyGainSimulator:
    """Every third ``simulate`` drops ``gain`` (or makes it NaN), invalid."""

    name = "flaky-gain"

    def __init__(self, inner, mode):
        self.inner = inner
        self.mode = mode
        self.calls = 0
        self.faults = 0

    def simulate(self, netlist):
        result = self.inner.simulate(netlist)
        self.calls += 1
        if self.calls % 3:
            return result
        self.faults += 1
        specs = dict(result.specs)
        if self.mode == "drop":
            del specs["gain"]
        else:
            specs["gain"] = math.nan
        return SimulationResult(specs=specs, details=dict(result.details), valid=False)


def _env(mode, max_steps=50):
    env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=max_steps)
    env.simulator = FlakyGainSimulator(env.simulator, mode)
    return env


#: ``opamp-p2s-v0``'s invalid penalty: one unit per specification.
PENALTY = -4.0


def _assert_faulty_rows_scored_invalid(spec_features, measured_specs, rewards=None):
    """Finite features; rows whose ``gain`` is faulty carry the convention."""
    names = repro.make_env("opamp-p2s-v0").benchmark.spec_space.names
    count, index = len(names), names.index("gain")
    measured_column, error_column = count + index, 2 * count + index
    assert np.all(np.isfinite(spec_features))
    faulty = [
        row
        for row, specs in enumerate(measured_specs)
        if not np.isfinite(specs.get("gain", np.nan))
    ]
    for row in faulty:
        assert spec_features[row, measured_column] == 0.0
        assert spec_features[row, error_column] == -1.0
    if rewards is not None:
        for row in faulty:
            assert rewards[row] == PENALTY
    return len(faulty)


@pytest.mark.parametrize("mode", ["drop", "nan"])
def test_sequential_step(mode):
    env = _env(mode)
    env.reset()
    assert env.reward_fn.invalid_penalty == PENALTY
    faulty = 0
    rng = np.random.default_rng(0)
    for _ in range(9):
        observation, reward, _, info = env.step(env.action_space.sample(rng))
        faulty += _assert_faulty_rows_scored_invalid(
            observation.spec_features[np.newaxis], [observation.measured_specs], [reward]
        )
    # The reset was call 1, so calls 3, 6 and 9 were faulty.
    assert faulty == env.simulator.faults == 3


def _pair(mode, autoreset, max_steps):
    return [
        cls.from_env(
            _env(mode, max_steps), num_envs=4, seed=0, cache_size=None, autoreset=autoreset
        )
        for cls in (VectorCircuitEnv, ReferenceVectorEnv)
    ]


@pytest.mark.parametrize("mode", ["drop", "nan"])
def test_vector_step_with_autoreset(mode):
    single, reference = _pair(mode, True, 3)
    assert_observations_equal(single.reset(), reference.reset())
    rng = np.random.default_rng(1)
    for _ in range(8):
        actions = rng.integers(0, 3, size=(4, single.num_parameters))
        output = single.step(actions)
        assert_outputs_equal(output, reference.step(actions))
        assert_states_equal(single, reference)
        batch, rewards, _, infos = output
        # Rows that autoreset show the reset's result; the step's own result
        # is in the info and the terminal observation.
        _assert_faulty_rows_scored_invalid(batch.spec_features, batch.measured_specs)
        for row, info in enumerate(infos):
            if not np.isfinite(info["specs"].get("gain", np.nan)):
                assert rewards[row] == PENALTY
        for info in infos:
            if "terminal_observation" in info:
                observation = info["terminal_observation"]
                _assert_faulty_rows_scored_invalid(
                    observation.spec_features[np.newaxis], [observation.measured_specs]
                )
    assert single.envs[0].simulator.faults > 0


@pytest.mark.parametrize("mode", ["drop", "nan"])
def test_vector_step_selected(mode):
    single, reference = _pair(mode, False, 50)
    single.reset()
    reference.reset()
    rng = np.random.default_rng(2)
    for indices in ([3, 1], [0, 1, 2], [2], [1, 3], [0, 2, 3]):
        actions = rng.integers(0, 3, size=(len(indices), single.num_parameters))
        output = single.step_selected(indices, actions)
        assert_outputs_equal(output, reference.step_selected(indices, actions))
        assert_states_equal(single, reference)
        batch, rewards, _, _ = output
        _assert_faulty_rows_scored_invalid(batch.spec_features, batch.measured_specs, rewards)
    assert single.envs[0].simulator.faults > 0


@pytest.mark.parametrize("mode", ["drop", "nan"])
def test_deployment(mode):
    env = _env(mode)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(3), 5)
    sequential = deploy_policy(env, policy, targets[0])
    assert any(
        not np.isfinite(record.specs.get("gain", np.nan))
        for record in sequential.trajectory.records
    )
    results = []
    for cls in (VectorCircuitEnv, ReferenceVectorEnv):
        vector_env = cls.from_env(_env(mode), num_envs=4, cache_size=16, autoreset=False)
        results.append(deploy_policy_batch(vector_env, policy, targets, max_steps=10))
    assert_results_equal(*results)
    rewards = [r.reward for result in results[0] for r in result.trajectory.records]
    assert PENALTY in rewards
