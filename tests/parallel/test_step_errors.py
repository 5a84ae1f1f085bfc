"""Atomic errors and live configuration for the vector step.

Invalid input raises before the step changes anything: no lane's netlist,
episode state or trajectory moves and no cache counter ticks.  The
simulator, reward function, ``max_steps`` and ``autoreset`` are read on
every step, so swapping one takes effect on the next step — compared here
against the per-environment reference loop doing the same swap.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

import repro
from repro.env.reward import P2SReward
from repro.parallel import SimulationCache, VectorCircuitEnv
from repro.simulation.opamp_sim import OpAmpSimulator
from step_reference import ReferenceVectorEnv
from test_step_parity import assert_outputs_equal, assert_states_equal

NUM_ENVS = 4


def _vector(cls=VectorCircuitEnv, env_id="opamp-p2s-v0", autoreset=True, max_steps=4):
    template = repro.make_env(env_id, seed=None, max_steps=max_steps)
    vector_env = cls.from_env(template, num_envs=NUM_ENVS, seed=0, autoreset=autoreset)
    vector_env.reset()
    return vector_env


def _snapshot(vector_env):
    """Everything a step could change, copied."""
    return [
        (
            env.netlist.parameter_array().tobytes(),
            env.parameter_values.tobytes(),
            env.measured_specs,
            env.target_specs,
            env._step_count,
            env._done,
            copy.deepcopy(env.trajectory),
            repr(vector_env.cache.stats),
            list(vector_env.cache._entries),
        )
        for env in vector_env.envs
    ]


def _assert_trajectories_equal(a, b):
    for x, y in zip(a, b, strict=True):
        assert (x[0], x[1], x[2], x[3], x[4], x[5], x[7], x[8]) == (
            y[0], y[1], y[2], y[3], y[4], y[5], y[7], y[8]
        )
        assert x[6].target_specs == y[6].target_specs
        for r, s in zip(x[6].records, y[6].records, strict=True):
            assert r.parameters.tobytes() == s.parameters.tobytes()
            assert (r.step, r.specs, r.reward, r.goal_reached) == (
                s.step, s.specs, s.reward, s.goal_reached
            )


def _assert_atomic(vector_env, call, error, match=None):
    before = _snapshot(vector_env)
    with pytest.raises(error, match=match) as raised:
        call()
    _assert_trajectories_equal(before, _snapshot(vector_env))
    return raised.value


class TestAtomicErrors:
    def test_wrong_shape(self):
        single, reference = _vector(), _vector(ReferenceVectorEnv)
        actions = np.ones((NUM_ENVS - 1, single.num_parameters), dtype=np.int64)
        error = _assert_atomic(single, lambda: single.step(actions), ValueError)
        with pytest.raises(ValueError) as expected:
            reference.step(actions)
        assert str(error) == str(expected.value)

    @pytest.mark.parametrize("bad", [3, 7, -1])
    def test_action_entry_out_of_range(self, bad):
        single, reference = _vector(), _vector(ReferenceVectorEnv)
        actions = np.ones((NUM_ENVS, single.num_parameters), dtype=np.int64)
        actions[2, 1] = bad  # lanes 0 and 1 are valid
        error = _assert_atomic(single, lambda: single.step(actions), ValueError)
        with pytest.raises(ValueError) as expected:
            reference.step(actions)
        assert str(error) == str(expected.value)

    @pytest.mark.parametrize(
        "indices, match",
        [
            ([1, 1], "distinct"),
            ([-1], "outside"),
            ([NUM_ENVS], "outside"),
            ([True], "not an integer"),
            ([0.0], "not an integer"),
            ([], "no sub-environment"),
        ],
    )
    def test_irregular_indices(self, indices, match):
        single = _vector(autoreset=False)
        actions = np.ones((len(indices), single.num_parameters), dtype=np.int64)
        _assert_atomic(
            single, lambda: single.step_selected(indices, actions), ValueError, match
        )

    def test_finished_selected_lane(self):
        single = _vector(autoreset=False)
        one = np.ones((1, single.num_parameters), dtype=np.int64)
        for _ in range(4):
            single.step_selected([2], one)
        two = np.ones((2, single.num_parameters), dtype=np.int64)
        _assert_atomic(
            single, lambda: single.step_selected([0, 2], two), RuntimeError, "finished"
        )
        # Unfinished lanes keep stepping.
        single.step_selected([0], one)

    def test_finished_lane_without_autoreset(self):
        single = _vector(autoreset=False, max_steps=1)
        actions = np.ones((NUM_ENVS, single.num_parameters), dtype=np.int64)
        single.step(actions)
        _assert_atomic(single, lambda: single.step(actions), RuntimeError, "finished")

    def test_incomplete_target_group(self):
        single, reference = _vector(), _vector(ReferenceVectorEnv)
        for vector_env in (single, reference):
            targets = vector_env.envs[2].target_specs
            del targets["gain"]
            # The reset itself raises building its observation, leaving the
            # lane live with the incomplete group.
            with pytest.raises(KeyError):
                vector_env.envs[2].reset(target_specs=targets)
        actions = np.ones((NUM_ENVS, single.num_parameters), dtype=np.int64)
        error = _assert_atomic(single, lambda: single.step(actions), KeyError, "gain")
        assert "missing target specifications" in str(error)
        with pytest.raises(KeyError):
            reference.step(actions)


class ShiftedReward(P2SReward):
    """Eq. (1) plus 100: a swap to it shows in every reward."""

    def __call__(self, measured, targets, valid=True):
        outcome = super().__call__(measured, targets, valid=valid)
        return dataclasses.replace(outcome, reward=outcome.reward + 100.0)


class TestLiveConfiguration:
    def _run_with_swap(self, swap, steps=6):
        """Rewards of each step, the swap made before the third."""
        single, reference = _vector(), _vector(ReferenceVectorEnv)
        rng = np.random.default_rng(3)
        rewards = []
        for step in range(steps):
            if step == 2:
                swap(single)
                swap(reference)
            actions = rng.integers(0, 3, size=(NUM_ENVS, single.num_parameters))
            output = single.step(actions)
            assert_outputs_equal(output, reference.step(actions))
            assert_states_equal(single, reference)
            rewards.append(output[1])
        return rewards

    def test_reward_swap(self):
        def swap(vector_env):
            reward = ShiftedReward(vector_env.benchmark.spec_space)
            for env in vector_env.envs:
                env.reward_fn = reward

        rewards = self._run_with_swap(swap)
        assert all(np.all(step < 50.0) for step in rewards[:2])
        assert all(np.all(step > 50.0) for step in rewards[2:])

    def test_simulator_swap(self):
        """From the shared cache (replayed) to a bare MNA simulator (batched)."""

        def swap(vector_env):
            simulator = OpAmpSimulator(method="mna")
            for env in vector_env.envs:
                env.simulator = simulator

        self._run_with_swap(swap)

    def test_swap_to_a_cache_subclass(self):
        """From the replayed exact cache type to the per-lane path."""

        class LocalCache(SimulationCache):
            pass

        def swap(vector_env):
            cache = LocalCache(OpAmpSimulator(), max_entries=8)
            for env in vector_env.envs:
                env.simulator = cache

        self._run_with_swap(swap)

    def test_max_steps_and_autoreset_swap(self):
        def swap(vector_env):
            vector_env.autoreset = False
            for env in vector_env.envs:
                env.max_steps = 50

        self._run_with_swap(swap)
