"""Where a lane's state lives, and what the episode engine hands out.

* **Lane agreement.**  The engine builds its topology once, from its lanes;
  lanes that disagree on it (no lanes, another benchmark object, an edited
  non-tunable netlist parameter, an extra device) are rejected at
  construction.
* **Aliasing.**  Each lane-step keeps one copy of the measured specs on the
  lane and hands out one more, shared by the trajectory record,
  ``info["specs"]`` and the observation row; the observation's target dict
  is the episode's ``trajectory.target_specs``.  No object the engine hands
  out is one it reads again: scribbling over every handed-out dict and
  array changes neither the lane's state nor the next step's observation,
  reward or cache key.
* **NaN starts.**  A start sizing containing NaN raises before any lane's
  rng, netlist or state changes; ±inf is clipped onto the bound.
"""

from __future__ import annotations

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest

import repro
from repro.circuits import build_two_stage_opamp
from repro.circuits.devices import capacitor
from repro.env.circuit_env import BatchedCircuitEnv, CircuitDesignEnv
from repro.parallel import VectorCircuitEnv

NUM_ENVS = 4


def _lane(benchmark, simulator, edit=None, seed=0):
    """A lane over ``benchmark`` whose working netlist ``edit`` changed first."""
    netlist = benchmark.fresh_netlist()
    if edit is not None:
        edit(netlist)
    with mock.patch.object(benchmark, "fresh_netlist", return_value=netlist):
        return CircuitDesignEnv(benchmark, simulator, seed=seed)


def _edit_supply(netlist):
    netlist.set_parameter("VP", "voltage", 1.0)


def _add_device(netlist):
    netlist.add_device(capacitor("CX", "vout", "vgnd", 1e-12))


class TestLaneAgreement:
    @pytest.mark.parametrize("cls", [BatchedCircuitEnv, VectorCircuitEnv])
    def test_empty_lane_list(self, cls):
        with pytest.raises(ValueError, match=f"^{cls.__name__} needs at least one"):
            cls([])

    def test_different_topology_name(self):
        opamp = repro.make_env("opamp-p2s-v0", seed=0)
        rf_pa = repro.make_env("rf_pa-fine-v0", seed=0)
        with pytest.raises(ValueError, match="one circuit topology"):
            BatchedCircuitEnv([opamp, rf_pa])

    def test_same_name_other_benchmark_object(self):
        simulator = repro.make_env("opamp-p2s-v0").simulator
        first = CircuitDesignEnv(build_two_stage_opamp(), simulator)
        second = CircuitDesignEnv(build_two_stage_opamp(), simulator)
        assert first.benchmark.name == second.benchmark.name
        with pytest.raises(ValueError, match="one benchmark object"):
            VectorCircuitEnv([first, second])

    @pytest.mark.parametrize("edited", [0, 1])
    def test_edited_non_tunable_parameter(self, edited):
        template = repro.make_env("opamp-p2s-v0")
        lanes = [
            _lane(template.benchmark, template.simulator, _edit_supply if i == edited else None)
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="non-tunable"):
            VectorCircuitEnv(lanes)

    @pytest.mark.parametrize("edited", [0, 1])
    def test_added_device(self, edited):
        template = repro.make_env("opamp-p2s-v0")
        lanes = [
            _lane(template.benchmark, template.simulator, _add_device if i == edited else None)
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="graph"):
            BatchedCircuitEnv(lanes)

    def test_agreeing_lanes_accepted(self):
        template = repro.make_env("opamp-p2s-v0")
        lanes = [_lane(template.benchmark, template.simulator, seed=i) for i in range(3)]
        assert BatchedCircuitEnv(lanes).num_envs == 3


# ----------------------------------------------------------------------
# Aliasing
# ----------------------------------------------------------------------
def _scribble(obj, seen=None):
    """Overwrite every writable array and dict value reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if obj.flags.writeable:
            obj[...] = -7
    elif isinstance(obj, dict):
        for key in list(obj):
            _scribble(obj[key], seen)
            obj[key] = -7.0
        obj["scribbled"] = -7.0
    elif isinstance(obj, list):
        for item in obj:
            _scribble(item, seen)
    elif dataclasses.is_dataclass(obj):
        for item in dataclasses.fields(obj):
            _scribble(getattr(obj, item.name), seen)


def _handed_out_arrays(batch):
    return [
        batch.node_features,
        batch.static_node_features,
        batch.adjacency,
        batch.spec_features,
        batch.normalized_parameters,
    ]


def _vector():
    template = repro.make_env("opamp-p2s-v0", seed=None, max_steps=40)
    vector_env = VectorCircuitEnv.from_env(template, num_envs=NUM_ENVS, seed=3)
    return vector_env, np.random.default_rng(11)


class TestAliasing:
    def test_one_handed_out_measured_copy_per_lane_step(self):
        vector_env, rng = _vector()
        batch = vector_env.reset()
        for row, env in enumerate(vector_env.envs):
            assert batch.measured_specs[row] is not env._measured
            assert batch.target_specs[row] is env.trajectory.target_specs
            assert env.trajectory.target_specs is not env._targets
        actions = np.stack([vector_env.action_space.sample(rng) for _ in range(NUM_ENVS)])
        batch, _, dones, infos = vector_env.step(actions)
        assert not dones.any()
        for row, env in enumerate(vector_env.envs):
            handed = infos[row]["specs"]
            assert handed is env.trajectory.records[-1].specs
            assert handed is batch.measured_specs[row]
            assert handed is not env._measured
            assert handed == env._measured
            assert batch.target_specs[row] is env.trajectory.target_specs

    def test_one_lane_step_shares_the_same_copy(self):
        env = repro.make_env("opamp-p2s-v0", seed=5)
        env.reset()
        observation, _, _, info = env.step(env.action_space.sample(np.random.default_rng(0)))
        assert info["specs"] is env.trajectory.records[-1].specs
        assert info["specs"] is observation.measured_specs
        assert info["specs"] is not env._measured
        assert observation.target_specs is env.trajectory.target_specs

    def test_handed_out_arrays_are_fresh_or_read_only(self):
        vector_env, rng = _vector()
        first = vector_env.reset()
        actions = np.stack([vector_env.action_space.sample(rng) for _ in range(NUM_ENVS)])
        second = vector_env.step(actions)[0]
        for a, b in zip(_handed_out_arrays(first), _handed_out_arrays(second)):
            assert not (a.flags.writeable and np.shares_memory(a, b))

    def test_scribbling_changes_nothing_the_engine_reads(self):
        scribbled, rng = _vector()
        clean, _ = _vector()
        for vector_env in (scribbled, clean):
            vector_env.reset()
        for step in range(6):
            actions = np.stack([scribbled.action_space.sample(rng) for _ in range(NUM_ENVS)])
            out = scribbled.step(actions)
            expected = clean.step(actions)
            if step:
                # The step after a scribble sees none of it.
                _assert_steps_equal(out, expected, scribbled)
            _scribble(list(out))
            _scribble([env.trajectory for env in scribbled.envs])
            for env, other in zip(scribbled.envs, clean.envs):
                assert env.measured_specs == other.measured_specs
                assert env.target_specs == other.target_specs
                assert env.parameter_values.tobytes() == other.parameter_values.tobytes()
            assert list(scribbled.cache._entries) == list(clean.cache._entries)

    def test_scribbling_a_one_lane_episode(self):
        scribbled = repro.make_env("opamp-p2s-v0", seed=8)
        clean = repro.make_env("opamp-p2s-v0", seed=8)
        start = scribbled.benchmark.design_space.center()
        _scribble(scribbled.reset(initial_parameters=start))
        clean.reset(initial_parameters=start)
        rng = np.random.default_rng(2)
        for _ in range(4):
            action = scribbled.action_space.sample(rng)
            observation, reward, done, info = scribbled.step(action)
            expected = clean.step(action)
            assert reward == expected[1] and done == expected[2]
            assert observation.node_features.tobytes() == expected[0].node_features.tobytes()
            assert observation.spec_features.tobytes() == expected[0].spec_features.tobytes()
            assert observation.measured_specs == expected[0].measured_specs
            assert info["specs"] == expected[3]["specs"]
            _scribble([observation, info, scribbled.trajectory])
            assert scribbled.measured_specs == clean.measured_specs
            assert scribbled.parameter_values.tobytes() == clean.parameter_values.tobytes()


def _assert_steps_equal(out, expected, vector_env):
    batch, rewards, dones, infos = out
    clean_batch, clean_rewards, clean_dones, clean_infos = expected
    for a, b in zip(_handed_out_arrays(batch), _handed_out_arrays(clean_batch)):
        assert a.tobytes() == b.tobytes()
    assert batch.measured_specs == clean_batch.measured_specs
    assert rewards.tobytes() == clean_rewards.tobytes()
    assert dones.tobytes() == clean_dones.tobytes()
    assert [info["specs"] for info in infos] == [info["specs"] for info in clean_infos]
    for row, env in enumerate(vector_env.envs):
        # The target dict is the episode's handed-out copy, shared on purpose.
        assert batch.target_specs[row] is env.trajectory.target_specs


# ----------------------------------------------------------------------
# NaN starts
# ----------------------------------------------------------------------
def _lane_state(env):
    return (
        copy.deepcopy(env.rng.bit_generator.state),
        env.netlist.parameter_array().tobytes(),
        env.parameter_values.tobytes(),
        env.measured_specs,
        env.target_specs,
        env._step_count,
        env._done,
        copy.deepcopy(env.trajectory),
    )


def _assert_state_unchanged(before, env):
    after = _lane_state(env)
    assert before[:7] == after[:7]
    assert before[7].target_specs == after[7].target_specs
    assert len(before[7].records) == len(after[7].records)


class TestNanStart:
    def test_one_lane(self):
        env = repro.make_env("opamp-p2s-v0", seed=1, initial_sizing="random")
        env.reset()
        env.step(env.action_space.no_op())
        start = env.benchmark.design_space.center()
        start[3] = np.nan
        before = _lane_state(env)
        with pytest.raises(ValueError, match="NaN"):
            env.reset(initial_parameters=start)
        _assert_state_unchanged(before, env)
        with pytest.raises(ValueError, match="NaN"):
            env.reset(initial_parameters=np.full(env.num_parameters, np.nan))
        _assert_state_unchanged(before, env)

    @pytest.mark.parametrize("shared_row", [True, False])
    def test_several_lanes(self, shared_row):
        template = repro.make_env("opamp-p2s-v0", seed=None, initial_sizing="random")
        vector_env = VectorCircuitEnv.from_env(template, num_envs=NUM_ENVS, seed=4)
        vector_env.reset()
        center = vector_env.benchmark.design_space.center()
        bad = center.copy()
        bad[-1] = np.nan
        starts = bad if shared_row else np.vstack([center] * (NUM_ENVS - 1) + [bad])
        before = [_lane_state(env) for env in vector_env.envs]
        stats = repr(vector_env.cache.stats)
        with pytest.raises(ValueError, match="NaN"):
            vector_env.reset(initial_parameters=starts)
        with pytest.raises(ValueError, match="NaN"):
            vector_env.reset_selected([2, 0], initial_parameters=np.vstack([center, bad]))
        for state, env in zip(before, vector_env.envs):
            _assert_state_unchanged(state, env)
        assert repr(vector_env.cache.stats) == stats

    def test_infinite_start_is_clipped_onto_the_bound(self):
        env = repro.make_env("opamp-p2s-v0", seed=1)
        space = env.benchmark.design_space
        env.reset(initial_parameters=np.full(env.num_parameters, np.inf))
        np.testing.assert_allclose(env.parameter_values, space.upper_bounds, rtol=1e-12)
        env.reset(initial_parameters=np.full(env.num_parameters, -np.inf))
        np.testing.assert_allclose(env.parameter_values, space.lower_bounds, rtol=1e-12)
        assert all(np.isfinite(value) for value in env.measured_specs.values())
