"""Shared contract every ``*-corners-v0`` environment must satisfy.

Mirrors ``tests/circuits/test_topology_zoo.py`` with the corner-specific
deltas: ``info["specs"]`` carries the per-corner ``spec@corner`` keys on top
of the plain worst-corner entries (superset, not equality), rewards come
from :class:`~repro.corners.YieldP2SReward`, and the whole stack must agree
bitwise with the per-corner reference loop
(``corner_reference.SequentialCornerSimulator``).
"""

from __future__ import annotations

import numpy as np
import pytest
from corner_reference import SequentialCornerSimulator

import repro
from repro.circuits import BENCHMARK_BUILDERS, Objective
from repro.corners import CornerSimulator, default_corner_set
from repro.env.reward import GOAL_BONUS
from repro.parallel import VectorCircuitEnv

#: Every corner-sweep environment in the registry (the full five-circuit zoo).
CORNERS_ENV_IDS = sorted(
    env_id for env_id in repro.list_envs() if env_id.endswith("-corners-v0")
)

NUM_ENVS = 4


def _easy_target(env):
    """A target group the current worst-corner measurements already meet."""
    target = {}
    for spec in env.benchmark.spec_space:
        measured = env.measured_specs[spec.name]
        if spec.objective is Objective.MAXIMIZE:
            target[spec.name] = measured * 0.8
        else:
            target[spec.name] = measured * 1.25
    return target


class TestRegistryCoverage:
    def test_every_zoo_circuit_has_a_corners_variant(self):
        # The paper's op-amp keeps its legacy "opamp-*" id in the catalog.
        expected = {
            "opamp-corners-v0" if circuit == "two_stage_opamp"
            else f"{circuit}-corners-v0"
            for circuit in BENCHMARK_BUILDERS
        }
        assert set(CORNERS_ENV_IDS) == expected

    def test_corners_envs_wrap_a_corner_simulator(self):
        for env_id in CORNERS_ENV_IDS:
            env = repro.make_env(env_id, seed=0)
            assert isinstance(env.simulator, CornerSimulator)
            assert env.simulator.corner_set.names == default_corner_set().names


@pytest.mark.parametrize("env_id", CORNERS_ENV_IDS)
class TestEpisodeContract:
    def test_reset_and_step(self, env_id):
        env = repro.make_env(env_id, seed=0)
        observation = env.reset()
        assert observation.node_features.shape == (
            env.num_graph_nodes, env.node_feature_dimension
        )
        assert observation.spec_features.shape == (env.spec_feature_dimension,)
        spec_names = set(env.benchmark.spec_space.names)
        # Worst-corner values under the plain names, per-corner values behind
        # them: a superset of the nominal env's measurement dict.
        assert set(env.measured_specs) >= spec_names
        for name in spec_names:
            for corner in default_corner_set():
                assert f"{name}@{corner.name}" in env.measured_specs
        rng = np.random.default_rng(0)
        done = False
        for _ in range(3):
            assert not done
            _, reward, done, info = env.step(env.action_space.sample(rng))
            assert np.isfinite(reward)
            assert set(info["specs"]) >= spec_names
            assert 0.0 <= info["met_fraction"] <= 1.0

    def test_initial_simulation_is_valid_at_every_corner(self, env_id):
        """The center sizing must survive the whole five-corner sweep."""
        env = repro.make_env(env_id, seed=0)
        env.reset()
        result = env.simulator.simulate(env.netlist)
        assert result.valid
        for corner in default_corner_set():
            assert result.details[f"corner_valid@{corner.name}"]

    def test_goal_bonus_and_termination(self, env_id):
        env = repro.make_env(env_id, seed=0)
        env.reset()
        env.reset(target_specs=_easy_target(env))
        keep = np.ones(env.num_parameters, dtype=np.int64)
        _, reward, done, info = env.step(keep)
        assert reward == GOAL_BONUS
        assert info["goal_reached"]
        assert done

    def test_worst_corner_gates_the_goal(self, env_id):
        """A target met at the typical corner but missed at the worst corner
        must not collect the goal bonus."""
        env = repro.make_env(env_id, seed=0)
        env.reset()
        target = {}
        squeezed = False
        for spec in env.benchmark.spec_space:
            worst = env.measured_specs[spec.name]
            typical = env.measured_specs[f"{spec.name}@typical"]
            if spec.objective is Objective.MAXIMIZE:
                midpoint = (worst + typical) / 2.0
                if midpoint > worst:
                    target[spec.name] = midpoint
                    squeezed = True
                else:
                    target[spec.name] = worst * 0.8
            else:
                midpoint = (worst + typical) / 2.0
                if midpoint < worst:
                    target[spec.name] = midpoint
                    squeezed = True
                else:
                    target[spec.name] = worst * 1.25
        if not squeezed:
            pytest.skip(f"{env_id}: no corner spread at the center sizing")
        env.reset(target_specs=target)
        keep = np.ones(env.num_parameters, dtype=np.int64)
        _, reward, done, info = env.step(keep)
        assert not info["goal_reached"]
        assert reward < GOAL_BONUS

    def test_vector_parity(self, env_id):
        """Sub-env ``i`` of ``num_envs=4, seed=s`` equals sequential ``s+i``."""
        seed = 11
        vector_env = repro.make_env(env_id, seed=seed, num_envs=NUM_ENVS)
        assert isinstance(vector_env, VectorCircuitEnv)
        sequential = [repro.make_env(env_id, seed=seed + i) for i in range(NUM_ENVS)]
        batch = vector_env.reset()
        reference = [env.reset() for env in sequential]
        for i in range(NUM_ENVS):
            assert np.array_equal(batch[i].spec_features, reference[i].spec_features)
        rngs = [np.random.default_rng(500 + i) for i in range(NUM_ENVS)]
        for _ in range(4):
            actions = np.stack([vector_env.action_space.sample(rng) for rng in rngs])
            batch, rewards, dones, infos = vector_env.step(actions)
            for i, env in enumerate(sequential):
                observation, reward, done, info = env.step(actions[i])
                assert reward == rewards[i]
                assert done == dones[i]
                assert info["specs"] == infos[i]["specs"]
                if done:
                    observation = env.reset()
                assert np.array_equal(batch[i].spec_features, observation.spec_features)

    def test_corner_lanes_are_bitwise_the_reference_loop(self, env_id):
        """An episode through the corner lanes equals the sequential loop."""
        batched = repro.make_env(env_id, seed=0)
        sequential = repro.make_env(env_id, seed=0)
        corners = sequential.simulator
        sequential.simulator = SequentialCornerSimulator(
            corners.base_simulator, corner_set=corners.corner_set, spec_space=corners.spec_space
        )
        batched.reset()
        sequential.reset()
        rng = np.random.default_rng(2)
        for _ in range(3):
            action = batched.action_space.sample(rng)
            _, reward_b, done_b, info_b = batched.step(action)
            _, reward_s, done_s, info_s = sequential.step(action)
            assert reward_b == reward_s
            assert done_b == done_s
            assert info_b["specs"] == info_s["specs"]
            if done_b:
                batched.reset()
                sequential.reset()


@pytest.mark.parametrize("optimizer_id", sorted(repro.list_optimizers()))
@pytest.mark.parametrize("env_id", CORNERS_ENV_IDS)
class TestOptimizerContract:
    def test_optimize_smoke(self, env_id, optimizer_id):
        env = repro.make_env(env_id, seed=0, max_steps=8)
        if optimizer_id == "ppo":
            optimizer = repro.make_optimizer("ppo", episodes_per_update=2)
            budget = 2
        elif optimizer_id == "supervised":
            optimizer = repro.make_optimizer("supervised", epochs=2)
            budget = 16
        else:
            optimizer = repro.make_optimizer(optimizer_id)
            budget = 8
        result = optimizer.optimize(env, budget=budget, seed=0)
        assert result.num_simulations > 0
        assert result.best_parameters.shape == (env.num_parameters,)
        assert np.isfinite(result.best_objective)


# Worst-corner satisfaction is strictly harder than nominal, so the floors
# sit below the nominal zoo test's ``hits >= 4``.  The folded cascode is
# excluded outright: its 0.52 V tail bias leaves ~26 mV of overdrive at
# slow/cold, so nominal-range targets are genuinely out of reach there (the
# goal-bonus test above still proves its easy targets are winnable).
@pytest.mark.parametrize(
    "circuit,floor",
    [("current_mirror_ota", 1), ("common_source_lna", 4)],
)
class TestCornerReachability:
    def test_sampling_space_reachable_at_worst_corner(self, circuit, floor):
        """Some sampled targets must be satisfiable under the full sweep."""
        benchmark = BENCHMARK_BUILDERS[circuit]()
        env = repro.make_env(f"{circuit}-corners-v0", seed=0)
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(20):
            target = benchmark.spec_space.sample(rng)
            for _ in range(120):
                netlist = benchmark.fresh_netlist()
                benchmark.design_space.apply_to_netlist(
                    netlist, benchmark.design_space.sample(rng)
                )
                result = env.simulator.simulate(netlist)
                if result.valid and benchmark.spec_space.all_met(result.specs, target):
                    hits += 1
                    break
        assert hits >= floor, f"only {hits}/20 sampled targets reachable for {circuit}"
