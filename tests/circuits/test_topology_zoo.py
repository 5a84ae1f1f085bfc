"""Shared contract every ``*-p2s-v0`` environment must satisfy.

Parametrized over the registry, so a new topology cannot register without
passing: reset/step episode mechanics, the Eq. (1) goal bonus, bitwise
sequential/vector parity at ``num_envs=4``, one ``optimize()`` smoke run per
registered optimizer, and on-grid initial sizing of its benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.circuits import BENCHMARK_BUILDERS, Objective
from repro.env.reward import GOAL_BONUS
from repro.parallel import VectorCircuitEnv

#: Every parameter-to-specification environment in the registry (the paper's
#: op-amp plus the three topology-zoo circuits).
P2S_ENV_IDS = sorted(env_id for env_id in repro.list_envs() if env_id.endswith("-p2s-v0"))

#: The zoo additions alone (used by the issue's acceptance criterion).
ZOO_ENV_IDS = [env_id for env_id in P2S_ENV_IDS if env_id != "opamp-p2s-v0"]

NUM_ENVS = 4


def _easy_target(env):
    """A target group the current (post-reset) measured specs already meet."""
    target = {}
    for spec in env.benchmark.spec_space:
        measured = env.measured_specs[spec.name]
        if spec.objective is Objective.MAXIMIZE:
            target[spec.name] = measured * 0.8
        else:
            target[spec.name] = measured * 1.25
    return target


class TestRegistryCoverage:
    def test_at_least_three_new_circuit_ids(self):
        assert len(ZOO_ENV_IDS) >= 3

    def test_every_zoo_circuit_has_a_random_variant(self):
        env_ids = set(repro.list_envs())
        for env_id in ZOO_ENV_IDS:
            assert env_id.replace("-p2s-v0", "-random-v0") in env_ids

    def test_zoo_circuits_in_benchmark_builders(self):
        for env_id in ZOO_ENV_IDS:
            assert env_id.replace("-p2s-v0", "") in BENCHMARK_BUILDERS


@pytest.mark.parametrize("env_id", P2S_ENV_IDS)
class TestEpisodeContract:
    def test_reset_and_step(self, env_id):
        env = repro.make_env(env_id, seed=0)
        observation = env.reset()
        assert observation.node_features.shape == (
            env.num_graph_nodes, env.node_feature_dimension
        )
        assert observation.spec_features.shape == (env.spec_feature_dimension,)
        assert set(env.measured_specs) == set(env.benchmark.spec_space.names)
        rng = np.random.default_rng(0)
        done = False
        for _ in range(3):
            assert not done
            _, reward, done, info = env.step(env.action_space.sample(rng))
            assert np.isfinite(reward)
            assert set(info["specs"]) == set(env.benchmark.spec_space.names)
            assert 0.0 <= info["met_fraction"] <= 1.0

    def test_initial_simulation_is_valid(self, env_id):
        """The center sizing must be a healthy design point to start from."""
        env = repro.make_env(env_id, seed=0)
        env.reset()
        result = env.simulator.simulate(env.netlist)
        assert result.valid

    def test_goal_bonus_and_termination(self, env_id):
        env = repro.make_env(env_id, seed=0)
        env.reset()
        env.reset(target_specs=_easy_target(env))
        keep = np.ones(env.num_parameters, dtype=np.int64)
        _, reward, done, info = env.step(keep)
        assert reward == GOAL_BONUS
        assert info["goal_reached"]
        assert done

    def test_random_initial_sizing_variant(self, env_id):
        random_id = env_id.replace("-p2s-v0", "-random-v0")
        if random_id not in repro.list_envs():
            pytest.skip(f"{env_id} has no -random-v0 variant")
        env_a = repro.make_env(random_id, seed=3)
        env_b = repro.make_env(random_id, seed=4)
        env_a.reset()
        env_b.reset()
        assert not np.array_equal(env_a.parameter_values, env_b.parameter_values)

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


@pytest.mark.parametrize("optimizer_id", sorted(repro.list_optimizers()))
@pytest.mark.parametrize("env_id", P2S_ENV_IDS)
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
        assert set(result.best_specs) <= set(env.benchmark.spec_space.names) | {
            "output_power", "efficiency"
        }


@pytest.mark.parametrize(
    "circuit", sorted(set(BENCHMARK_BUILDERS) - {"two_stage_opamp", "rf_pa"})
)
class TestZooBenchmarkDefinitions:
    def test_initial_sizing_on_grid(self, circuit):
        benchmark = BENCHMARK_BUILDERS[circuit]()
        values = benchmark.design_space.vector_from_netlist(benchmark.netlist)
        snapped = benchmark.design_space.snap_vector(values)
        assert np.array_equal(values, snapped)

    def test_summary_counts(self, circuit):
        benchmark = BENCHMARK_BUILDERS[circuit]()
        summary = benchmark.summary()
        assert summary["num_device_parameters"] == benchmark.num_parameters
        assert summary["num_specifications"] == benchmark.num_specs
        assert summary["design_space_cardinality"] > 1.0

    def test_sampling_space_reachable(self, circuit):
        """Some sampled targets must be satisfiable by random grid designs."""
        benchmark = BENCHMARK_BUILDERS[circuit]()
        env_id = f"{circuit}-p2s-v0"
        env = repro.make_env(env_id, seed=0)
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
        assert hits >= 4, f"only {hits}/20 sampled targets reachable for {circuit}"
