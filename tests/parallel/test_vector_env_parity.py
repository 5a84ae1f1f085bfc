"""Vector/sequential parity: the vector path must be bit-for-bit sequential.

``VectorCircuitEnv.from_env(env, num_envs=k, seed=s)`` sub-environment ``i``
must reproduce a sequential environment seeded ``s + i`` exactly —
identical observations, rewards, termination flags and terminal FoMs — under
identical action sequences.  This is the guarantee that makes ``num_envs`` a
pure throughput knob.  The sequential side is ``ReferenceCircuitEnv``
(``step_reference.py``), the per-environment step and reset, since
``CircuitDesignEnv`` itself runs as one lane of the same engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_env
from repro.parallel import SimulationCache, VectorCircuitEnv
from step_reference import ReferenceCircuitEnv

NUM_ENVS = 4
STEPS = 25


def _observations_equal(vector_row, sequential):
    assert np.array_equal(vector_row.node_features, sequential.node_features)
    assert np.array_equal(vector_row.static_node_features, sequential.static_node_features)
    assert np.array_equal(vector_row.adjacency, sequential.adjacency)
    assert np.array_equal(vector_row.spec_features, sequential.spec_features)
    assert np.array_equal(vector_row.normalized_parameters, sequential.normalized_parameters)
    assert vector_row.measured_specs == sequential.measured_specs
    assert vector_row.target_specs == sequential.target_specs


def _run_parity(env_id: str, seed: int = 123) -> None:
    vector_env = make_env(env_id, seed=seed, num_envs=NUM_ENVS)
    assert isinstance(vector_env, VectorCircuitEnv)
    sequential = [
        ReferenceCircuitEnv.like(make_env(env_id, seed=seed + i)) for i in range(NUM_ENVS)
    ]

    batch = vector_env.reset()
    reference = [env.reset() for env in sequential]
    for i in range(NUM_ENVS):
        _observations_equal(batch[i], reference[i])

    # Drive both sides with identical per-env action streams; on episode end
    # the vector env autoresets, which the sequential side mirrors manually.
    action_rngs = [np.random.default_rng(10_000 + seed + i) for i in range(NUM_ENVS)]
    for _ in range(STEPS):
        actions = np.stack(
            [vector_env.action_space.sample(rng) for rng in action_rngs]
        )
        batch, rewards, dones, infos = vector_env.step(actions)
        for i, env in enumerate(sequential):
            observation, reward, done, info = env.step(actions[i])
            assert reward == rewards[i]
            assert done == dones[i]
            assert info["specs"] == infos[i]["specs"]
            assert info["goal_reached"] == infos[i]["goal_reached"]
            assert info["met_fraction"] == infos[i]["met_fraction"]
            if "figure_of_merit" in info:
                assert info["figure_of_merit"] == infos[i]["figure_of_merit"]
            if done:
                _observations_equal(infos[i]["terminal_observation"], observation)
                observation = env.reset()
            _observations_equal(batch[i], observation)


class TestBitwiseParity:
    def test_opamp_p2s(self):
        _run_parity("opamp-p2s-v0")

    def test_rf_pa_coarse(self):
        _run_parity("rf_pa-coarse-v0")

    def test_rf_pa_fom_terminal_foms(self):
        """FoM mode: per-step and terminal figures of merit match exactly."""
        seed = 7
        vector_env = make_env("rf_pa-fom-v0", seed=seed, num_envs=NUM_ENVS)
        sequential = [
            ReferenceCircuitEnv.like(make_env("rf_pa-fom-v0", seed=seed + i))
            for i in range(NUM_ENVS)
        ]
        vector_env.reset()
        for env in sequential:
            env.reset()
        rng = np.random.default_rng(99)
        sequential_done = [False] * NUM_ENVS
        for _ in range(vector_env.max_steps):
            actions = np.stack(
                [vector_env.action_space.sample(rng) for _ in range(NUM_ENVS)]
            )
            _, _, dones, infos = vector_env.step(actions)
            for i, env in enumerate(sequential):
                if sequential_done[i]:
                    continue
                _, _, done, info = env.step(actions[i])
                assert info["figure_of_merit"] == infos[i]["figure_of_merit"]
                sequential_done[i] = done
        # FoM episodes only end on the step budget, so every env terminated
        # on the same (final) step with the same terminal FoM.
        assert all(sequential_done)


class TestSharedCacheNeutrality:
    def test_cache_does_not_change_results(self):
        """A shared cache must be invisible in the numbers."""
        seed = 5
        cached = make_env("opamp-p2s-v0", seed=seed, num_envs=3, cache_size=256)
        uncached = VectorCircuitEnv.from_env(
            make_env("opamp-p2s-v0", seed=seed), num_envs=3, seed=seed, cache_size=None
        )
        batch_a = cached.reset()
        batch_b = uncached.reset()
        rng = np.random.default_rng(0)
        for _ in range(10):
            actions = np.stack([cached.action_space.sample(rng) for _ in range(3)])
            batch_a, rewards_a, dones_a, _ = cached.step(actions)
            batch_b, rewards_b, dones_b, _ = uncached.step(actions)
            assert np.array_equal(rewards_a, rewards_b)
            assert np.array_equal(dones_a, dones_b)
            assert np.array_equal(batch_a.spec_features, batch_b.spec_features)
        assert cached.cache is not None
        assert cached.cache.stats.hits >= 2  # shared center reset, at least


class TestVectorEnvApi:
    def test_num_envs_one_is_sequential(self):
        env = make_env("opamp-p2s-v0", seed=0, num_envs=1)
        assert not isinstance(env, VectorCircuitEnv)

    def test_num_envs_one_with_cache_wraps_simulator(self):
        env = make_env("opamp-p2s-v0", seed=0, num_envs=1, cache_size=64)
        assert isinstance(env.simulator, SimulationCache)
        env.reset()
        env.reset()
        assert env.simulator.stats.hits == 1

    def test_invalid_num_envs(self):
        with pytest.raises(ValueError):
            make_env("opamp-p2s-v0", num_envs=0)

    def test_target_broadcast_and_per_env(self):
        venv = make_env("opamp-p2s-v0", seed=0, num_envs=3)
        target = venv.envs[0].sample_target()
        batch = venv.reset(target_specs=target)
        assert all(specs == dict(target) for specs in batch.target_specs)
        targets = [env.sample_target() for env in venv.envs]
        batch = venv.reset(target_specs=targets)
        assert batch.target_specs == [dict(t) for t in targets]
        with pytest.raises(ValueError):
            venv.reset(target_specs=targets[:2])

    def test_initial_parameter_matrix(self):
        venv = make_env("opamp-p2s-v0", seed=0, num_envs=2)
        space = venv.benchmark.design_space
        matrix = np.stack([space.lower_bounds, space.upper_bounds])
        venv.reset(initial_parameters=matrix)
        assert np.array_equal(venv.parameter_values, space.snap_vector(matrix))

    def test_step_shape_validation(self):
        venv = make_env("opamp-p2s-v0", seed=0, num_envs=2)
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.ones(venv.num_parameters, dtype=np.int64))

    def test_autoreset_off_raises_on_finished_episode(self):
        venv = VectorCircuitEnv.from_env(
            make_env("rf_pa-fom-v0", seed=0), num_envs=2, seed=0, autoreset=False
        )
        venv.reset()
        noop = np.stack([venv.action_space.no_op()] * 2)
        for _ in range(venv.max_steps):
            _, _, dones, _ = venv.step(noop)
        assert dones.all()
        with pytest.raises(RuntimeError):
            venv.step(noop)

    def test_mixed_topologies_rejected(self):
        opamp = make_env("opamp-p2s-v0", seed=0)
        rf_pa = make_env("rf_pa-fine-v0", seed=0)
        with pytest.raises(ValueError):
            VectorCircuitEnv([opamp, rf_pa])
