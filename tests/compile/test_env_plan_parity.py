"""Compiled episode plans: bitwise parity with the interpreted vector path.

The CI ``parity`` job runs this file per topology (one matrix leg each via
``-k``): every registered compiled topology is driven through full episodes
— autoresets included — at several batch widths and seeds, compiled and
interpreted side by side, and every observable (observations, rewards, done
flags, info dicts, terminal observations, netlist state, shared-cache
statistics) must match bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.parallel import VectorCircuitEnv

#: Every environment the compiled path runs, by circuit family.
COMPILED_ENV_IDS = [
    "opamp-p2s-v0",
    "opamp-mna-v0",
    "current_mirror_ota-p2s-v0",
    "current_mirror_ota-mna-v0",
]

STEPS = 12
MAX_STEPS = 5  # short episodes so the run crosses several autoresets


def _build(env_id, num_envs, seed, compile, cache_size):
    template = repro.make_env(env_id, seed=None, max_steps=MAX_STEPS)
    return VectorCircuitEnv.from_env(
        template, num_envs=num_envs, seed=seed, cache_size=cache_size, compile=compile
    )


def _observations_equal(a, b):
    assert a.node_features.tobytes() == b.node_features.tobytes()
    assert a.static_node_features.tobytes() == b.static_node_features.tobytes()
    assert a.adjacency.tobytes() == b.adjacency.tobytes()
    assert a.spec_features.tobytes() == b.spec_features.tobytes()
    assert a.normalized_parameters.tobytes() == b.normalized_parameters.tobytes()
    assert a.measured_specs == b.measured_specs
    assert a.target_specs == b.target_specs


def _infos_equal(a, b):
    assert set(a) == set(b)
    for key, value in a.items():
        if key == "terminal_observation":
            _observations_equal(value, b[key])
        else:
            assert value == b[key], key


def _run_parity(env_id, num_envs, seed, cache_size):
    compiled = _build(env_id, num_envs, seed, True, cache_size)
    interpreted = _build(env_id, num_envs, seed, False, cache_size)
    batch_c = compiled.reset()
    batch_i = interpreted.reset()
    rng = np.random.default_rng(seed + 1000)
    for _ in range(STEPS):
        for i in range(num_envs):
            _observations_equal(batch_c[i], batch_i[i])
        actions = rng.integers(0, 3, size=(num_envs, compiled.num_parameters))
        batch_c, rewards_c, dones_c, infos_c = compiled.step(actions)
        batch_i, rewards_i, dones_i, infos_i = interpreted.step(actions)
        assert np.asarray(rewards_c).tobytes() == np.asarray(rewards_i).tobytes()
        assert np.array_equal(dones_c, dones_i)
        for info_c, info_i in zip(infos_c, infos_i):
            _infos_equal(info_c, info_i)
    for env_c, env_i in zip(compiled.envs, interpreted.envs):
        values_c = env_c.data_processor.parameter_values
        values_i = env_i.data_processor.parameter_values
        assert values_c.tobytes() == values_i.tobytes()
    plan = compiled.compiled_plan
    assert plan is not None
    assert plan.steps_compiled == STEPS
    assert plan.fallback_steps == 0
    if cache_size is not None:
        assert compiled.cache is not None and interpreted.cache is not None
        assert compiled.cache.stats == interpreted.cache.stats
    return compiled


@pytest.mark.parametrize("env_id", COMPILED_ENV_IDS)
@pytest.mark.parametrize("num_envs", [2, 8])
@pytest.mark.parametrize("seed", [0, 123])
def test_bitwise_parity(env_id, num_envs, seed):
    _run_parity(env_id, num_envs, seed, cache_size=64)


@pytest.mark.parametrize("env_id", COMPILED_ENV_IDS)
def test_bitwise_parity_without_cache(env_id):
    """No shared cache: the batched fresh-results shortcut path."""
    _run_parity(env_id, 4, 7, cache_size=None)


@pytest.mark.parametrize("env_id", ["opamp-p2s-v0", "current_mirror_ota-mna-v0"])
def test_plan_is_cached_across_steps(env_id):
    env = _build(env_id, 2, 0, True, 64)
    env.reset()
    actions = np.ones((2, env.num_parameters), dtype=np.int64)
    for _ in range(3):
        env.step(actions)
    stats = env.plan_cache.stats
    assert stats.misses == 1  # one build (first step), then hits
    assert stats.hits == 2
    assert stats.failures == 0


def test_make_env_compile_flag_round_trip():
    env = repro.make_env("opamp-p2s-v0", seed=0, num_envs=3, compile=True)
    assert isinstance(env, VectorCircuitEnv)
    assert env.compile
    env.reset()
    actions = np.zeros((3, env.num_parameters), dtype=np.int64)
    env.step(actions)
    assert env.compiled_plan is not None
    assert env.compiled_fallback_reason is None


@pytest.mark.parametrize("env_id", COMPILED_ENV_IDS)
def test_plans_sharing_one_simulator_step_interleaved(env_id):
    """Two compiled vector envs of different widths share one simulator and
    step in turn; each matches its interpreted twin bit for bit."""

    def pair(compile):
        template = repro.make_env(env_id, seed=None, max_steps=MAX_STEPS)
        return [
            VectorCircuitEnv.from_env(
                template, num_envs=num_envs, seed=seed, cache_size=None, compile=compile
            )
            for num_envs, seed in ((3, 0), (5, 40))
        ]

    compiled, interpreted = pair(True), pair(False)
    assert compiled[0].envs[0].simulator is compiled[1].envs[0].simulator
    for env_c, env_i in zip(compiled, interpreted):
        env_c.reset()
        env_i.reset()
    rng = np.random.default_rng(5)
    for _ in range(STEPS):
        for env_c, env_i in zip(compiled, interpreted):
            actions = rng.integers(0, 3, size=(env_c.num_envs, env_c.num_parameters))
            batch_c, rewards_c, dones_c, infos_c = env_c.step(actions)
            batch_i, rewards_i, dones_i, infos_i = env_i.step(actions)
            assert np.asarray(rewards_c).tobytes() == np.asarray(rewards_i).tobytes()
            assert np.array_equal(dones_c, dones_i)
            for i in range(env_c.num_envs):
                _observations_equal(batch_c[i], batch_i[i])
            for info_c, info_i in zip(infos_c, infos_i):
                _infos_equal(info_c, info_i)
    for env_c in compiled:
        assert env_c.compiled_plan is not None
        assert env_c.compiled_plan.steps_compiled == STEPS
        assert env_c.compiled_plan.fallback_steps == 0
