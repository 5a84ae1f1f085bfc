"""``CircuitDesignEnv`` as one lane of the engine, against the scalar reference.

``CircuitDesignEnv.step`` and ``reset`` are calls into a one-lane
``BatchedCircuitEnv``; ``ReferenceCircuitEnv`` (``step_reference.py``) keeps
the per-environment code they replaced.  On every catalog environment — the
P2S, MNA, corner and FoM environments and the ``*-random-v0`` starts — whole
episodes with sampled and explicit targets and explicit starts must agree
bit for bit: observations, rewards, done flags, info dicts, trajectories,
netlist state and cache.

The batched resets — autoresets after a step and the chunk resets of
lock-step deployment (``reset_selected``) — must leave a shared cache's
counters and LRU order exactly as a loop of per-lane resets does.  The CI
``parity`` job runs this file in its per-family legs (``-k``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.parallel import VectorCircuitEnv
from repro.simulation.base import CircuitSimulator, SimulationResult
from step_reference import ReferenceCircuitEnv, ReferenceVectorEnv, spec_feature_vector
from test_step_parity import assert_observations_equal, assert_outputs_equal, assert_states_equal

MAX_STEPS = 5

#: Every catalog environment, plus the op-amp with random starts.
CASES = [(env_id, {}) for env_id in repro.list_envs()] + [
    ("opamp-p2s-v0", {"initial_sizing": "random"})
]
CASE_IDS = [env_id + ("+random" if kwargs else "") for env_id, kwargs in CASES]


def _pair(env_id, kwargs, seed=3):
    env = repro.make_env(env_id, seed=seed, max_steps=MAX_STEPS, **kwargs)
    template = repro.make_env(env_id, seed=seed, max_steps=MAX_STEPS, **kwargs)
    return env, ReferenceCircuitEnv.like(template)


def _assert_step_equal(output, expected):
    observation, reward, done, info = output
    assert_observations_equal(observation, expected[0])
    assert type(reward) is float and type(done) is bool
    assert np.float64(reward).tobytes() == np.float64(expected[1]).tobytes()
    assert done == expected[2]
    assert list(info) == list(expected[3])
    for key, value in info.items():
        assert value == expected[3][key], key


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_step_and_reset_match_reference(case):
    env_id, kwargs = case
    env, reference = _pair(env_id, kwargs)
    assert env.is_fom_mode == reference.is_fom_mode
    space = env.benchmark.design_space
    resets = [
        {},
        {"target_specs": env.benchmark.spec_space.sample(np.random.default_rng(1))},
        {"initial_parameters": space.sample(np.random.default_rng(2))},
        {},
    ]
    rng = np.random.default_rng(0)
    for reset in resets:
        assert_observations_equal(env.reset(**reset), reference.reset(**reset))
        assert_states_equal(env.engine, reference.engine)
        done = False
        while not done:
            action = rng.integers(0, 3, size=env.num_parameters)
            output = env.step(action)
            _assert_step_equal(output, reference.step(action))
            assert_states_equal(env.engine, reference.engine)
            done = output[2]


@pytest.mark.parametrize(
    "measured",
    [
        {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 60.0, "power": 1e-3},
        {"gain": 0.0, "bandwidth": float("nan"), "phase_margin": -0.0, "power": 5e-3},
        {"gain": float("inf"), "phase_margin": 58.0, "power": 0.0},
    ],
    ids=["finite", "nan-and-zeros", "inf-and-missing"],
)
def test_spec_features_match_the_reference(measured):
    """The engine's plain-float spec rows, at a reset and a step, against the
    per-spec reference."""
    env, _ = _pair("opamp-p2s-v0", {})
    env.simulator = FixedSimulator(measured)
    targets = {"gain": 350.0, "bandwidth": 2e7, "phase_margin": 58.0, "power": 5e-3}
    expected = spec_feature_vector(env, measured, targets).tobytes()
    assert env.reset(target_specs=targets).spec_features.tobytes() == expected
    observation = env.step(env.action_space.no_op())[0]
    assert observation.spec_features.tobytes() == expected


class FixedSimulator(CircuitSimulator):
    """Reports the same specs for every netlist."""

    name = "fixed"

    def __init__(self, specs, valid=True):
        self.specs, self.valid = specs, valid

    def simulate_rows(self, layout, rows):
        return [SimulationResult(specs=dict(self.specs), valid=self.valid) for _ in rows]


def test_scalar_errors_match_reference():
    env, reference = _pair("opamp-p2s-v0", {})
    no_op = env.action_space.no_op()
    for scalar in (env, reference):
        with pytest.raises(RuntimeError, match="finished"):
            scalar.step(no_op)
        scalar.reset()
        with pytest.raises(ValueError):
            scalar.step(np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            scalar.step(np.full(env.num_parameters, 3))
    assert_states_equal(env.engine, reference.engine)


def _vectors(cls, num_envs=4, max_steps=2, cache_size=6):
    """Random starts miss the cache; a small table evicts inside a batch."""
    template = repro.make_env(
        "opamp-p2s-v0", seed=None, max_steps=max_steps, initial_sizing="random"
    )
    return cls.from_env(template, num_envs=num_envs, seed=5, cache_size=cache_size)


def test_batched_autoresets_leave_the_per_lane_loop_cache():
    single, reference = _vectors(VectorCircuitEnv), _vectors(ReferenceVectorEnv)
    assert_observations_equal(single.reset(), reference.reset())
    rng = np.random.default_rng(4)
    several = 0
    for _ in range(6):
        actions = rng.integers(0, 3, size=(single.num_envs, single.num_parameters))
        output = single.step(actions)
        assert_outputs_equal(output, reference.step(actions))
        assert_states_equal(single, reference)
        several += int(output[2].sum() > 1)
    assert several > 0  # some steps reset several lanes in one batch
    assert single.cache.stats.evictions > 0


def test_chunk_resets_leave_the_per_lane_loop_cache():
    single, reference = _vectors(VectorCircuitEnv), _vectors(ReferenceVectorEnv)
    targets = single.benchmark.spec_space.sample_batch(np.random.default_rng(6), 3)
    for indices in ([2, 0, 3], [1, 2], [0, 1, 2, 3]):
        chunk = targets[: len(indices)] if len(indices) <= 3 else None
        assert_observations_equal(
            single.reset_selected(indices, chunk), reference.reset_selected(indices, chunk)
        )
        assert_states_equal(single, reference)
    assert single.cache.stats.evictions > 0


def test_batched_reset_equals_a_loop_of_scalar_resets():
    """``reset_selected`` against ``CircuitDesignEnv.reset`` lane by lane."""
    single, looped = _vectors(VectorCircuitEnv), _vectors(VectorCircuitEnv)
    starts = single.benchmark.design_space.sample_batch(np.random.default_rng(7), 2)
    batch = single.reset_selected([3, 1], initial_parameters=starts)
    for row, (lane, start) in enumerate(zip([3, 1], starts)):
        assert_observations_equal(batch[row], looped.envs[lane].reset(initial_parameters=start))
    assert_states_equal(single, looped)


@pytest.mark.parametrize(
    "initial_parameters, match",
    [(np.zeros((3, 15)), r"\(M,\) or \(2, M\)"), (np.zeros(4), "length 15")],
)
def test_reset_rejects_misshapen_starts(initial_parameters, match):
    vector_env = _vectors(VectorCircuitEnv)
    with pytest.raises(ValueError, match=match):
        vector_env.reset_selected([0, 1], initial_parameters=initial_parameters)
    with pytest.raises(ValueError, match="expected 2 target groups"):
        vector_env.reset_selected([0, 1], [vector_env.envs[0].sample_target()])
