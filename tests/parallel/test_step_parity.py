"""The single vector step against the per-environment reference loop.

``VectorCircuitEnv.step`` batches the action math, the netlist writes, the
simulation and the observation arrays; ``ReferenceVectorEnv``
(``step_reference.py``) loops over the per-environment step and reset of
``ReferenceCircuitEnv``, the sequential code the engine replaced.  On every
circuit family — the batched op-amp/CM-OTA simulators, the zoo and RF PA
simulators, every corner sweep and the surrogate tier — full episodes with
autoresets must agree bit for bit: observations, rewards, done flags, info
dicts (terminal observations included), trajectories, netlist state and the
shared cache's counters and LRU order.  The CI ``parity`` job runs this file
one family per leg (``-k``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.parallel import SimulationCache, VectorCircuitEnv
from repro.simulation.base import CircuitSimulator
from repro.simulation.opamp_sim import OpAmpSimulator
from step_reference import ReferenceVectorEnv

#: The surrogate-tier variant of ``opamp-p2s-v0`` (a ``TieredSimulator``).
TIERED = "opamp-p2s-v0+surrogate_dir"

PARITY_ENV_IDS = [
    "opamp-p2s-v0",
    "opamp-mna-v0",
    "current_mirror_ota-p2s-v0",
    "current_mirror_ota-mna-v0",
    "folded_cascode-p2s-v0",
    "common_source_lna-p2s-v0",
    "rf_pa-fom-v0",
    *sorted(env_id for env_id in repro.list_envs() if env_id.endswith("-corners-v0")),
    TIERED,
]

STEPS = 12
MAX_STEPS = 5  # short episodes so the run crosses several autoresets


def _template(env_id, directory=None):
    if env_id == TIERED:
        return repro.make_env(
            "opamp-p2s-v0", seed=None, max_steps=MAX_STEPS, surrogate_dir=str(directory)
        )
    return repro.make_env(env_id, seed=None, max_steps=MAX_STEPS)


def _pair(env_id, num_envs, seed, cache_size, tmp_path, **kwargs):
    """The single step and the reference loop over identical sub-environments.

    Each side gets its own template, so simulators (and a surrogate tier's
    corpus directory) are never shared between the two.
    """
    return [
        cls.from_env(
            _template(env_id, tmp_path / cls.__name__),
            num_envs=num_envs,
            seed=seed,
            cache_size=cache_size,
            **kwargs,
        )
        for cls in (VectorCircuitEnv, ReferenceVectorEnv)
    ]


def assert_observations_equal(a, b):
    assert a.node_features.tobytes() == b.node_features.tobytes()
    assert a.static_node_features.tobytes() == b.static_node_features.tobytes()
    assert a.adjacency.tobytes() == b.adjacency.tobytes()
    assert a.spec_features.tobytes() == b.spec_features.tobytes()
    assert a.normalized_parameters.tobytes() == b.normalized_parameters.tobytes()
    assert a.measured_specs == b.measured_specs
    assert a.target_specs == b.target_specs


def assert_outputs_equal(single, reference):
    batch_s, rewards_s, dones_s, infos_s = single
    batch_r, rewards_r, dones_r, infos_r = reference
    assert_observations_equal(batch_s, batch_r)
    assert rewards_s.tobytes() == rewards_r.tobytes()
    assert dones_s.tobytes() == dones_r.tobytes()
    assert len(infos_s) == len(infos_r)
    for info_s, info_r in zip(infos_s, infos_r):
        assert list(info_s) == list(info_r)
        for key, value in info_s.items():
            if key == "terminal_observation":
                assert_observations_equal(value, info_r[key])
            else:
                assert value == info_r[key], key


def assert_states_equal(single, reference):
    """Netlists, episode state, trajectories and cache of every lane."""
    for env_s, env_r in zip(single.envs, reference.envs, strict=True):
        netlist_s = env_s.netlist.parameter_array()
        netlist_r = env_r.netlist.parameter_array()
        assert netlist_s.tobytes() == netlist_r.tobytes()
        assert env_s.parameter_values.tobytes() == env_r.parameter_values.tobytes()
        assert (env_s.measured_specs, env_s.target_specs) == (
            env_r.measured_specs,
            env_r.target_specs,
        )
        traj_s, traj_r = env_s.trajectory, env_r.trajectory
        assert (traj_s is None) == (traj_r is None)
        if traj_s is not None:
            assert traj_s.target_specs == traj_r.target_specs
            for x, y in zip(traj_s.records, traj_r.records, strict=True):
                assert x.parameters.tobytes() == y.parameters.tobytes()
                assert (x.step, x.specs, x.goal_reached) == (y.step, y.specs, y.goal_reached)
                assert np.float64(x.reward).tobytes() == np.float64(y.reward).tobytes()
    cache_s, cache_r = single.envs[0].simulator, reference.envs[0].simulator
    if isinstance(cache_s, SimulationCache):
        assert cache_s.stats == cache_r.stats
        assert list(cache_s._entries) == list(cache_r._entries)


def _run(single, reference, seed, steps=STEPS):
    assert_observations_equal(single.reset(), reference.reset())
    rng = np.random.default_rng(seed + 1000)
    for _ in range(steps):
        actions = rng.integers(0, 3, size=(single.num_envs, single.num_parameters))
        assert_outputs_equal(single.step(actions), reference.step(actions))
        assert_states_equal(single, reference)


@pytest.mark.parametrize("env_id", PARITY_ENV_IDS)
@pytest.mark.parametrize("num_envs", [2, 8])
@pytest.mark.parametrize("seed", [0, 123])
def test_bitwise_parity(env_id, num_envs, seed, tmp_path):
    _run(*_pair(env_id, num_envs, seed, 24, tmp_path), seed)


@pytest.mark.parametrize("env_id", PARITY_ENV_IDS)
def test_bitwise_parity_without_cache(env_id, tmp_path):
    """No shared cache: one ``simulate_batch`` per step where batched."""
    _run(*_pair(env_id, 4, 7, None, tmp_path), 7)


@pytest.mark.parametrize("env_id", PARITY_ENV_IDS)
def test_unordered_subset_steps(env_id, tmp_path):
    """``step_selected`` over unordered subsets, until lanes finish."""
    single, reference = _pair(env_id, 4, 3, 24, tmp_path, autoreset=False)
    assert_observations_equal(single.reset(), reference.reset())
    rng = np.random.default_rng(0)
    for indices in ([3, 1], [1, 0, 2], [3, 1], [0], [2, 3], [1, 0], [3], [2, 0]):
        indices = [lane for lane in indices if not single.envs[lane]._done]
        if not indices:
            continue
        actions = rng.integers(0, 3, size=(len(indices), single.num_parameters))
        assert_outputs_equal(
            single.step_selected(indices, actions), reference.step_selected(indices, actions)
        )
        assert_states_equal(single, reference)


@pytest.mark.parametrize("env_id", PARITY_ENV_IDS)
def test_vectors_sharing_one_simulator_step_interleaved(env_id, tmp_path):
    """Two vector envs of different widths share one simulator and step in
    turn; each matches its reference twin bit for bit."""

    def vectors(cls):
        template = _template(env_id, tmp_path / cls.__name__)
        return [
            cls.from_env(template, num_envs=num_envs, seed=seed, cache_size=None)
            for num_envs, seed in ((3, 0), (5, 40))
        ]

    singles, references = vectors(VectorCircuitEnv), vectors(ReferenceVectorEnv)
    assert singles[0].envs[0].simulator is singles[1].envs[0].simulator
    for single, reference in zip(singles, references):
        assert_observations_equal(single.reset(), reference.reset())
    rng = np.random.default_rng(5)
    for _ in range(STEPS):
        for single, reference in zip(singles, references):
            actions = rng.integers(0, 3, size=(single.num_envs, single.num_parameters))
            assert_outputs_equal(single.step(actions), reference.step(actions))
            assert_states_equal(single, reference)


class RowByRow(CircuitSimulator):
    """A simulator outside the library: it evaluates its rows one at a time."""

    name = "row_by_row"

    def __init__(self):
        self._inner = OpAmpSimulator()

    def simulate_rows(self, layout, rows):
        return [self._inner.simulate_rows(layout, rows[i : i + 1])[0] for i in range(len(rows))]


class ScaledOpAmp(OpAmpSimulator):
    """A subclass that overrides the one entry: the step and the reference see it."""

    def simulate_rows(self, layout, rows):
        results = super().simulate_rows(layout, rows)
        for result in results:
            result.specs["gain"] *= 1.5
        return results


class CountingCache(SimulationCache):
    """A cache subclass: its ``_simulate_misses`` hook must see every miss."""

    def __init__(self, simulator):
        super().__init__(simulator, max_entries=16)
        self.miss_calls = 0

    def _simulate_misses(self, layout, keys, rows):
        self.miss_calls += len(rows)
        return super()._simulate_misses(layout, keys, rows)


@pytest.mark.parametrize(
    "make_simulator",
    [
        RowByRow,
        ScaledOpAmp,
        lambda: CountingCache(OpAmpSimulator()),
        lambda: CountingCache(ScaledOpAmp()),
    ],
    ids=["row-by-row", "subclass", "cache-subclass", "cache-of-subclass"],
)
@pytest.mark.parametrize("cache_size", [24, None])
def test_custom_simulators_match_the_reference(make_simulator, cache_size):
    vectors = []
    for cls in (VectorCircuitEnv, ReferenceVectorEnv):
        template = repro.make_env("opamp-p2s-v0", seed=None, max_steps=MAX_STEPS)
        template.simulator = make_simulator()
        vectors.append(cls.from_env(template, num_envs=3, seed=0, cache_size=cache_size))
    _run(*vectors, 0)
    single, reference = vectors
    if isinstance(single.envs[0].simulator, CountingCache):
        assert single.envs[0].simulator.miss_calls == reference.envs[0].simulator.miss_calls > 0


def test_unshared_simulators_step_per_lane():
    """Sub-environments with their own simulators each call their own."""
    vectors = []
    for cls in (VectorCircuitEnv, ReferenceVectorEnv):
        vector_env = cls.from_env(
            repro.make_env("opamp-p2s-v0", seed=None, max_steps=MAX_STEPS),
            num_envs=3,
            seed=0,
            cache_size=None,
        )
        for env in vector_env.envs:
            env.simulator = SimulationCache(OpAmpSimulator(), max_entries=8)
        vectors.append(vector_env)
    _run(*vectors, 0)
    for env_s, env_r in zip(vectors[0].envs, vectors[1].envs):
        assert env_s.simulator.stats == env_r.simulator.stats
        assert list(env_s.simulator._entries) == list(env_r.simulator._entries)
