"""Cache keys from the step's own parameter rows.

The episode engine hands a :class:`SimulationCache` the ``(B, P)`` parameter
rows it already holds (its fixed-parameter base row with the knob columns
written) through ``simulate_rows``; ``simulate(netlist)`` hands it the
netlist's own row.  Both reach the one quantizer, and the keys — hence the
LRU table, the counters and the disk-cache entry files, named by
``sha256(key)`` — must stay byte-equal to the per-row format pinned below.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.circuits.library.common_source_lna import build_common_source_lna
from repro.circuits.library.two_stage_opamp import build_two_stage_opamp
from repro.parallel import DiskSimulationCache, SimulationCache
from repro.parallel.disk_cache import entry_path
from repro.simulation.base import CircuitSimulator
from repro.simulation.opamp_sim import OpAmpSimulator


def reference_key(name, row, key_digits=12):
    """The key format, one row at a time: name, quantized mantissas, exponents."""
    scale = 2.0 ** math.ceil(key_digits / math.log10(2.0))
    mantissas, exponents = np.frexp(np.asarray(row, dtype=np.float64))
    scaled = np.round(mantissas * scale)
    carry = np.abs(scaled) >= scale
    scaled = np.where(carry, scaled * 0.5, scaled)
    exponents = exponents + carry
    return name.encode() + scaled.tobytes() + exponents.tobytes()


def _netlists(benchmark, rows):
    """One fresh netlist per row, its parameters set to the row's values."""
    netlists = []
    for row in rows:
        netlist = benchmark.fresh_netlist()
        values = iter(row.tolist())
        for device in netlist:
            for key in device.parameters:
                device.parameters[key] = next(values)
        assert next(values, None) is None
        netlists.append(netlist)
    return netlists


def _edge_rows(benchmark, count=12, seed=0):
    """Rows around the template's, with carries, signs, zeros and strays."""
    base = benchmark.fresh_netlist().parameter_array()
    rng = np.random.default_rng(seed)
    rows = base * rng.uniform(0.5, 2.0, size=(max(count, 5), base.size))
    # Just below a power of two: the mantissa rounds up to 1.0 and carries.
    powers = np.array([1.0, 2.0, 0.5, 2.0**-18, 2.0**-40])
    rows[0, :5] = np.nextafter(powers, 0.0)
    rows[1, :5] = -np.nextafter(powers, 0.0)
    rows[2, :6] = [-0.0, 0.0, -3.5, -1e-300, 5e-324, -7e-6]
    rows[3] = -rows[3]
    rows[4, :3] = [np.inf, -np.inf, np.nan]
    return rows[:count]


def test_a_carry_shares_the_next_binade_key():
    assert reference_key("c", [np.nextafter(1.0, 0.0)]) == reference_key("c", [1.0])
    below = -np.nextafter(2.0**-18, 0.0)
    assert reference_key("c", [below]) == reference_key("c", [-(2.0**-18)])


@pytest.mark.parametrize(
    "build", [build_two_stage_opamp, build_common_source_lna], ids=["opamp", "lna"]
)
def test_row_keys_equal_netlist_keys(build):
    benchmark = build()
    rows = _edge_rows(benchmark)
    netlists = _netlists(benchmark, rows)
    cache = SimulationCache(OpAmpSimulator())
    name = netlists[0].name
    expected = [reference_key(name, row) for row in rows]
    assert cache._quantize(name, rows) == expected
    assert [
        cache._quantize(netlist.layout.name, netlist.parameter_array()[None])[0]
        for netlist in netlists
    ] == expected
    assert len(set(expected)) == len(expected)


def test_simulate_rows_matches_a_loop_of_simulate():
    """Results, counters and LRU order, over batches with repeats and evictions."""
    benchmark = build_two_stage_opamp()
    space = benchmark.design_space
    rng = np.random.default_rng(3)
    by_rows = SimulationCache(OpAmpSimulator(), max_entries=5)
    by_netlists = SimulationCache(OpAmpSimulator(), max_entries=5)
    pool = space.sample_batch(rng, 6)
    for _ in range(6):
        sizings = pool[rng.integers(0, len(pool), size=4)]
        netlists = []
        for sizing in sizings:
            netlist = benchmark.fresh_netlist()
            space.apply_to_netlist(netlist, sizing)
            netlists.append(netlist)
        rows = np.array([netlist.parameter_array() for netlist in netlists])
        got = by_rows.simulate_rows(netlists[0].layout, rows)
        want = [by_netlists.simulate(netlist) for netlist in netlists]
        assert [(r.specs, r.details, r.valid) for r in got] == [
            (r.specs, r.details, r.valid) for r in want
        ]
        assert by_rows.stats == by_netlists.stats
        assert list(by_rows._entries) == list(by_netlists._entries)
    assert by_rows.stats.evictions > 0 and by_rows.stats.hits > 0


class RowsSpy(SimulationCache):
    def __init__(self, simulator):
        super().__init__(simulator)
        self.calls = []

    def simulate_rows(self, layout, rows):
        self.calls.append(rows.copy())
        return super().simulate_rows(layout, rows)


def test_engine_hands_its_rows_in_one_call_per_step():
    """A step is one ``simulate_rows`` call; its rows are the lanes' parameter rows."""
    template = repro.make_env("opamp-p2s-v0", seed=0, max_steps=4)
    cache = RowsSpy(OpAmpSimulator())
    template.simulator = cache
    vector_env = repro.parallel.VectorCircuitEnv.from_env(template, num_envs=3, seed=0)
    vector_env.reset()
    cache.calls.clear()
    vector_env.step(np.ones((3, vector_env.num_parameters), dtype=np.int64))
    (rows,) = cache.calls
    expected = np.array([env.netlist.parameter_array() for env in vector_env.envs])
    assert rows.tobytes() == expected.tobytes()


class _Recording(CircuitSimulator):
    """Records every parameter row it simulates."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.rows = []

    def simulate_rows(self, layout, rows):
        self.rows.extend(rows.copy())
        return self.inner.simulate_rows(layout, rows)


def _exact(simulator):
    """The innermost simulator under any catalog cache tier."""
    while isinstance(simulator, SimulationCache):
        simulator = simulator.simulator
    return simulator


@pytest.mark.parametrize("env_id", repro.list_envs())
def test_disk_entry_paths_over_episodes(env_id, tmp_path):
    """Every entry file an episode writes is named by the netlist's key."""
    env = repro.make_env(env_id, seed=5, max_steps=4)
    recording = _Recording(_exact(env.simulator))
    disk = DiskSimulationCache(recording, tmp_path / "entries", max_entries=8)
    env.simulator = disk
    rng = np.random.default_rng(5)
    for _ in range(2):
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step(rng.integers(0, 3, size=env.num_parameters))
    name = env.benchmark.fresh_netlist().name
    expected = {entry_path(disk.directory, reference_key(name, row)) for row in recording.rows}
    assert set(disk.directory.glob("*.json")) == expected
    assert disk.stats.misses == len(recording.rows)
    # A second cache over the directory serves the same sizings from disk.
    again = DiskSimulationCache(recording, disk.directory)
    netlist = env.benchmark.fresh_netlist()
    env.benchmark.design_space.apply_to_netlist(netlist, env.parameter_values)
    again.simulate(netlist)
    assert again.stats.disk_hits == 1 and again.stats.misses == 0
