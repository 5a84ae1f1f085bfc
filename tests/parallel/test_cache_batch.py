"""``simulate_batch`` on the caches: exactly a loop of ``simulate`` calls.

A cache answers a batch by looking its rows up in order, reserving the
entry of each miss, resolving the misses together and then filling the
reserved entries.  On twin caches, ``simulate_batch(netlists)`` must leave
what ``[cache.simulate(n) for n in netlists]`` leaves: the results (raw
float bits), every ``stats`` counter and the LRU order of the table, plus
the files a :class:`DiskSimulationCache` writes and the observations a
:class:`TieredSimulator` buffers and refits on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.parallel import DiskSimulationCache, SimulationCache
from repro.simulation.base import CircuitSimulator, SimulationResult
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.surrogate import SurrogateConfig, TieredSimulator

def simulate_netlists(simulator, netlists):
    """One ``simulate_rows`` call over the netlists' parameter rows."""
    if not netlists:
        return []
    rows = np.array([netlist.parameter_array() for netlist in netlists])
    return simulator.simulate_rows(netlists[0].layout, rows)


def cache_keys(cache, netlists):
    """The cache's key of each netlist: its parameter row, quantized."""
    return [cache._quantize(n.name, n.parameter_array()[None])[0] for n in netlists]



class ScalarOnly(CircuitSimulator):
    """A deterministic simulator that simulates its rows one at a time."""

    name = "scalar_only"

    def __init__(self):
        self._inner = OpAmpSimulator(method="mna")

    def simulate_rows(self, layout, rows):
        return [self._inner.simulate_rows(layout, rows[i : i + 1])[0] for i in range(len(rows))]


class Failing(CircuitSimulator):
    """Raises on every call."""

    name = "failing"

    def simulate_rows(self, layout, rows):
        raise RuntimeError("simulator down")


def _netlists(env_id, count, seed=0):
    env = repro.make_env(env_id, seed=0)
    space = env.benchmark.design_space
    rng = np.random.default_rng(seed)
    netlists = []
    for _ in range(count):
        netlist = env.benchmark.fresh_netlist()
        space.apply_to_netlist(netlist, space.sample(rng))
        netlists.append(netlist)
    return netlists


def _bits(result: SimulationResult):
    return (
        list(result.specs),
        np.array(list(result.specs.values()), dtype=np.float64).tobytes(),
        list(result.details),
        np.array(list(result.details.values()), dtype=np.float64).tobytes(),
        result.valid,
    )


def assert_batch_is_the_loop(batch_cache, loop_cache, netlists):
    batched = simulate_netlists(batch_cache, netlists)
    looped = [loop_cache.simulate(netlist) for netlist in netlists]
    assert [_bits(r) for r in batched] == [_bits(r) for r in looped]
    assert batch_cache.stats == loop_cache.stats
    assert list(batch_cache._entries) == list(loop_cache._entries)
    assert all(isinstance(entry, SimulationResult) for entry in batch_cache._entries.values())
    return batched


def _stream(env_id="opamp-mna-v0"):
    """Five distinct sizings ``a..e`` as a stream with repeats."""
    a, b, c, d, e = _netlists(env_id, 5)
    return [a, b, a, c, b, d, a, e, c, a]


@pytest.mark.parametrize("make_inner", [lambda: OpAmpSimulator(method="mna"), ScalarOnly],
                         ids=["batched", "scalar-only"])
class TestSimulationCache:
    def test_repeated_key_inside_one_batch(self, make_inner):
        stream = _stream()
        assert_batch_is_the_loop(SimulationCache(make_inner()), SimulationCache(make_inner()),
                                 stream)

    def test_eviction_inside_the_batch(self, make_inner):
        """``max_entries`` below the batch: a key is evicted, then missed again."""
        batch, loop = SimulationCache(make_inner(), 2), SimulationCache(make_inner(), 2)
        assert_batch_is_the_loop(batch, loop, _stream())
        assert batch.stats.evictions > 0 and batch.stats.hits > 0

    def test_batches_over_a_warm_table(self, make_inner):
        stream = _stream()
        batch, loop = SimulationCache(make_inner(), 4), SimulationCache(make_inner(), 4)
        for chunk in (stream[:4], stream[4:], stream[::-1], []):
            assert_batch_is_the_loop(batch, loop, chunk)

    def test_results_are_copies_of_the_memoized_entry(self, make_inner):
        cache = SimulationCache(make_inner())
        netlist = _stream()[0]
        first, second = simulate_netlists(cache, [netlist, netlist])
        first.specs["gain"] = -1.0
        second.specs["gain"] = -2.0
        assert cache.simulate(netlist).specs["gain"] > 0.0


def test_misses_are_one_inner_batch(monkeypatch):
    inner = OpAmpSimulator(method="mna")
    cache = SimulationCache(inner)
    calls = []
    batch = inner.simulate_rows
    monkeypatch.setattr(
        inner, "simulate_rows", lambda layout, rows: calls.append(len(rows)) or batch(layout, rows)
    )
    simulate_netlists(cache, _stream())
    assert calls == [5]
    simulate_netlists(cache, _stream())
    assert calls == [5]


def test_a_failing_batch_leaves_no_reservation():
    netlists = _netlists("opamp-p2s-v0", 3)
    cache = SimulationCache(Failing())
    with pytest.raises(RuntimeError, match="simulator down"):
        simulate_netlists(cache, netlists)
    assert len(cache) == 0
    good = SimulationCache(OpAmpSimulator())
    good.simulate(netlists[0])
    good.simulator = Failing()
    with pytest.raises(RuntimeError):
        simulate_netlists(good, netlists)
    assert len(good) == 1 and all(
        isinstance(entry, SimulationResult) for entry in good._entries.values()
    )


def test_a_failing_batch_over_a_warm_table():
    """A batch that raises stores none of its misses and rolls nothing back.

    On a full table ``[a, b, c]``, the batch ``[a, d, e]`` hits ``a``, and
    the reservations of ``d`` and ``e`` evict ``b`` and ``c``; then the
    simulator fails.  Only ``a`` is left, and the hit, the two misses handed
    to the simulator and the two evictions stay counted.
    """
    a, b, c, d, e = _netlists("opamp-p2s-v0", 5)
    cache = SimulationCache(OpAmpSimulator(), max_entries=3)
    simulate_netlists(cache, [a, b, c])
    cache.simulator = Failing()
    with pytest.raises(RuntimeError, match="simulator down"):
        simulate_netlists(cache, [a, d, e])
    assert list(cache._entries) == cache_keys(cache, [a])
    assert isinstance(cache._entries[cache_keys(cache, [a])[0]], SimulationResult)
    assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (1, 5, 2)


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))}


@pytest.mark.parametrize("max_entries", [2, 64])
def test_disk_cache(tmp_path, max_entries):
    """Same files and ``disk_hits``, with a memory tier small enough that a
    key evicted inside the batch comes back from its own batch's file."""
    stream = _stream()
    batch = DiskSimulationCache(OpAmpSimulator(method="mna"), tmp_path / "batch", max_entries)
    loop = DiskSimulationCache(OpAmpSimulator(method="mna"), tmp_path / "loop", max_entries)
    assert_batch_is_the_loop(batch, loop, stream)
    assert _files(tmp_path / "batch") == _files(tmp_path / "loop")
    assert (batch.stats.disk_hits > 0) == (max_entries == 2)
    # Fresh instances over the same directories: every row is a disk hit.
    batch = DiskSimulationCache(OpAmpSimulator(method="mna"), tmp_path / "batch", max_entries)
    loop = DiskSimulationCache(OpAmpSimulator(method="mna"), tmp_path / "loop", max_entries)
    assert_batch_is_the_loop(batch, loop, stream)
    assert batch.stats.misses == 0 and batch.stats.disk_hits > 0


def test_tiered_simulator_observes_and_refits_in_row_order():
    config = SurrogateConfig(hidden=(16, 16), epochs=60, min_train_points=6, ensemble_size=2)
    netlists = _netlists("common_source_lna-p2s-v0", 24, seed=3)
    stream = netlists[:12] + netlists[:6] + netlists[12:]
    twins = [
        TieredSimulator(repro.make_env("common_source_lna-p2s-v0").simulator,
                        refit_interval=6, config=config, max_entries=8)
        for _ in range(2)
    ]
    batch, loop = twins
    assert_batch_is_the_loop(batch, loop, stream)
    assert batch.last_report is not None
    assert batch.stats.surrogate_hits + batch.stats.trust_rejections > 0
    for circuit, rows in batch._observations.items():
        other = loop._observations[circuit]
        assert [p.tobytes() for p, _ in rows] == [p.tobytes() for p, _ in other]
