"""DiskSimulationCache: persistence, key sharing, corruption, pruning."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import make_env
from repro.parallel import DiskSimulationCache, SimulationCache
from repro.simulation.base import SimulationResult


class CountingSimulator:
    """Deterministic stand-in simulator that counts real evaluations."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def simulate(self, netlist):
        self.calls += 1
        total = float(np.sum(netlist.parameter_array()))
        return SimulationResult(
            specs={"gain": total, "power": total * 0.5},
            details={"calls": float(self.calls)},
            valid=True,
        )


@pytest.fixture
def netlists():
    env = make_env("common_source_lna-p2s-v0", seed=0)
    rng = np.random.default_rng(0)
    space = env.benchmark.design_space
    items = []
    for _ in range(5):
        netlist = env.benchmark.fresh_netlist()
        space.apply_to_netlist(netlist, space.sample(rng))
        items.append(netlist)
    return items


def test_disk_hits_survive_process_boundaries(tmp_path, netlists):
    # Two cache *instances* over one directory model two worker processes
    # (workers share nothing but the filesystem).
    sim_a, sim_b = CountingSimulator(), CountingSimulator()
    first = DiskSimulationCache(sim_a, tmp_path / "cache")
    results = [first.simulate(netlist) for netlist in netlists]
    assert sim_a.calls == len(netlists)
    assert first.disk_entries() == len(netlists)

    second = DiskSimulationCache(sim_b, tmp_path / "cache")
    replayed = [second.simulate(netlist) for netlist in netlists]
    assert sim_b.calls == 0, "every lookup must be served from disk"
    assert second.stats.disk_hits == len(netlists)
    assert second.stats.hits == len(netlists) and second.stats.misses == 0
    for fresh, cached in zip(results, replayed):
        assert cached.specs == fresh.specs
        assert cached.valid == fresh.valid


def test_memory_tier_still_serves_repeats(tmp_path, netlists):
    cache = DiskSimulationCache(CountingSimulator(), tmp_path / "cache")
    cache.simulate(netlists[0])
    cache.simulate(netlists[0])
    assert cache.stats.hits == 1 and cache.stats.disk_hits == 0


def test_same_quantized_keys_as_memory_cache(tmp_path, netlists):
    # The persistent tier must collapse exactly the float noise the
    # in-memory cache collapses: same keys, same sharing semantics.
    memory = SimulationCache(CountingSimulator())
    disk = DiskSimulationCache(CountingSimulator(), tmp_path / "cache")
    for netlist in netlists:
        assert memory._keys([netlist]) == disk._keys([netlist])


@pytest.mark.parametrize(
    "corruption",
    ["{torn write", '{"specs": null}', '{"specs": [1, 2]}', '{"specs": {"gain": "x"}}',
     '"just a string"'],
)
def test_corrupt_entry_is_a_miss_and_heals(tmp_path, netlists, corruption):
    sim = CountingSimulator()
    cache = DiskSimulationCache(sim, tmp_path / "cache")
    cache.simulate(netlists[0])
    entry = next((tmp_path / "cache").glob("*.json"))
    entry.write_text(corruption, encoding="utf-8")

    fresh = DiskSimulationCache(sim, tmp_path / "cache")
    result = fresh.simulate(netlists[0])
    assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
    assert result.specs["gain"] == pytest.approx(
        float(np.sum(netlists[0].parameter_array()))
    )
    # The entry was rewritten and is valid JSON again.
    assert json.loads(entry.read_text(encoding="utf-8"))["valid"] is True


def test_prune_bounds_the_directory(tmp_path, netlists):
    cache = DiskSimulationCache(
        CountingSimulator(), tmp_path / "cache", max_disk_entries=2
    )
    for netlist in netlists:
        cache.simulate(netlist)
    assert cache.disk_entries() == len(netlists)  # below the periodic check
    removed = cache.prune()
    assert removed == len(netlists) - 2
    assert cache.disk_entries() == 2


def test_invalid_limits_rejected(tmp_path):
    with pytest.raises(ValueError, match="max_disk_entries"):
        DiskSimulationCache(CountingSimulator(), tmp_path / "c", max_disk_entries=0)
