"""SimulationCache: hit/miss accounting, LRU eviction, and result fidelity."""

from __future__ import annotations

import pytest

from repro.circuits.library.two_stage_opamp import build_two_stage_opamp
from repro.parallel import CacheStats, SimulationCache
from repro.simulation.base import CircuitSimulator, SimulationResult
from repro.simulation.opamp_sim import OpAmpSimulator


class CountingSimulator(CircuitSimulator):
    """Deterministic stub simulator that counts its invocations."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def simulate_rows(self, layout, rows):
        (width,) = layout.columns((("M1", "width"),))
        results = []
        for row in rows.tolist():
            self.calls += 1
            results.append(
                SimulationResult(specs={"gain": row[width] * 1e7}, details={"calls": self.calls})
            )
        return results


@pytest.fixture
def opamp():
    return build_two_stage_opamp()


@pytest.fixture
def netlist(opamp):
    return opamp.fresh_netlist()


class TestHitMiss:
    def test_first_lookup_misses_then_hits(self, netlist):
        cache = SimulationCache(CountingSimulator())
        first = cache.simulate(netlist)
        second = cache.simulate(netlist)
        assert cache.simulator.calls == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert first.specs == second.specs

    def test_distinct_parameters_miss(self, opamp, netlist):
        cache = SimulationCache(CountingSimulator())
        cache.simulate(netlist)
        opamp.design_space.apply_to_netlist(
            netlist, opamp.design_space.lower_bounds
        )
        cache.simulate(netlist)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_hit_rate(self, netlist):
        cache = SimulationCache(CountingSimulator())
        assert cache.stats.hit_rate == 0.0
        cache.simulate(netlist)
        cache.simulate(netlist)
        cache.simulate(netlist)
        assert cache.stats.hit_rate == pytest.approx(2.0 / 3.0)

    def test_cached_results_match_real_simulator(self, opamp, netlist, rng):
        plain = OpAmpSimulator()
        cache = SimulationCache(OpAmpSimulator())
        for _ in range(5):
            values = opamp.design_space.sample(rng)
            opamp.design_space.apply_to_netlist(netlist, values)
            direct = plain.simulate(netlist)
            via_cache = cache.simulate(netlist)  # miss
            repeat = cache.simulate(netlist)  # hit
            assert direct.specs == via_cache.specs == repeat.specs
            assert direct.valid == repeat.valid

    def test_hits_return_fresh_copies(self, netlist):
        cache = SimulationCache(CountingSimulator())
        cache.simulate(netlist)
        first = cache.simulate(netlist)
        first.specs["gain"] = -1.0
        second = cache.simulate(netlist)
        assert second.specs["gain"] != -1.0


class TestEviction:
    def _set_width(self, opamp, netlist, level: int) -> None:
        parameter = opamp.design_space["M1.width"]
        values = opamp.design_space.center()
        values[opamp.design_space.names.index("M1.width")] = (
            parameter.minimum + level * parameter.step
        )
        opamp.design_space.apply_to_netlist(netlist, values)

    def test_lru_eviction(self, opamp, netlist):
        cache = SimulationCache(CountingSimulator(), max_entries=2)
        self._set_width(opamp, netlist, 0)
        cache.simulate(netlist)  # A
        self._set_width(opamp, netlist, 1)
        cache.simulate(netlist)  # B -> cache [A, B]
        self._set_width(opamp, netlist, 0)
        cache.simulate(netlist)  # hit A -> [B, A]
        self._set_width(opamp, netlist, 2)
        cache.simulate(netlist)  # C evicts B -> [A, C]
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        self._set_width(opamp, netlist, 0)
        cache.simulate(netlist)  # A still cached
        assert cache.stats.hits == 2
        self._set_width(opamp, netlist, 1)
        cache.simulate(netlist)  # B was evicted -> miss
        assert cache.stats.misses == 4

    def test_capacity_bound(self, opamp, netlist):
        cache = SimulationCache(CountingSimulator(), max_entries=3)
        for level in range(10):
            self._set_width(opamp, netlist, level)
            cache.simulate(netlist)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_clear(self, netlist):
        cache = SimulationCache(CountingSimulator())
        cache.simulate(netlist)
        cache.clear()
        assert len(cache) == 0
        cache.simulate(netlist)
        assert cache.stats.misses == 2


class TestKeying:
    def test_float_noise_below_resolution_hits(self, opamp, netlist):
        cache = SimulationCache(CountingSimulator(), key_digits=10)
        netlist.set_parameter("M1", "width", 1e-6)
        cache.simulate(netlist)
        netlist.set_parameter("M1", "width", 1e-6 * (1.0 + 1e-13))
        cache.simulate(netlist)
        assert cache.stats.hits == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SimulationCache(CountingSimulator(), max_entries=0)
        with pytest.raises(ValueError):
            SimulationCache(CountingSimulator(), key_digits=0)

    def test_name_wraps_inner(self):
        cache = SimulationCache(CountingSimulator())
        assert cache.name == "cached(counting)"

    def test_stats_dataclass(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
