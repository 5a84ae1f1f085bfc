"""Regression tests for cache-key quantization at rounding boundaries.

Cache keys quantize each parameter's binary mantissa with operations that
are exact in float64.  Values that straddle a decimal decade boundary
(``1e-12`` against ``1e-12`` plus float noise) must share one entry, and
distinct grid points of the design space must never collide.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.library.folded_cascode import build_folded_cascode
from repro.circuits.library.two_stage_opamp import build_two_stage_opamp
from repro.parallel.cache import SimulationCache
from repro.simulation.opamp_sim import OpAmpSimulator


class TestCacheKeyBoundary:
    """The cache must serve boundary-straddling capacitances from one entry."""

    def _cached(self):
        return SimulationCache(OpAmpSimulator(), max_entries=16)

    def test_straddling_values_share_one_entry(self):
        benchmark = build_two_stage_opamp()
        cache = self._cached()
        netlist = benchmark.fresh_netlist()
        netlist.set_parameter("CC", "value", 1.0e-12)
        cache.simulate(netlist)
        netlist.set_parameter("CC", "value", 1.0e-12 * (1.0 + 2e-14))
        cache.simulate(netlist)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_grid_points_never_collide(self):
        benchmark = build_two_stage_opamp()
        cache = self._cached()
        rng = np.random.default_rng(0)
        keys = set()
        for _ in range(300):
            netlist = benchmark.fresh_netlist()
            benchmark.design_space.apply_to_netlist(
                netlist, benchmark.design_space.sample(rng)
            )
            keys.add(cache._keys([netlist])[0])
        assert len(keys) == 300

    def test_key_distinguishes_topologies(self):
        benchmark = build_two_stage_opamp()
        cache = self._cached()
        netlist = benchmark.fresh_netlist()
        renamed = benchmark.fresh_netlist()
        renamed.name = "other_circuit"
        assert cache._keys([netlist])[0] != cache._keys([renamed])[0]


def _row_keys(cache, netlists):
    """Keys built as before the one-pass row build: a ``parameter_array()``
    per netlist, quantized as one array when names and sizes agree."""
    rows = [netlist.parameter_array() for netlist in netlists]
    if any(n.name != netlists[0].name or r.size != rows[0].size for n, r in zip(netlists, rows)):
        return [_row_keys(cache, [netlist])[0] for netlist in netlists]
    mantissas, exponents = np.frexp(np.array(rows))
    scaled = np.round(mantissas * cache._mantissa_scale)
    carry = np.abs(scaled) >= cache._mantissa_scale
    scaled = np.where(carry, scaled * 0.5, scaled)
    exponents = exponents + carry
    prefix = netlists[0].name.encode()
    return [prefix + scaled[row].tobytes() + exponents[row].tobytes() for row in range(len(rows))]


class TestBatchKeys:
    """``_keys`` over a batch is byte-equal to the per-netlist row build."""

    def _netlists(self):
        benchmark = build_two_stage_opamp()
        rng = np.random.default_rng(3)
        netlists = []
        for _ in range(5):
            netlist = benchmark.fresh_netlist()
            benchmark.design_space.apply_to_netlist(netlist, benchmark.design_space.sample(rng))
            netlists.append(netlist)
        return netlists

    def test_one_topology(self):
        cache = SimulationCache(OpAmpSimulator(), max_entries=16)
        netlists = self._netlists()
        assert cache._keys(netlists) == _row_keys(cache, netlists)

    def test_mixed_names_and_layouts_fall_back_per_netlist(self):
        cache = SimulationCache(OpAmpSimulator(), max_entries=16)
        netlists = self._netlists()
        netlists[1].name = "other_circuit"
        other = build_folded_cascode().fresh_netlist()
        # Same name, different layout: keyed on its own.
        other.name = netlists[0].name
        batch = netlists + [other]
        keys = cache._keys(batch)
        assert keys == [cache._keys([netlist])[0] for netlist in batch]
        assert keys == [_row_keys(cache, [netlist])[0] for netlist in batch]
        assert len(set(keys)) == len(batch)
