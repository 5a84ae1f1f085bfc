"""Regression tests for cache-key quantization at rounding boundaries.

Cache keys quantize each parameter's binary mantissa with operations that
are exact in float64.  Values that straddle a decimal decade boundary
(``1e-12`` against ``1e-12`` plus float noise) must share one entry, and
distinct grid points of the design space must never collide.
"""

from __future__ import annotations

import numpy as np

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
