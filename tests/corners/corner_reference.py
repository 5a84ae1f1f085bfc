"""The per-corner reference loop for ``CornerSimulator``.

:class:`SequentialCornerSimulator` evaluates each netlist by calling every
corner's clone of the base simulator in turn, the definition the corner
lanes of one ``simulate_rows`` call must reproduce bit for bit.  The
parity tests in this directory compare the two, and
``benchmarks/bench_corner_sweep.py`` times it as the sequential side (loaded
by file path).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.circuits.netlist import Netlist, ParameterLayout
from repro.corners import CornerSimulator
from repro.simulation.base import SimulationResult


class SequentialCornerSimulator(CornerSimulator):
    """``CornerSimulator`` whose corners run as a loop over the clones."""

    def simulate_rows(self, layout: ParameterLayout, rows: np.ndarray) -> List[SimulationResult]:
        return [
            self.merge(
                [clone.simulate_rows(layout, rows[i : i + 1])[0] for clone in self._corner_simulators]
            )
            for i in range(len(rows))
        ]

    def corner_results(self, netlist: Netlist) -> List[SimulationResult]:
        return [clone.simulate(netlist) for clone in self._corner_simulators]
