"""Common simulator interface shared by every circuit evaluator.

The RL environment (Fig. 2 of the paper) only ever asks the simulator one
question: "given this sizing, what are the intermediate specifications?".
Every caller already holds its sizings as ``(n, P)`` parameter rows, so
that is the one thing a simulator is handed: :class:`CircuitSimulator` has
one entry, ``simulate_rows(layout, rows)``, and ``simulate(netlist)`` is a
batch of one row.  The contract lets the environment, the optimization
baselines and the experiment harness use the analytical op-amp evaluator, the harmonic-balance-like PA evaluator and
the coarse PA evaluator interchangeably — including the coarse→fine swap at
the heart of the transfer-learning contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Netlist, ParameterLayout, ParameterRead


@dataclass
class SimulationResult:
    """Outcome of one simulation call.

    Attributes
    ----------
    specs:
        Measured intermediate specifications keyed by specification name
        (matching the circuit's :class:`~repro.circuits.specs.SpecificationSpace`).
    details:
        Additional operating-point information (currents, pole locations,
        conduction angle, …) useful for debugging and for reports.
    valid:
        False when the operating point is degenerate (e.g. a device is cut
        off so the amplifier has no gain); environments translate this into a
        strongly negative reward rather than crashing.
    """

    specs: Dict[str, float]
    details: Dict[str, float] = field(default_factory=dict)
    valid: bool = True

    def spec(self, name: str) -> float:
        try:
            return self.specs[name]
        except KeyError as exc:
            raise KeyError(f"simulation result has no spec '{name}'") from exc


class CircuitSimulator:
    """Anything that evaluates parameter rows into intermediate specifications.

    The one entry is :meth:`simulate_rows`: ``rows`` is an ``(n, P)`` float64
    array of parameter rows laid out by ``layout`` (a netlist's
    :attr:`~repro.circuits.netlist.Netlist.layout`), and the answer is one
    result per row.  Each row's result depends on that row alone, so how
    rows are batched changes no bits.  :meth:`simulate` is a batch of one.
    """

    #: Human-readable simulator name (shown in experiment reports).
    name: str

    def simulate_rows(self, layout: ParameterLayout, rows: np.ndarray) -> List[SimulationResult]:
        """Evaluate every row and return the measured specifications, in row order."""
        raise NotImplementedError

    def simulate(self, netlist: Netlist) -> SimulationResult:
        """Evaluate the netlist: its parameter row as a batch of one."""
        return self.simulate_rows(netlist.layout, netlist.parameter_array()[None])[0]


class OperatingPointSimulator(CircuitSimulator):
    """A circuit evaluator whose lanes are operating points of a few parameters.

    ``reads`` names the ``(device, key)`` pairs :meth:`operating_point`
    reads, in order; it is handed each row's values of them as Python
    floats.  :meth:`results` turns operating points into results: a corner
    sweep hands it operating points its per-corner clones computed, and the
    op-amp and CM-OTA sweep all their MNA lanes there in one call.
    """

    reads: Tuple[ParameterRead, ...] = ()

    def simulate_rows(self, layout: ParameterLayout, rows: np.ndarray) -> List[SimulationResult]:
        return self.results(
            [self.operating_point(values) for values in layout.lanes(rows, self.reads)]
        )

    def operating_point(self, values: Sequence[float]):
        """The lane's operating point from its values of :attr:`reads`."""
        raise NotImplementedError

    def results(self, operating_points: Sequence) -> List[SimulationResult]:
        """One result per operating point, in order (each from ``_result``)."""
        return [self._result(op) for op in operating_points]


def transistor_reads(names: Sequence[str]) -> Tuple[ParameterRead, ...]:
    """The width and finger count of each named transistor, in order."""
    return tuple((name, key) for name in names for key in ("width", "fingers"))


#: Canonical short name of the simulator protocol.  Every evaluation tier —
#: the analytic/MNA evaluators, the memoizing :class:`SimulationCache` and
#: :class:`DiskSimulationCache` wrappers, and the learned
#: :class:`~repro.surrogate.TieredSimulator` — satisfies this one contract,
#: which is what lets the tiers nest in any order.
Simulator = CircuitSimulator
