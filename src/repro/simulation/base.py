"""Common simulator interface shared by every circuit evaluator.

The RL environment (Fig. 2 of the paper) only ever asks the simulator one
question: "given the current netlist, what are the intermediate
specifications?".  :class:`CircuitSimulator` fixes that contract so the
environment, the optimization baselines and the experiment harness can use
the analytical op-amp evaluator, the harmonic-balance-like PA evaluator and
the coarse PA evaluator interchangeably — including the coarse→fine swap at
the heart of the transfer-learning contribution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence

import numpy as np

from repro.circuits.netlist import Netlist


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


class CircuitSimulator(Protocol):
    """Anything that can evaluate a netlist into intermediate specifications.

    A simulator may also define ``simulate_batch(netlists)``, returning one
    result per netlist, each exactly what ``simulate`` would return for it.
    Callers that hold several netlists go through :func:`simulate_batch`,
    which uses that entry when it exists (and ``simulate`` is not
    overridden below it).  A simulator that reads the netlists' parameter
    rows may define ``simulate_rows(netlists, rows)`` as well, reached
    through :func:`simulate_rows` by callers that hold the rows.
    """

    #: Human-readable simulator name (shown in experiment reports).
    name: str

    def simulate(self, netlist: Netlist) -> SimulationResult:
        """Evaluate the netlist and return the measured specifications."""
        ...


def simulate_batch(
    simulator: CircuitSimulator, netlists: Sequence[Netlist]
) -> List[SimulationResult]:
    """``[simulator.simulate(n) for n in netlists]`` in one call.

    The simulator's own ``simulate_batch`` runs when it has one, unless its
    class overrides ``simulate`` below the class that defines
    ``simulate_batch`` (a subclass that changes only ``simulate`` would
    otherwise be bypassed); any other simulator is called once per
    netlist, in order.
    """
    batch = getattr(simulator, "simulate_batch", None)
    if batch is None or _bypassed(type(simulator), "simulate_batch"):
        return [simulator.simulate(netlist) for netlist in netlists]
    return batch(netlists)


def simulate_rows(
    simulator: CircuitSimulator, netlists: Sequence[Netlist], rows: np.ndarray
) -> List[SimulationResult]:
    """:func:`simulate_batch` for a caller that holds the netlists' parameter rows.

    ``rows`` is the ``(n, P)`` float64 array whose row ``i`` equals
    ``netlists[i].parameter_array()``, and the netlists share one name.  A
    simulator that reads those rows (a
    :class:`~repro.parallel.SimulationCache` keys its lookup on them) gets
    them through its own ``simulate_rows``, unless its class overrides
    ``simulate`` or ``simulate_batch`` below the class that defines
    ``simulate_rows``; any other simulator gets :func:`simulate_batch`.
    """
    keyed = getattr(simulator, "simulate_rows", None)
    if keyed is None or _bypassed(type(simulator), "simulate_rows"):
        return simulate_batch(simulator, netlists)
    return keyed(netlists, rows)


#: The simulation entries, narrowest first: each one answers as the entries
#: before it would, so a subclass that overrides an earlier one must not be
#: bypassed through a later one.
_ENTRIES = ("simulate", "simulate_batch", "simulate_rows")


@functools.lru_cache(maxsize=None)  # keyed on classes, of which a process has few
def _bypassed(kind: type, entry: str) -> bool:
    """Whether ``kind`` defines a narrower entry in a subclass of where it gets ``entry``."""

    def definer(name: str) -> int:
        return next((depth for depth, cls in enumerate(kind.__mro__) if name in vars(cls)), -1)

    depth = definer(entry)
    return any(definer(name) < depth for name in _ENTRIES[: _ENTRIES.index(entry)])


#: Canonical short name of the simulator protocol.  Every evaluation tier —
#: the analytic/MNA evaluators, the memoizing :class:`SimulationCache` and
#: :class:`DiskSimulationCache` wrappers, and the learned
#: :class:`~repro.surrogate.TieredSimulator` — satisfies this one contract,
#: which is what lets the tiers nest in any order.
Simulator = CircuitSimulator
