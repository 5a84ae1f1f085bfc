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
    overridden below it).
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
    if batch is None or _simulate_overrides_batch(type(simulator)):
        return [simulator.simulate(netlist) for netlist in netlists]
    return batch(netlists)


@functools.lru_cache(maxsize=None)  # keyed on classes, of which a process has few
def _simulate_overrides_batch(kind: type) -> bool:
    """Whether ``kind`` defines ``simulate`` in a subclass of where it gets ``simulate_batch``."""

    def definer(name: str) -> int:
        return next((depth for depth, cls in enumerate(kind.__mro__) if name in vars(cls)), -1)

    return definer("simulate") < definer("simulate_batch")


#: Canonical short name of the simulator protocol.  Every evaluation tier —
#: the analytic/MNA evaluators, the memoizing :class:`SimulationCache` and
#: :class:`DiskSimulationCache` wrappers, and the learned
#: :class:`~repro.surrogate.TieredSimulator` — satisfies this one contract,
#: which is what lets the tiers nest in any order.
Simulator = CircuitSimulator
