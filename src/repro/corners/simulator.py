"""Corner-sweep simulation: K corners per sizing, batched where possible.

:class:`CornerSimulator` implements the standard
:class:`~repro.simulation.base.CircuitSimulator` protocol, so it nests
anywhere a plain simulator does (environments, the simulation cache, the
surrogate tier).  ``simulate`` evaluates the netlist at every corner of its
:class:`~repro.corners.model.CornerSet` and merges the per-corner results
into one :class:`~repro.simulation.base.SimulationResult`:

* ``specs[name]`` — the worst-corner value of each specification (with
  respect to its objective direction when a spec space is supplied, else
  the first corner's value), so a plain P2S reward on the merged result
  already scores worst-corner satisfaction;
* ``specs[f"{name}@{corner}"]`` — every per-corner value, flattened; extra
  keys are invisible to spec-space iterators but give
  :class:`~repro.corners.reward.YieldP2SReward` its per-corner view;
* ``valid`` — true only when *every* corner simulates to a valid operating
  point.

Two evaluation paths produce bitwise-identical results:

* **batched** (default): for the simulators with a ``simulate_batch``
  entry (:class:`OpAmpSimulator`, :class:`CmOtaSimulator`), the corners
  ride as batch lanes — lane ``k`` takes its operating point from corner
  ``k``'s clone, and one ``simulate_batch`` call assembles every lane's
  result (one stacked MNA sweep instead of ``K`` for the MNA methods);
* **sequential**: a per-corner loop over clones of the base simulator,
  each carrying :meth:`Corner.apply`-derived technology constants.  This is
  also the path for simulators without a batch entry (folded cascode, LNA,
  RF PA).

Both paths read every value from the netlist of the call, so nothing of an
earlier netlist carries over.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.circuits.netlist import Netlist
from repro.circuits.specs import Objective, SpecificationSpace
from repro.corners.model import CornerSet, default_corner_set
from repro.simulation import BATCHED_SIMULATOR_TYPES
from repro.simulation.base import SimulationResult
from repro.simulation.folded_cascode_sim import FoldedCascodeSimulator
from repro.simulation.lna_sim import LnaSimulator
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.ota_sim import CmOtaSimulator
from repro.simulation.pa_sim import RfPaCoarseSimulator, RfPaFineSimulator

def clone_simulator_with_technology(simulator, technology):
    """A fresh simulator of the same type/configuration at ``technology``.

    Exact-type dispatch (the vector env step's discipline too): a
    subclass could override arithmetic the clone would silently drop, so
    only the known simulator types are cloneable.
    """
    kind = type(simulator)
    if kind is OpAmpSimulator:
        return OpAmpSimulator(
            technology=technology,
            method=simulator.method,
            bias_overhead_current=simulator.bias_overhead_current,
        )
    if kind is CmOtaSimulator:
        return CmOtaSimulator(
            technology=technology,
            method=simulator.method,
            bias_overhead_current=simulator.bias_overhead_current,
        )
    if kind is FoldedCascodeSimulator:
        return FoldedCascodeSimulator(
            technology=technology,
            bias_overhead_current=simulator.bias_overhead_current,
        )
    if kind is LnaSimulator:
        return LnaSimulator(
            technology=technology,
            frequency=simulator.frequency,
            source_resistance=simulator.source_resistance,
            noise_gamma=simulator.noise_gamma,
            inductor_q=simulator.inductor_q,
            bias_overhead_current=simulator.bias_overhead_current,
        )
    if kind is RfPaFineSimulator:
        return RfPaFineSimulator(technology=technology)
    if kind is RfPaCoarseSimulator:
        return RfPaCoarseSimulator(
            technology=technology, mismatch=simulator.mismatch
        )
    raise TypeError(
        f"no corner-cloning rule for simulator type {kind.__name__}; "
        "corner sweeps support the built-in zoo simulators"
    )


class CornerSimulator:
    """Evaluate every corner of a :class:`CornerSet` per ``simulate`` call.

    Parameters
    ----------
    simulator:
        The nominal-technology base simulator (one of the zoo simulator
        types).
    corner_set:
        Corners to sweep; defaults to :func:`default_corner_set`.
    spec_space:
        When given, merged ``specs`` report the worst-corner value per
        specification with respect to each objective direction (the value a
        conservative designer would quote); without it the first corner's
        values are reported.  Per-corner keys are emitted either way.
    batched:
        Run the corners as the lanes of one ``simulate_batch`` call when the
        simulator has one (bitwise identical to the sequential loop, one
        stacked MNA sweep instead of ``K`` for the MNA methods).  ``False``
        forces the sequential per-corner loop (the parity reference).
    """

    def __init__(
        self,
        simulator,
        corner_set: Optional[CornerSet] = None,
        spec_space: Optional[SpecificationSpace] = None,
        batched: bool = True,
    ) -> None:
        self.base_simulator = simulator
        self.corner_set = corner_set if corner_set is not None else default_corner_set()
        self.spec_space = spec_space
        self.technologies = tuple(
            corner.apply(simulator.technology) for corner in self.corner_set
        )
        # Cloning also validates the simulator type up front, before the
        # first simulate call deep inside an episode.
        self._corner_simulators = tuple(
            clone_simulator_with_technology(simulator, technology)
            for technology in self.technologies
        )
        self.batched = bool(batched) and type(simulator) in BATCHED_SIMULATOR_TYPES
        self.name = f"corners[{getattr(simulator, 'name', type(simulator).__name__)}]"

    # ------------------------------------------------------------------
    # CircuitSimulator protocol
    # ------------------------------------------------------------------
    def simulate(self, netlist: Netlist) -> SimulationResult:
        """Merged worst-corner result plus flattened per-corner spec keys."""
        return self.merge(self.corner_results(netlist))

    # ------------------------------------------------------------------
    # Per-corner evaluation
    # ------------------------------------------------------------------
    def corner_results(self, netlist: Netlist) -> List[SimulationResult]:
        """One :class:`SimulationResult` per corner, in corner-set order."""
        if self.batched:
            return self.base_simulator.simulate_batch(
                [netlist] * len(self._corner_simulators),
                operating_points=[
                    simulator.operating_point(netlist)
                    for simulator in self._corner_simulators
                ],
            )
        return [
            simulator.simulate(netlist) for simulator in self._corner_simulators
        ]

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _worst_value(self, name: str, values: Sequence[float]) -> float:
        if self.spec_space is None:
            return values[0]
        objective = None
        for spec in self.spec_space:
            if spec.name == name:
                objective = spec.objective
                break
        if objective is None:
            return values[0]
        if objective is Objective.MINIMIZE:
            return max(values)
        return min(values)

    def merge(self, results: Sequence[SimulationResult]) -> SimulationResult:
        """Fold per-corner results into the protocol's single result."""
        corners = list(self.corner_set)
        if len(results) != len(corners):
            raise ValueError(f"{len(results)} results for {len(corners)} corners")
        specs: Dict[str, float] = {}
        for name in results[0].specs:
            values = [result.specs[name] for result in results]
            specs[name] = self._worst_value(name, values)
        for corner, result in zip(corners, results):
            for name, value in result.specs.items():
                specs[self.corner_set.spec_key(name, corner)] = value
        details: Dict[str, float] = {}
        for corner, result in zip(corners, results):
            details[f"corner_valid@{corner.name}"] = float(result.valid)
            for name, value in result.details.items():
                details[f"{name}@{corner.name}"] = value
        valid = all(result.valid for result in results)
        return SimulationResult(specs=specs, details=details, valid=valid)
