"""Modified nodal analysis (MNA) engine — the repository's mini-SPICE.

The paper's design environment invokes Cadence Spectre for AC/DC analysis of
the op-amp.  This module provides the equivalent substrate: a small circuit
simulator supporting

* **DC operating-point analysis** with Newton–Raphson iteration over
  nonlinear square-law MOSFETs (linear elements are stamped directly), and
* **AC small-signal analysis** over a frequency sweep, including linearized
  MOSFETs, resistors, capacitors, inductors, controlled sources and
  independent sources.

There is one stamping and solve implementation, :class:`BatchedMNAPlan`.
It analyses ``K`` circuits of one topology at once.  Node ordering, stamp
lists and element columns depend only on the circuit structure, so they are
built once per :meth:`MnaCircuit.structure_signature` and kept in a bounded
cache; a plan only stacks the ``(K, V)`` element values.
:meth:`MnaCircuit.dc_operating_point` and :meth:`MnaCircuit.ac_analysis` are
that plan at ``K = 1``; :func:`template_sweep_metrics`, behind the op-amp
and OTA ``simulate_batch``, drives the same plan with one lane per circuit,
restamping element values through :meth:`BatchedMNAPlan.set_values`.

Schur-form AC sweep
-------------------
``G``, ``C`` and ``b`` of ``(G + jωC) x = b`` do not depend on ``ω``, so each
circuit is reduced once (Laub, "Efficient multivariable frequency response
computations", IEEE TAC 1981): ``A = G⁻¹C`` and ``w = G⁻¹b`` from one real LU
solve, then the complex Schur form ``A = QTQᴴ`` (LAPACK ``zgees``, the routine
behind ``scipy.linalg.schur``).  Every frequency is then the upper
triangular system ``(I + jωT) y = Qᴴw`` and ``x = Qy``: an ``O(n²)``
back-substitution, vectorised over the circuits and the sweep.  Schur
rather than an eigendecomposition, because ``T`` stays well conditioned
where ``A`` is defective (two stages with equal time constants make a
Jordan block).  A ``G`` that is singular — a node reached only through
capacitors — is reduced at an imaginary shift instead, ``A = (G + jσC)⁻¹C``
with ``s = j(ω - σ)``.  A pivot ``1 + s·tᵢᵢ`` that vanishes to rounding is a
pole on the jω axis at a sweep frequency and raises
:class:`ConvergenceError` naming the circuit and the frequency, as does a
system that is singular at every frequency.

Numerical contract
------------------
DC is bitwise identical to the original one-solve-per-Newton-iteration loop
(kept in the tests as a reference): stamps accumulate in a fixed element
order (resistors → VCCS → MOSFETs → sources → branch rows), each entry from
``0.0``, and Newton iterates only the not-yet-converged circuits, which is
exact because circuits are independent.

AC is held to a tolerance against the reference's dense solve per
frequency: at every frequency the largest node-voltage error is at most
``1e-9`` times the largest reference node voltage.  Measured maxima: 1.8e-10
on a two-pole amplifier with gm up to 8 mS (its non-normal ``G⁻¹C`` costs
the digits), 3.4e-14 on an RLC branch, 2.5e-14 on the equal-time-constant
cascade, 3.5e-12 on a DC-floating node (shifted), 2.2e-16 with a linearized
MOSFET.  The error is normwise: a node far smaller than the largest one
(a DC-floating node's neighbour at low frequency) can carry a larger
relative error.  On the op-amp and OTA output nodes, 303 design points gave
at most 2.4e-11 pointwise; over 508 points, ``simulate`` specs moved by at
most 2.0e-11 relative (3.4e-13 at the golden probe points), with no
validity flip.

A circuit's AC result is still bitwise independent of which batch it is
solved in, so the batched and scalar routes agree exactly: the reductions
are per-circuit LAPACK calls, and the sweep is elementwise across lanes.

The engine is deliberately dense-matrix based: analog cells have tens of
nodes, so dense LAPACK is both simple and fast.  It backs the
``method="mna"`` evaluators (:mod:`repro.simulation.opamp_sim`,
:mod:`repro.simulation.ota_sim`) and is unit-tested against closed-form
circuit theory results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgesv, zgees, zgesv


from repro.simulation.mosfet import MosfetModel

#: Net names treated as the global reference node.
GROUND_NAMES = ("0", "gnd", "vgnd", "ground")

#: The op-amp and OTA ``method="mna"`` sweep: 401 points, 10 Hz to 100 GHz.
SWEEP_FREQUENCIES = np.logspace(1, 11, 401)
SWEEP_FREQUENCIES.flags.writeable = False


class ConvergenceError(RuntimeError):
    """Raised when the Newton iteration fails to converge."""


@dataclass
class _Resistor:
    name: str
    n1: str
    n2: str
    value: float


@dataclass
class _Capacitor:
    name: str
    n1: str
    n2: str
    value: float


@dataclass
class _Inductor:
    name: str
    n1: str
    n2: str
    value: float


@dataclass
class _VoltageSource:
    name: str
    n_plus: str
    n_minus: str
    dc: float
    ac: float


@dataclass
class _CurrentSource:
    name: str
    n_plus: str
    n_minus: str
    dc: float
    ac: float


@dataclass
class _Vccs:
    """Voltage-controlled current source: ``i(out+ -> out-) = gm * v(in+, in-)``."""

    name: str
    out_plus: str
    out_minus: str
    in_plus: str
    in_minus: str
    gm: float


@dataclass
class _Mosfet:
    name: str
    drain: str
    gate: str
    source: str
    model: MosfetModel


@dataclass
class DcSolution:
    """Result of a DC operating-point analysis."""

    node_voltages: Dict[str, float]
    source_currents: Dict[str, float]
    iterations: int

    def voltage(self, node: str) -> float:
        if node.lower() in GROUND_NAMES:
            return 0.0
        return self.node_voltages[node]


@dataclass
class AcSolution:
    """Result of an AC sweep: complex node voltages per frequency."""

    frequencies: np.ndarray
    node_voltages: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node.lower() in GROUND_NAMES:
            return np.zeros_like(self.frequencies, dtype=np.complex128)
        return self.node_voltages[node]

    def transfer(self, output_node: str, input_node: str) -> np.ndarray:
        """Complex transfer function V(out)/V(in) over the sweep."""
        vin = self.voltage(input_node)
        vout = self.voltage(output_node)
        return vout / vin

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.voltage(node)) + 1e-300)


def frequency_response_metrics(
    frequencies: np.ndarray, response: np.ndarray
) -> Tuple[float, float, float]:
    """DC gain, unity-gain frequency and phase margin of one AC response.

    ``response`` is the complex output phasor over the ascending sweep
    ``frequencies`` for a unit input.  The DC gain is ``|H|`` at the first
    point; the unity-gain frequency interpolates ``log f`` against ``log |H|``
    across the last ``|H| >= 1`` point (the sweep end when the response
    never drops below one, ``0.0`` when it never reaches one); the phase
    margin is ``180°`` plus the unwrapped phase lag at that frequency
    relative to DC, clipped to ``[0, 180]`` (``0.0`` without a crossing).
    """
    magnitude = np.abs(response)
    gain = float(magnitude[0])
    above = magnitude >= 1.0
    if not above.any() or above.all():
        return gain, float(frequencies[-1] if above.all() else 0.0), 0.0
    last_above = int(np.nonzero(above)[0][-1])
    if last_above + 1 >= magnitude.size:
        unity_freq = float(frequencies[-1])
    else:
        f_lo, f_hi = frequencies[last_above], frequencies[last_above + 1]
        m_lo, m_hi = magnitude[last_above], magnitude[last_above + 1]
        weight = np.log(m_lo) / (np.log(m_lo) - np.log(m_hi))
        unity_freq = float(np.exp(np.log(f_lo) + weight * (np.log(f_hi) - np.log(f_lo))))
    phase = np.unwrap(np.angle(response))
    phase_at_unity = float(np.interp(np.log(unity_freq), np.log(frequencies), phase))
    margin = 180.0 + math.degrees(phase_at_unity - float(phase[0]))
    return gain, unity_freq, float(np.clip(margin, 0.0, 180.0))


class MnaCircuit:
    """A circuit assembled element by element and solved with MNA."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._resistors: List[_Resistor] = []
        self._capacitors: List[_Capacitor] = []
        self._inductors: List[_Inductor] = []
        self._vsources: List[_VoltageSource] = []
        self._isources: List[_CurrentSource] = []
        self._vccs: List[_Vccs] = []
        self._mosfets: List[_Mosfet] = []
        self._names: set[str] = set()

    # ------------------------------------------------------------------
    # Element construction
    # ------------------------------------------------------------------
    def _register(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate element name '{name}'")
        self._names.add(name)

    def add_resistor(self, name: str, n1: str, n2: str, value: float) -> None:
        if value <= 0:
            raise ValueError(f"resistor {name} must have positive resistance")
        self._register(name)
        self._resistors.append(_Resistor(name, n1, n2, float(value)))

    def add_capacitor(self, name: str, n1: str, n2: str, value: float) -> None:
        if value <= 0:
            raise ValueError(f"capacitor {name} must have positive capacitance")
        self._register(name)
        self._capacitors.append(_Capacitor(name, n1, n2, float(value)))

    def add_inductor(self, name: str, n1: str, n2: str, value: float) -> None:
        if value <= 0:
            raise ValueError(f"inductor {name} must have positive inductance")
        self._register(name)
        self._inductors.append(_Inductor(name, n1, n2, float(value)))

    def add_voltage_source(self, name: str, n_plus: str, n_minus: str, dc: float = 0.0,
                           ac: float = 0.0) -> None:
        self._register(name)
        self._vsources.append(_VoltageSource(name, n_plus, n_minus, float(dc), float(ac)))

    def add_current_source(self, name: str, n_plus: str, n_minus: str, dc: float = 0.0,
                           ac: float = 0.0) -> None:
        self._register(name)
        self._isources.append(_CurrentSource(name, n_plus, n_minus, float(dc), float(ac)))

    def add_vccs(self, name: str, out_plus: str, out_minus: str, in_plus: str, in_minus: str,
                 gm: float) -> None:
        self._register(name)
        self._vccs.append(_Vccs(name, out_plus, out_minus, in_plus, in_minus, float(gm)))

    def add_mosfet(self, name: str, drain: str, gate: str, source: str, model: MosfetModel) -> None:
        self._register(name)
        self._mosfets.append(_Mosfet(name, drain, gate, source, model))

    # ------------------------------------------------------------------
    # Structural introspection (read-only views used by BatchedMNAPlan)
    # ------------------------------------------------------------------
    @property
    def resistors(self) -> Tuple[_Resistor, ...]:
        return tuple(self._resistors)

    @property
    def capacitors(self) -> Tuple[_Capacitor, ...]:
        return tuple(self._capacitors)

    @property
    def inductors(self) -> Tuple[_Inductor, ...]:
        return tuple(self._inductors)

    @property
    def vsources(self) -> Tuple[_VoltageSource, ...]:
        return tuple(self._vsources)

    @property
    def isources(self) -> Tuple[_CurrentSource, ...]:
        return tuple(self._isources)

    @property
    def vccs_elements(self) -> Tuple[_Vccs, ...]:
        return tuple(self._vccs)

    @property
    def mosfets(self) -> Tuple[_Mosfet, ...]:
        return tuple(self._mosfets)

    def structure_signature(self) -> Tuple:
        """Hashable topology signature: element kinds, names and node wiring.

        Two circuits with equal signatures have identical sparsity patterns,
        node orderings and stamp orders — exactly the precondition for
        analysing them in one :class:`BatchedMNAPlan`, which builds that
        topology once per signature.  Element *values* are deliberately
        excluded: they are the per-step restamped quantities.
        """
        return (
            tuple(("r", r.name, r.n1, r.n2) for r in self._resistors),
            tuple(("c", c.name, c.n1, c.n2) for c in self._capacitors),
            tuple(("l", e.name, e.n1, e.n2) for e in self._inductors),
            tuple(("v", v.name, v.n_plus, v.n_minus) for v in self._vsources),
            tuple(("i", s.name, s.n_plus, s.n_minus) for s in self._isources),
            tuple(
                ("g", g.name, g.out_plus, g.out_minus, g.in_plus, g.in_minus)
                for g in self._vccs
            ),
            tuple(
                ("m", m.name, m.drain, m.gate, m.source, m.model.polarity)
                for m in self._mosfets
            ),
        )

    def _value_row(self) -> List[float]:
        """Element values in the plan's value-row order (``_VALUE_KINDS``)."""
        return (
            [r.value for r in self._resistors]
            + [c.value for c in self._capacitors]
            + [e.value for e in self._inductors]
            + [v.dc for v in self._vsources]
            + [v.ac for v in self._vsources]
            + [s.dc for s in self._isources]
            + [s.ac for s in self._isources]
            + [g.gm for g in self._vccs]
        )

    @property
    def node_names(self) -> List[str]:
        return list(_topology(self.structure_signature()).nodes)

    # ------------------------------------------------------------------
    # Analyses (one-circuit calls into BatchedMNAPlan)
    # ------------------------------------------------------------------
    def dc_operating_point(
        self,
        max_iterations: int = 200,
        tolerance: float = 1e-9,
        initial_guess: Optional[Dict[str, float]] = None,
        damping: float = 1.0,
        max_voltage_step: float = 0.3,
    ) -> DcSolution:
        """Solve the nonlinear DC operating point with Newton–Raphson.

        Capacitors are open and inductors are shorts (modelled as 0 V
        sources) at DC.  Each MOSFET is replaced by its companion model —
        a conductance/current-source linearization around the present
        voltage estimate — and the resulting linear system is re-solved until
        the node voltages stop changing.  See
        :meth:`BatchedMNAPlan.dc_operating_points` for the arguments.
        """
        plan = BatchedMNAPlan.from_circuits([self])
        return plan.dc_operating_points(
            max_iterations=max_iterations,
            tolerance=tolerance,
            initial_guess=[initial_guess],
            damping=damping,
            max_voltage_step=max_voltage_step,
        )[0]

    def ac_analysis(
        self,
        frequencies: Sequence[float],
        operating_point: Optional[DcSolution] = None,
    ) -> AcSolution:
        """Small-signal frequency sweep.

        Every MOSFET is linearized around ``operating_point`` (which is
        computed on the fly if not supplied and any MOSFET is present).
        Independent sources contribute their ``ac`` amplitude; DC values are
        zeroed as usual for small-signal analysis.
        """
        operating_points = None if operating_point is None else [operating_point]
        return BatchedMNAPlan.from_circuits([self]).ac_sweep(frequencies, operating_points)[0]


@dataclass(frozen=True)
class _Stamps:
    """One analysis's stamps into a flat per-circuit system vector.

    Each circuit's system is stored flat as its matrices followed by its
    right-hand side.  Stamp ``r`` adds ``signs[r] * table[:, columns[r]]``
    at ``positions[r]``; every entry starts at ``0.0`` and accumulates its
    stamps in order.  The right-hand-side entries ``assigned`` (voltage
    source branch rows) are then set to ``table[:, assigned_from]``.
    """

    length: int
    positions: np.ndarray
    columns: np.ndarray
    signs: np.ndarray
    assigned: np.ndarray
    assigned_from: np.ndarray

    @classmethod
    def of(
        cls,
        length: int,
        stamps: Sequence[Tuple[int, int, float]],
        assigned: Sequence[int],
        assigned_from: Sequence[int],
    ) -> "_Stamps":
        positions, columns, signs = zip(*stamps) if stamps else ((), (), ())
        arrays = [
            np.array(values, dtype=dtype)
            for values, dtype in ((positions, np.intp), (columns, np.intp),
                                  (signs, np.float64), (assigned, np.intp),
                                  (assigned_from, np.intp))
        ]
        for array in arrays:
            array.flags.writeable = False
        return cls(length, *arrays)

    def apply(self, table: np.ndarray) -> np.ndarray:
        """The ``(K, length)`` stacked systems for the value ``table``."""
        K = table.shape[0]
        # bincount adds its weights in input order, so each entry sums its
        # own circuit's stamps in stamp order, whatever K is.
        bins = (np.arange(K)[:, None] * self.length + self.positions).ravel()
        weights = (table[:, self.columns] * self.signs).ravel()
        system = np.bincount(bins, weights, minlength=K * self.length)
        system = system.reshape(K, self.length).astype(np.float64, copy=False)
        system[:, self.assigned] = table[:, self.assigned_from]
        return system


#: Value kinds of one circuit's value row, in order (see ``MnaCircuit._value_row``).
_VALUE_KINDS = ("res", "cap", "ind", "vsrc_dc", "vsrc_ac", "isrc_dc", "isrc_ac", "vccs")


@dataclass(frozen=True)
class _Topology:
    """Everything an MNA plan derives from a circuit's structure alone.

    A plan stamps from a value table with one row per circuit: the element
    values in :data:`_VALUE_KINDS` order (resistances replaced by
    conductances), then the linearized MOSFET ``gm`` and ``gds``, then a
    constant ``1.0`` for the branch-row incidence stamps.  The AC system is
    ``[G | C | b]`` (``n × n``, ``n × n``, ``n``) for ``(G + jωC) x = b``;
    the DC system is ``[G | b]``, capacitors open and inductors shorted.
    """

    nodes: Tuple[str, ...]
    index: Mapping[str, int]
    size: int
    branch_names: Tuple[str, ...]
    resistor_columns: slice
    element_columns: Mapping[str, int]  # restampable element -> value-row column
    mosfet_nodes: Tuple[Tuple[Optional[int], Optional[int], Optional[int]], ...]
    ac: _Stamps
    dc: _Stamps

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@functools.lru_cache(maxsize=64)
def _topology(signature: Tuple) -> _Topology:
    """The plan topology of one :meth:`MnaCircuit.structure_signature`, built once.

    Nodes are numbered in first-appearance order over resistors, capacitors,
    inductors, voltage sources, current sources, VCCSs and MOSFETs; stamps
    follow the same element order, so every matrix entry accumulates its
    contributions in one fixed order.
    """
    resistors, capacitors, inductors, vsources, isources, vccs, mosfets = signature
    nodes: Dict[str, None] = {}
    for group, width in (
        (resistors, 2), (capacitors, 2), (inductors, 2), (vsources, 2), (isources, 2),
        (vccs, 4), (mosfets, 3),
    ):
        for entry in group:
            for net in entry[2:2 + width]:
                if net.lower() not in GROUND_NAMES:
                    nodes.setdefault(net, None)
    index = {node: i for i, node in enumerate(nodes)}
    num_nodes = len(index)
    size = num_nodes + len(vsources) + len(inductors)
    matrix = size * size

    groups = (resistors, capacitors, inductors, vsources, vsources, isources, isources, vccs)
    starts = np.cumsum([0] + [len(group) for group in groups]).tolist()
    kind_start = dict(zip(_VALUE_KINDS, starts))
    gm_start = starts[-1]
    gds_start = gm_start + len(mosfets)
    one = gds_start + len(mosfets)

    def node(net: str) -> Optional[int]:
        return None if net.lower() in GROUND_NAMES else index[net]

    def admittance(stamps: list, offset: int, column: int, n1: str, n2: str) -> None:
        i, j = node(n1), node(n2)
        if i is not None:
            stamps.append((offset + i * size + i, column, 1.0))
        if j is not None:
            stamps.append((offset + j * size + j, column, 1.0))
        if i is not None and j is not None:
            stamps.append((offset + i * size + j, column, -1.0))
            stamps.append((offset + j * size + i, column, -1.0))

    def transconductance(stamps: list, column: int, out_plus: str, out_minus: str,
                         in_plus: str, in_minus: str) -> None:
        for out_node, out_sign in ((node(out_plus), 1.0), (node(out_minus), -1.0)):
            if out_node is None:
                continue
            for in_node, in_sign in ((node(in_plus), 1.0), (node(in_minus), -1.0)):
                if in_node is not None:
                    stamps.append((out_node * size + in_node, column, out_sign * in_sign))

    def branch_rows(stamps: list, row: int, n_plus: str, n_minus: str) -> None:
        for n, sign in ((node(n_plus), 1.0), (node(n_minus), -1.0)):
            if n is not None:
                stamps.append((n * size + row, one, sign))
                stamps.append((row * size + n, one, sign))

    def system(analysis: str, rhs_offset: int, stamps: list) -> _Stamps:
        """Append the ``G`` stamps shared by AC and DC, then the sources."""
        for idx, (_, _, n1, n2) in enumerate(resistors):
            admittance(stamps, 0, kind_start["res"] + idx, n1, n2)
        for idx, (_, _, op, om, ip, im) in enumerate(vccs):
            transconductance(stamps, kind_start["vccs"] + idx, op, om, ip, im)
        if analysis == "ac":
            # Linearized MOSFETs; at DC their companion stamps are live.
            for idx, (_, _, drain, gate, source, _) in enumerate(mosfets):
                transconductance(stamps, gm_start + idx, drain, source, gate, source)
                admittance(stamps, 0, gds_start + idx, drain, source)
        # Branch rows: voltage sources, then inductors (0 V sources at DC).
        for branch, (_, _, n_plus, n_minus) in enumerate(vsources + inductors):
            branch_rows(stamps, num_nodes + branch, n_plus, n_minus)
        for idx, (_, _, n_plus, n_minus) in enumerate(isources):
            for n, sign in ((node(n_plus), -1.0), (node(n_minus), 1.0)):
                if n is not None:
                    stamps.append((rhs_offset + n, kind_start[f"isrc_{analysis}"] + idx, sign))
        return _Stamps.of(
            rhs_offset + size,
            stamps,
            [rhs_offset + num_nodes + branch for branch in range(len(vsources))],
            [kind_start[f"vsrc_{analysis}"] + branch for branch in range(len(vsources))],
        )

    # The AC list starts with the C block; no C stamp shares an entry with
    # a G stamp, so G accumulates in the same order as at DC.
    capacitance: list = []
    for idx, (_, _, n1, n2) in enumerate(capacitors):
        admittance(capacitance, matrix, kind_start["cap"] + idx, n1, n2)
    for branch in range(len(inductors)):
        row = num_nodes + len(vsources) + branch
        capacitance.append((matrix + row * size + row, kind_start["ind"] + branch, -1.0))

    return _Topology(
        nodes=tuple(index),
        index=MappingProxyType(index),
        size=size,
        branch_names=tuple(entry[1] for entry in vsources + inductors),
        resistor_columns=slice(kind_start["res"], kind_start["cap"]),
        element_columns=MappingProxyType({
            entry[1]: kind_start[kind] + idx
            for kind, group in (("res", resistors), ("cap", capacitors),
                                ("ind", inductors), ("vccs", vccs))
            for idx, entry in enumerate(group)
        }),
        mosfet_nodes=tuple(
            (node(drain), node(gate), node(source)) for _, _, drain, gate, source, _ in mosfets
        ),
        ac=system("ac", 2 * matrix, capacitance),
        dc=system("dc", matrix, []),
    )


def _keep_order(eigenvalue: complex) -> int:
    """``gees`` eigenvalue selector; unused because the Schur form is not sorted."""
    return 0


class BatchedMNAPlan:
    """Stacked AC/DC evaluation of ``K`` structurally identical circuits.

    Build it with :meth:`from_circuits` (concrete circuits, MOSFETs allowed)
    or :meth:`from_template` (one linear circuit whose element values are
    then restamped per lane with :meth:`set_values`).  Node ordering and
    stamps come from the shared topology of the circuits'
    :meth:`~MnaCircuit.structure_signature`, built once per signature; a
    plan itself only holds the ``(K, V)`` element values.  A singular system
    raises :class:`ConvergenceError` naming the circuit and, for AC, the
    first singular frequency.
    """

    def __init__(
        self,
        topology: _Topology,
        values: np.ndarray,
        name: str,
        circuits: Optional[List[MnaCircuit]] = None,
    ) -> None:
        self._topology = topology
        self._values = values
        self._name = name
        self._circuits = circuits
        self.num_circuits = values.shape[0]
        self.num_nodes = topology.num_nodes
        self.size = topology.size

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_circuits(cls, circuits: Sequence[MnaCircuit]) -> "BatchedMNAPlan":
        """Plan over concrete circuits (stacks their element values)."""
        circuits = list(circuits)
        if not circuits:
            raise ValueError("BatchedMNAPlan requires at least one circuit")
        signature = circuits[0].structure_signature()
        for circuit in circuits[1:]:
            if circuit.structure_signature() != signature:
                raise ValueError(f"circuit '{circuit.name}' does not match the plan topology")
        values = np.array([circuit._value_row() for circuit in circuits], dtype=np.float64)
        return cls(_topology(signature), values, circuits[0].name, circuits)

    @classmethod
    def from_template(cls, template: MnaCircuit, num_circuits: int) -> "BatchedMNAPlan":
        """Plan from one template circuit; restamp values via :meth:`set_values`.

        Template mode carries no per-circuit MOSFET models, so nonlinear
        circuits must use :meth:`from_circuits`.
        """
        if template.mosfets:
            raise ValueError(
                "template-mode BatchedMNAPlan does not support MOSFETs; use from_circuits"
            )
        if num_circuits <= 0:
            raise ValueError("BatchedMNAPlan requires at least one circuit")
        row = np.array(template._value_row(), dtype=np.float64)
        values = np.tile(row, (int(num_circuits), 1))
        return cls(_topology(template.structure_signature()), values, template.name)

    def set_values(self, name: str, values: np.ndarray) -> None:
        """Restamp one element's per-circuit values (the per-step hot path)."""
        column = self._topology.element_columns.get(name)
        if column is None:
            raise KeyError(f"no restampable element named '{name}'")
        self._values[:, column] = np.asarray(values, dtype=np.float64)

    def _value_table(self, mosfet_lin: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
        """Per-circuit stamp values: element values, MOSFET ``gm``/``gds``, ``1.0``."""
        K, num_values = self._values.shape
        num_mos = len(self._topology.mosfet_nodes)
        table = np.zeros((K, num_values + 2 * num_mos + 1))
        table[:, :num_values] = self._values
        resistors = self._topology.resistor_columns
        table[:, resistors] = 1.0 / self._values[:, resistors]
        if mosfet_lin is not None:
            table[:, num_values:num_values + num_mos] = mosfet_lin["mos_gm"]
            table[:, num_values + num_mos:-1] = mosfet_lin["mos_gds"]
        table[:, -1] = 1.0
        return table

    def _circuit_name(self, k: int) -> str:
        if self._circuits is not None:
            return self._circuits[k].name
        return self._name

    # ------------------------------------------------------------------
    # AC analysis
    # ------------------------------------------------------------------
    def ac_sweep(
        self,
        frequencies: Sequence[float],
        operating_points: Optional[Sequence[DcSolution]] = None,
    ) -> List[AcSolution]:
        """Small-signal sweep of every circuit over ``frequencies``.

        MOSFETs are linearized around ``operating_points`` (one per circuit),
        computed with :meth:`dc_operating_points` when not supplied.  Each
        circuit's ``(G + jωC) x = b`` is reduced once (see the module's
        "Schur-form AC sweep") and every frequency is then one
        back-substitution, vectorised over the circuits and the sweep.
        """
        frequencies = np.array(frequencies, dtype=np.float64)
        if frequencies.ndim != 1 or frequencies.size == 0:
            raise ValueError("frequencies must be a non-empty 1-D sequence")
        if frequencies.min() <= 0:
            raise ValueError("AC analysis requires positive frequencies")

        mosfet_lin = None
        if self._topology.mosfet_nodes:
            if operating_points is None:
                operating_points = self.dc_operating_points()
            mosfet_lin = self._linearize_mosfets(operating_points)

        topology = self._topology
        K, n, num_nodes = self.num_circuits, self.size, self.num_nodes
        system = topology.ac.apply(self._value_table(mosfet_lin))
        matrices = system[:, :2 * n * n].reshape(K, 2, n, n)

        shift = np.zeros(K)
        schur = np.zeros((K, n, n), dtype=np.complex128)
        basis = np.empty((K, num_nodes, n), dtype=np.complex128)
        projected = np.empty((K, n), dtype=np.complex128)
        for k in range(K):
            reduced = self._schur_reduce(k, matrices[k, 0], matrices[k, 1], system[k, -n:],
                                         frequencies)
            if reduced is None:
                basis[k] = projected[k] = np.nan
            else:
                shift[k], schur[k], vectors, projected[k] = reduced
                basis[k] = vectors[:num_nodes]

        # s = j(ω - σ).  (I + sT) y = Qᴴw is solved column by column from
        # the bottom: once yⱼ is known, s·tᵢⱼ·yⱼ leaves every row i < j.
        s = np.zeros((K, frequencies.size), dtype=np.complex128)
        s.imag = 2.0 * np.pi * frequencies - shift[:, None]
        eigenvalues = np.diagonal(schur, axis1=1, axis2=2).T
        pivots = 1.0 + s * eigenvalues[:, :, None]
        self._check_pivots(pivots, eigenvalues, s, frequencies)
        y = np.repeat(projected.T[:, :, None], frequencies.size, axis=2)
        for j in range(n - 1, -1, -1):
            y[j] /= pivots[j]
            if j:
                y[:j] -= schur[:, :j, j].T[:, :, None] * (s * y[j])
        # x = Qy, summed over j in order for every node and frequency.
        voltages = (basis[:, :, :, None] * y.transpose(1, 0, 2)[:, None]).sum(axis=2)

        return [
            AcSolution(
                frequencies=frequencies.copy(),
                node_voltages=dict(zip(topology.nodes, voltages[k])),
            )
            for k in range(K)
        ]

    def _schur_reduce(
        self, k: int, g: np.ndarray, c: np.ndarray, b: np.ndarray, frequencies: np.ndarray
    ) -> Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """One circuit's ``(σ, T, Q, Qᴴw)``: ``(G + jσC)⁻¹C = QTQᴴ``, ``w = (G + jσC)⁻¹b``.

        ``σ = 0`` unless ``G`` is singular (a node reached only through
        capacitors); then ``σ`` is the geometric centre of the sweep's
        angular frequencies.  ``G + jσC`` keeps ``G`` and ``C`` apart in its
        real and imaginary parts, so it is conditioned like a system of the
        sweep itself, and the centre balances the rounding of a pole at
        ``s = 0`` at the low end against that of ``|T| ≈ 1/σ`` at the high
        end.  A singular ``G + jσC`` is reported as a singular system at the
        first sweep frequency.  ``None`` (NaN voltages) when the values are
        not finite or overflow the reduction.
        """
        n = g.shape[0]
        operands = np.concatenate((c, b[:, None]), axis=1)
        shift = 0.0
        *_, reduced, info = dgesv(g, operands)
        if info > 0:
            shift = 2.0 * np.pi * math.sqrt(float(frequencies.min()) * float(frequencies.max()))
            *_, reduced, info = zgesv(g + (1j * shift) * c, operands)
            if info > 0:
                raise ConvergenceError(
                    f"singular AC MNA matrix in '{self._circuit_name(k)}' "
                    f"at f={frequencies[0]:.3g} Hz"
                )
        if not np.isfinite(reduced).all():
            return None
        schur, _, _, vectors, _, info = zgees(_keep_order, reduced[:, :n])
        if info != 0:
            raise ConvergenceError(
                f"Schur reduction of the AC MNA system in '{self._circuit_name(k)}' failed"
            )
        return shift, schur, vectors, vectors.conj().T @ reduced[:, n]

    def _check_pivots(
        self,
        pivots: np.ndarray,
        eigenvalues: np.ndarray,
        s: np.ndarray,
        frequencies: np.ndarray,
    ) -> None:
        """Raise where a pivot ``1 + s·tᵢᵢ`` vanishes to rounding.

        That is a pole on the jω axis at a sweep frequency (an undamped
        resonance), where ``G + jωC`` itself is singular.  "To rounding" is
        ``|1 + s·tᵢᵢ| ≤ 16·n·ε·|s·tᵢᵢ|``, a margin over the Schur form's
        backward error.  As ``s`` is purely imaginary,
        ``|1 + s·tᵢᵢ| ≥ |s|·|Re tᵢᵢ|``, so the full check runs only when
        some eigenvalue ``tᵢᵢ`` is (numerically) purely imaginary.
        """
        tolerance = 16 * pivots.shape[0] * np.finfo(np.float64).eps * np.abs(eigenvalues)
        if not (np.abs(eigenvalues.real) < tolerance).any():
            return
        vanished = (np.abs(pivots) <= tolerance[:, :, None] * np.abs(s)).any(axis=0)
        if vanished.any():
            k, f_index = np.argwhere(vanished)[0]
            raise ConvergenceError(
                f"singular AC MNA matrix in '{self._circuit_name(int(k))}' "
                f"at f={frequencies[f_index]:.3g} Hz"
            )

    def _linearize_mosfets(self, operating_points: Sequence[DcSolution]) -> Dict[str, np.ndarray]:
        assert self._circuits is not None, "MOSFET plans require from_circuits"
        num_mos = len(self._topology.mosfet_nodes)
        gm = np.zeros((self.num_circuits, num_mos))
        gds = np.zeros((self.num_circuits, num_mos))
        for k, circuit in enumerate(self._circuits):
            op_point = operating_points[k]
            for m_idx, m in enumerate(circuit.mosfets):
                vg = op_point.voltage(m.gate)
                vd = op_point.voltage(m.drain)
                vs = op_point.voltage(m.source)
                op = m.model.operating_point(vg - vs, vd - vs)
                gm[k, m_idx] = op.gm
                gds[k, m_idx] = max(op.gds, 1e-12)
        return {"mos_gm": gm, "mos_gds": gds}

    # ------------------------------------------------------------------
    # DC analysis (batched Newton over the not-yet-converged slice)
    # ------------------------------------------------------------------
    def dc_operating_points(
        self,
        max_iterations: int = 200,
        tolerance: float = 1e-9,
        initial_guess: Optional[Sequence[Optional[Mapping[str, float]]]] = None,
        damping: float = 1.0,
        max_voltage_step: float = 0.3,
    ) -> List[DcSolution]:
        """Newton–Raphson DC operating point of every circuit.

        ``initial_guess`` holds one optional ``{net: voltage}`` start point
        per circuit (nets not in the circuit are ignored; the rest start at
        0 V).  Each iteration's node-voltage update is scaled down so that no
        node moves more than ``max_voltage_step`` (SPICE-style limiting, so
        Newton cannot oscillate across the square-law region boundaries of
        high-gain stages), then multiplied by ``damping``; a circuit has
        converged once its largest node update is below ``tolerance``.
        """
        topology = self._topology
        K, size, num_nodes = self.num_circuits, self.size, self.num_nodes
        has_mosfets = bool(topology.mosfet_nodes)
        if has_mosfets and self._circuits is None:
            raise ValueError("MOSFET DC analysis requires a from_circuits plan")
        if initial_guess is not None and len(initial_guess) != K:
            raise ValueError(f"{len(initial_guess)} initial guesses for {K} circuits")

        system = topology.dc.apply(self._value_table())
        base_matrix = system[:, :size * size].reshape(K, size, size)
        base_rhs = system[:, size * size:]

        solution = np.zeros((K, size))
        for k, guess in enumerate(initial_guess or ()):
            for net, value in (guess or {}).items():
                if net in topology.index:
                    solution[k, topology.index[net]] = value
        iterations = np.zeros(K, dtype=np.int64)
        active = np.arange(K)
        for iteration in range(1, max_iterations + 1):
            matrix = base_matrix[active].copy()
            rhs = base_rhs[active].copy()
            if has_mosfets:
                assert self._circuits is not None
                for pos, k in enumerate(active):
                    self._stamp_mosfet_companions(
                        self._circuits[k], solution[k], matrix[pos], rhs[pos]
                    )
            try:
                # RHS as an explicit (B, n, 1) column: a plain (B, n) would be
                # read as one (m, n) matrix by the solve gufunc, not a stack.
                new_solution = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                self._raise_singular_dc(matrix, active)
                raise
            delta = new_solution - solution[active]
            node_delta = delta[:, :num_nodes]
            if num_nodes:
                largest = np.max(np.abs(node_delta), axis=1)
            else:
                largest = np.zeros(len(active))
            if max_voltage_step > 0.0:
                with np.errstate(divide="ignore", invalid="ignore"):
                    scale = np.where(largest > max_voltage_step, max_voltage_step / largest, 1.0)
                delta = delta * scale[:, None]
            solution[active] = solution[active] + damping * delta
            converged = np.max(np.abs(delta[:, :num_nodes]), axis=1) < tolerance
            iterations[active[converged]] = iteration
            active = active[~converged]
            if active.size == 0:
                break
        else:
            name = self._circuit_name(int(active[0]))
            raise ConvergenceError(
                f"DC analysis of '{name}' did not converge in {max_iterations} iterations"
            )

        results = []
        for k in range(K):
            node_voltages = {
                node: float(solution[k, topology.index[node]]) for node in topology.nodes
            }
            source_currents = {
                name: float(solution[k, num_nodes + b])
                for b, name in enumerate(topology.branch_names)
            }
            results.append(
                DcSolution(
                    node_voltages=node_voltages,
                    source_currents=source_currents,
                    iterations=int(iterations[k]),
                )
            )
        return results

    def _raise_singular_dc(self, matrix: np.ndarray, active: np.ndarray) -> None:
        for pos in range(matrix.shape[0]):
            try:
                np.linalg.solve(matrix[pos], np.zeros(self.size))
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"singular MNA matrix in '{self._circuit_name(int(active[pos]))}'"
                ) from exc
        raise ConvergenceError(f"singular MNA matrix in '{self._name}'")

    def _stamp_mosfet_companions(
        self,
        circuit: MnaCircuit,
        solution_row: np.ndarray,
        matrix: np.ndarray,
        rhs: np.ndarray,
    ) -> None:
        """One circuit's MOSFET companion stamps around its Newton iterate.

        Each MOSFET becomes its small-signal linearization at the present
        estimate: a gate/source-controlled ``gm`` VCCS, a drain–source
        ``gds`` conductance, and the companion current source
        ``i_eq = I_D - gm*vgs - gds*vds`` (signed drain → source).
        """

        def voltage_of(idx: Optional[int]) -> float:
            return 0.0 if idx is None else float(solution_row[idx])

        for m, (d_idx, g_idx, s_idx) in zip(circuit.mosfets, self._topology.mosfet_nodes):
            vg = voltage_of(g_idx)
            vd = voltage_of(d_idx)
            vs = voltage_of(s_idx)
            vgs, vds = vg - vs, vd - vs
            op = m.model.operating_point(vgs, vds)
            current = m.model.drain_current(vgs, vds)
            gm, gds = op.gm, max(op.gds, 1e-12)
            i_eq = current - gm * vgs - gds * vds
            # VCCS stamp (drain/source controlled by gate/source).
            for out_node, out_sign in ((d_idx, 1.0), (s_idx, -1.0)):
                if out_node is None:
                    continue
                for in_node, in_sign in ((g_idx, 1.0), (s_idx, -1.0)):
                    if in_node is None:
                        continue
                    matrix[out_node, in_node] += out_sign * in_sign * gm
            # gds conductance between drain and source.
            if d_idx is not None:
                matrix[d_idx, d_idx] += gds
            if s_idx is not None:
                matrix[s_idx, s_idx] += gds
            if d_idx is not None and s_idx is not None:
                matrix[d_idx, s_idx] -= gds
                matrix[s_idx, d_idx] -= gds
            # Companion current source from drain to source.
            if d_idx is not None:
                rhs[d_idx] -= i_eq
            if s_idx is not None:
                rhs[s_idx] += i_eq


def template_sweep_metrics(
    template: MnaCircuit, lane_values: Sequence[Mapping[str, float]], node: str = "out"
) -> List[Tuple[float, float, float]]:
    """:func:`frequency_response_metrics` of ``node`` for every lane, in one sweep.

    Lane ``k`` is ``template``'s topology with every element named in
    ``lane_values[k]`` restamped to that value, swept over
    :data:`SWEEP_FREQUENCIES` in one :class:`BatchedMNAPlan`.  A lane's
    sweep does not depend on its batch, so its metrics are bitwise those of
    ``ac_analysis`` on that lane's own circuit.
    """
    plan = BatchedMNAPlan.from_template(template, len(lane_values))
    for name in lane_values[0]:
        plan.set_values(name, [values[name] for values in lane_values])
    return [
        frequency_response_metrics(SWEEP_FREQUENCIES, solution.voltage(node))
        for solution in plan.ac_sweep(SWEEP_FREQUENCIES)
    ]
