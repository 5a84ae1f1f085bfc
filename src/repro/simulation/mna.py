"""Modified nodal analysis (MNA) engine — the repository's mini-SPICE.

The paper's design environment invokes Cadence Spectre for AC/DC analysis of
the op-amp.  This module provides the equivalent substrate: a small circuit
simulator supporting

* **DC operating-point analysis** with Newton–Raphson iteration over
  nonlinear square-law MOSFETs (linear elements are stamped directly), and
* **AC small-signal analysis** over a frequency sweep with complex phasor
  solves, including linearized MOSFETs, resistors, capacitors, inductors,
  controlled sources and independent sources.

There is one stamping and solve implementation, :class:`BatchedMNAPlan`.
It analyses ``K`` circuits of one topology at once: node ordering and stamp
order are fixed once from the circuit structure, each evaluation stamps the
element values into one stacked ``(K, F, n, n)`` tensor (K circuits × F
frequencies), and a single chunked ``np.linalg.solve`` solves every system.
:meth:`MnaCircuit.dc_operating_point` and :meth:`MnaCircuit.ac_analysis` are
that plan at ``K = 1``; the compiled vector environment
(:mod:`repro.compile.sim_kernels`) drives the same plan with one lane per
environment, restamping element values through :meth:`BatchedMNAPlan.set_values`.

Numerical contract
------------------
A circuit's result does not depend on which batch it is solved in, or where:

* stamps are replayed as an ordered record list in a fixed element order
  (resistors → capacitors → VCCS → MOSFETs → sources → branch rows), so
  every matrix entry accumulates its contributions in the same order;
* frequency-dependent terms are ``(1j * omega) * value`` elementwise;
* a stacked ``np.linalg.solve`` over ``(N, n, n)`` solves each slice
  independently (LAPACK), and chunking the stack changes no slice;
* Newton DC iterates only the not-yet-converged circuits; circuits are
  independent, so freezing converged ones is exact.

The tests keep the original one-system-per-frequency loops as a reference
and assert bitwise equality with them.

The engine is deliberately dense-matrix based: analog cells have tens of
nodes, so dense LAPACK solves are both simple and fast.  It backs the
``method="mna"`` evaluators (:mod:`repro.simulation.opamp_sim`,
:mod:`repro.simulation.ota_sim`) and is unit-tested against closed-form
circuit theory results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.mosfet import MosfetModel

#: Net names treated as the global reference node.
GROUND_NAMES = ("0", "gnd", "vgnd", "ground")


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
        stacking their systems into one batched solve
        (:class:`BatchedMNAPlan`).  Element *values* are
        deliberately excluded: they are the per-step restamped quantities.
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

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def _collect_nodes(self) -> List[str]:
        nodes: Dict[str, None] = {}
        def visit(net: str) -> None:
            if net.lower() not in GROUND_NAMES:
                nodes.setdefault(net, None)

        for r in self._resistors:
            visit(r.n1), visit(r.n2)
        for c in self._capacitors:
            visit(c.n1), visit(c.n2)
        for l in self._inductors:
            visit(l.n1), visit(l.n2)
        for v in self._vsources:
            visit(v.n_plus), visit(v.n_minus)
        for i in self._isources:
            visit(i.n_plus), visit(i.n_minus)
        for g in self._vccs:
            visit(g.out_plus), visit(g.out_minus), visit(g.in_plus), visit(g.in_minus)
        for m in self._mosfets:
            visit(m.drain), visit(m.gate), visit(m.source)
        return list(nodes)

    @property
    def node_names(self) -> List[str]:
        return self._collect_nodes()

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


def solve_chunk_rows(cpu_count: Optional[int] = None) -> int:
    """Stacked-solve chunk size; bounded on single-core (CI) runners.

    LAPACK's batched workspace grows with the number of stacked systems, so
    on a 1-core runner (no solver parallelism to feed anyway) a small chunk
    keeps peak memory flat without changing any result — chunking is
    bitwise-invariant.
    """
    cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return 128 if cpu <= 1 else 1024


@dataclass(frozen=True)
class _MatrixRecord:
    """One ordered stamp into the stacked matrix: ``M[..., i, j] ±= value``."""

    source: Tuple[str, int]  # value kind + element index ("unit" ignores index)
    i: int
    j: int
    sign: float
    is_freq: bool  # frequency-dependent: adds (1j * omega) * value


@dataclass(frozen=True)
class _RhsRecord:
    source: Tuple[str, int]
    i: int
    sign: float  # +1 add, -1 subtract, 0 assign


class BatchedMNAPlan:
    """Stacked AC/DC evaluation of ``K`` structurally identical circuits.

    Build it with :meth:`from_circuits` (concrete circuits, MOSFETs allowed)
    or :meth:`from_template` (one linear circuit whose element values are
    then restamped per lane with :meth:`set_values`).  The sparsity pattern,
    node ordering and stamp order come from the template's structure; the
    stamping workspace is preallocated and zero-filled per evaluation, and
    the solve is chunked along the stacked axis with a chunk size chosen
    once at build time (:func:`solve_chunk_rows`).  A singular system raises
    :class:`ConvergenceError` naming the circuit and, for AC, the first
    singular frequency.
    """

    def __init__(self, template: MnaCircuit, num_circuits: int) -> None:
        if num_circuits <= 0:
            raise ValueError("BatchedMNAPlan requires at least one circuit")
        self._name = template.name
        self._signature = template.structure_signature()
        self.num_circuits = int(num_circuits)
        self._circuits: Optional[List[MnaCircuit]] = None

        nodes = template.node_names
        self._nodes = nodes
        self._index = {node: i for i, node in enumerate(nodes)}
        self.num_nodes = len(nodes)
        self._num_vsrc = len(template.vsources)
        self._num_ind = len(template.inductors)
        self.size = self.num_nodes + self._num_vsrc + self._num_ind
        self._branch_names = [v.name for v in template.vsources] + [
            e.name for e in template.inductors
        ]

        K = self.num_circuits

        def stacked(values: Sequence[float]) -> np.ndarray:
            return np.tile(np.asarray(list(values), dtype=np.float64), (K, 1))

        self._values: Dict[str, np.ndarray] = {
            "res": stacked(r.value for r in template.resistors),
            "cap": stacked(c.value for c in template.capacitors),
            "ind": stacked(e.value for e in template.inductors),
            "vsrc_dc": stacked(v.dc for v in template.vsources),
            "vsrc_ac": stacked(v.ac for v in template.vsources),
            "isrc_dc": stacked(s.dc for s in template.isources),
            "isrc_ac": stacked(s.ac for s in template.isources),
            "vccs": stacked(g.gm for g in template.vccs_elements),
        }
        self._element_slot: Dict[str, Tuple[str, int]] = {}
        for kind, elements in (
            ("res", template.resistors),
            ("cap", template.capacitors),
            ("ind", template.inductors),
            ("vccs", template.vccs_elements),
        ):
            for idx, element in enumerate(elements):
                self._element_slot[element.name] = (kind, idx)

        self._ac_matrix_records: List[_MatrixRecord] = []
        self._ac_rhs_records: List[_RhsRecord] = []
        self._dc_matrix_records: List[_MatrixRecord] = []
        self._dc_rhs_records: List[_RhsRecord] = []
        self._build_records(template)

        self._has_mosfets = bool(template.mosfets)
        self._mosfet_nodes: List[Tuple[Optional[int], Optional[int], Optional[int]]] = [
            (self._node_idx(m.drain), self._node_idx(m.gate), self._node_idx(m.source))
            for m in template.mosfets
        ]

        self._chunk = solve_chunk_rows()
        # Stamping workspaces; the AC tensor is (re)allocated only when the
        # sweep length changes, then reused zero-filled on every evaluation.
        self._ac_matrix_ws: Optional[np.ndarray] = None
        self._ac_rhs_ws: Optional[np.ndarray] = None
        self._ac_sol_ws: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_circuits(cls, circuits: Sequence[MnaCircuit]) -> "BatchedMNAPlan":
        """Plan over concrete circuits (stacks their element values)."""
        circuits = list(circuits)
        if not circuits:
            raise ValueError("BatchedMNAPlan requires at least one circuit")
        # The constructor tiles circuits[0]'s values into every row; only
        # the other circuits' rows need restacking.
        plan = cls(circuits[0], len(circuits))
        signature = plan._signature
        for circuit in circuits[1:]:
            if circuit.structure_signature() != signature:
                raise ValueError(f"circuit '{circuit.name}' does not match the plan topology")
        plan._circuits = circuits
        for k, circuit in enumerate(circuits[1:], start=1):
            plan._values["res"][k] = [r.value for r in circuit.resistors]
            plan._values["cap"][k] = [c.value for c in circuit.capacitors]
            plan._values["ind"][k] = [e.value for e in circuit.inductors]
            plan._values["vsrc_dc"][k] = [v.dc for v in circuit.vsources]
            plan._values["vsrc_ac"][k] = [v.ac for v in circuit.vsources]
            plan._values["isrc_dc"][k] = [s.dc for s in circuit.isources]
            plan._values["isrc_ac"][k] = [s.ac for s in circuit.isources]
            plan._values["vccs"][k] = [g.gm for g in circuit.vccs_elements]
        return plan

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
        return cls(template, num_circuits)

    def set_values(self, name: str, values: np.ndarray) -> None:
        """Restamp one element's per-circuit values (the per-step hot path)."""
        slot = self._element_slot.get(name)
        if slot is None:
            raise KeyError(f"no restampable element named '{name}'")
        kind, idx = slot
        self._values[kind][:, idx] = np.asarray(values, dtype=np.float64)

    # ------------------------------------------------------------------
    # Record construction (plan time)
    # ------------------------------------------------------------------
    def _node_idx(self, net: str) -> Optional[int]:
        if net.lower() in GROUND_NAMES:
            return None
        return self._index[net]

    def _emit_admittance(
        self,
        records: List[_MatrixRecord],
        source: Tuple[str, int],
        n1: str,
        n2: str,
        is_freq: bool,
    ) -> None:
        i, j = self._node_idx(n1), self._node_idx(n2)
        if i is not None:
            records.append(_MatrixRecord(source, i, i, 1.0, is_freq))
        if j is not None:
            records.append(_MatrixRecord(source, j, j, 1.0, is_freq))
        if i is not None and j is not None:
            records.append(_MatrixRecord(source, i, j, -1.0, is_freq))
            records.append(_MatrixRecord(source, j, i, -1.0, is_freq))

    def _emit_vccs(
        self,
        records: List[_MatrixRecord],
        source: Tuple[str, int],
        out_plus: str,
        out_minus: str,
        in_plus: str,
        in_minus: str,
    ) -> None:
        op, om = self._node_idx(out_plus), self._node_idx(out_minus)
        ip, im = self._node_idx(in_plus), self._node_idx(in_minus)
        for out_node, out_sign in ((op, 1.0), (om, -1.0)):
            if out_node is None:
                continue
            for in_node, in_sign in ((ip, 1.0), (im, -1.0)):
                if in_node is None:
                    continue
                records.append(_MatrixRecord(source, out_node, in_node, out_sign * in_sign, False))

    def _emit_branch_rows(
        self,
        records: List[_MatrixRecord],
        row: int,
        n_plus: str,
        n_minus: str,
    ) -> None:
        i, j = self._node_idx(n_plus), self._node_idx(n_minus)
        if i is not None:
            records.append(_MatrixRecord(("unit", 0), i, row, 1.0, False))
            records.append(_MatrixRecord(("unit", 0), row, i, 1.0, False))
        if j is not None:
            records.append(_MatrixRecord(("unit", 0), j, row, -1.0, False))
            records.append(_MatrixRecord(("unit", 0), row, j, -1.0, False))

    def _build_records(self, template: MnaCircuit) -> None:
        # --- AC records ----------------------------------------------
        ac_m = self._ac_matrix_records
        ac_r = self._ac_rhs_records
        for idx, r in enumerate(template.resistors):
            self._emit_admittance(ac_m, ("res_g", idx), r.n1, r.n2, False)
        for idx, c in enumerate(template.capacitors):
            self._emit_admittance(ac_m, ("cap", idx), c.n1, c.n2, True)
        for idx, g in enumerate(template.vccs_elements):
            self._emit_vccs(ac_m, ("vccs", idx), g.out_plus, g.out_minus, g.in_plus, g.in_minus)
        for idx, m in enumerate(template.mosfets):
            self._emit_vccs(ac_m, ("mos_gm", idx), m.drain, m.source, m.gate, m.source)
            self._emit_admittance(ac_m, ("mos_gds", idx), m.drain, m.source, False)
        for idx, src in enumerate(template.isources):
            i, j = self._node_idx(src.n_plus), self._node_idx(src.n_minus)
            if i is not None:
                ac_r.append(_RhsRecord(("isrc_ac", idx), i, -1.0))
            if j is not None:
                ac_r.append(_RhsRecord(("isrc_ac", idx), j, 1.0))
        for branch, v in enumerate(template.vsources):
            row = self.num_nodes + branch
            self._emit_branch_rows(ac_m, row, v.n_plus, v.n_minus)
            ac_r.append(_RhsRecord(("vsrc_ac", branch), row, 0.0))
        for branch, e in enumerate(template.inductors):
            row = self.num_nodes + self._num_vsrc + branch
            self._emit_branch_rows(ac_m, row, e.n1, e.n2)
            ac_m.append(_MatrixRecord(("ind", branch), row, row, -1.0, True))

        # --- DC records ----------------------------------------------
        # The MOSFET companion stamps depend on the Newton iterate, so they
        # are stamped live in the Newton loop on top of this constant base.
        # They touch only node rows/columns and come after the resistor and
        # VCCS stamps, so every shared entry still accumulates in element
        # order; the branch rows they skip have no MOSFET contributions.
        dc_m = self._dc_matrix_records
        dc_r = self._dc_rhs_records
        for idx, r in enumerate(template.resistors):
            self._emit_admittance(dc_m, ("res_g", idx), r.n1, r.n2, False)
        for idx, g in enumerate(template.vccs_elements):
            self._emit_vccs(dc_m, ("vccs", idx), g.out_plus, g.out_minus, g.in_plus, g.in_minus)
        for idx, src in enumerate(template.isources):
            i, j = self._node_idx(src.n_plus), self._node_idx(src.n_minus)
            if i is not None:
                dc_r.append(_RhsRecord(("isrc_dc", idx), i, -1.0))
            if j is not None:
                dc_r.append(_RhsRecord(("isrc_dc", idx), j, 1.0))
        # Branch unknowns: every voltage source, then every inductor (a DC short).
        branch_elements = [
            (v.n_plus, v.n_minus, ("vsrc_dc", b)) for b, v in enumerate(template.vsources)
        ]
        branch_elements += [(e.n1, e.n2, ("zero", b)) for b, e in enumerate(template.inductors)]
        for branch, (n_plus, n_minus, source) in enumerate(branch_elements):
            row = self.num_nodes + branch
            self._emit_branch_rows(dc_m, row, n_plus, n_minus)
            dc_r.append(_RhsRecord(source, row, 0.0))

    # ------------------------------------------------------------------
    # Record replay
    # ------------------------------------------------------------------
    def _record_values(self, source: Tuple[str, int], mosfet_lin=None) -> np.ndarray:
        kind, idx = source
        if kind == "unit":
            return np.ones(self.num_circuits)
        if kind == "zero":
            return np.zeros(self.num_circuits)
        if kind == "res_g":
            return 1.0 / self._values["res"][:, idx]
        if kind in ("mos_gm", "mos_gds"):
            assert mosfet_lin is not None
            return mosfet_lin[kind][:, idx]
        return self._values[kind][:, idx]

    def _stamp_rhs(self, records: List[_RhsRecord], rhs: np.ndarray) -> None:
        for record in records:
            values = self._record_values(record.source)
            if record.sign == 0.0:  # repro: noqa[REP-FLT01] build-time sentinel in {-1.0, 0.0, 1.0}
                rhs[:, record.i] = values
            elif record.sign > 0.0:
                rhs[:, record.i] += values
            else:
                rhs[:, record.i] -= values

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
        computed with :meth:`dc_operating_points` when not supplied.
        """
        frequencies = np.asarray(list(frequencies), dtype=np.float64)
        if frequencies.ndim != 1 or frequencies.size == 0:
            raise ValueError("frequencies must be a non-empty 1-D sequence")
        if np.any(frequencies <= 0):
            raise ValueError("AC analysis requires positive frequencies")

        mosfet_lin = None
        if self._has_mosfets:
            if operating_points is None:
                operating_points = self.dc_operating_points()
            mosfet_lin = self._linearize_mosfets(operating_points)

        K, F, size = self.num_circuits, frequencies.size, self.size
        if self._ac_matrix_ws is None or self._ac_matrix_ws.shape[1] != F:
            self._ac_matrix_ws = np.zeros((K, F, size, size), dtype=np.complex128)
            self._ac_rhs_ws = np.zeros((K, F, size), dtype=np.complex128)
            self._ac_sol_ws = np.empty((K, F, size), dtype=np.complex128)
        matrix = self._ac_matrix_ws
        matrix[...] = 0.0

        omega = 2.0 * np.pi * frequencies
        jomega = 1j * omega
        for record in self._ac_matrix_records:
            values = self._record_values(record.source, mosfet_lin)
            if record.is_freq:
                term = jomega[None, :] * values[:, None]
            else:
                term = values[:, None]
            if record.sign > 0.0:
                matrix[:, :, record.i, record.j] += term
            else:
                matrix[:, :, record.i, record.j] -= term

        rhs = np.zeros((K, size), dtype=np.complex128)
        self._stamp_rhs(self._ac_rhs_records, rhs)
        rhs_ws = self._ac_rhs_ws
        rhs_ws[:] = rhs[:, None, :]

        solution = self._ac_sol_ws
        flat_m = matrix.reshape(K * F, size, size)
        flat_r = rhs_ws.reshape(K * F, size)
        flat_s = solution.reshape(K * F, size)
        try:
            for start in range(0, K * F, self._chunk):
                stop = min(start + self._chunk, K * F)
                # RHS as an explicit (B, n, 1) column: a plain (B, n) would be
                # read as one (m, n) matrix by the solve gufunc, not a stack.
                flat_s[start:stop] = np.linalg.solve(
                    flat_m[start:stop], flat_r[start:stop, :, None]
                )[:, :, 0]
        except np.linalg.LinAlgError:
            self._raise_singular_ac(flat_m, frequencies)
            raise  # unreachable; keeps control flow explicit

        results = []
        for k in range(K):
            node_voltages = {
                node: solution[k, :, self._index[node]].copy() for node in self._nodes
            }
            results.append(AcSolution(frequencies=frequencies.copy(), node_voltages=node_voltages))
        return results

    def _raise_singular_ac(self, flat_m: np.ndarray, frequencies: np.ndarray) -> None:
        F = frequencies.size
        for flat_index in range(flat_m.shape[0]):
            try:
                np.linalg.solve(flat_m[flat_index], np.zeros(self.size, dtype=np.complex128))
            except np.linalg.LinAlgError as exc:
                name = self._circuit_name(flat_index // F)
                frequency = frequencies[flat_index % F]
                raise ConvergenceError(
                    f"singular AC MNA matrix in '{name}' at f={frequency:.3g} Hz"
                ) from exc
        raise ConvergenceError(f"singular AC MNA matrix in '{self._name}'")

    def _linearize_mosfets(self, operating_points: Sequence[DcSolution]) -> Dict[str, np.ndarray]:
        assert self._circuits is not None, "MOSFET plans require from_circuits"
        num_mos = len(self._mosfet_nodes)
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
        K, size, num_nodes = self.num_circuits, self.size, self.num_nodes
        if self._has_mosfets and self._circuits is None:
            raise ValueError("MOSFET DC analysis requires a from_circuits plan")
        if initial_guess is not None and len(initial_guess) != K:
            raise ValueError(f"{len(initial_guess)} initial guesses for {K} circuits")

        base_matrix = np.zeros((K, size, size))
        for record in self._dc_matrix_records:
            values = self._record_values(record.source)
            if record.sign > 0.0:
                base_matrix[:, record.i, record.j] += values
            else:
                base_matrix[:, record.i, record.j] -= values
        base_rhs = np.zeros((K, size))
        self._stamp_rhs(self._dc_rhs_records, base_rhs)

        solution = np.zeros((K, size))
        for k, guess in enumerate(initial_guess or ()):
            for net, value in (guess or {}).items():
                if net in self._index:
                    solution[k, self._index[net]] = value
        iterations = np.zeros(K, dtype=np.int64)
        active = np.arange(K)
        for iteration in range(1, max_iterations + 1):
            matrix = base_matrix[active].copy()
            rhs = base_rhs[active].copy()
            if self._has_mosfets:
                assert self._circuits is not None
                for pos, k in enumerate(active):
                    self._stamp_mosfet_companions(
                        self._circuits[k], solution[k], matrix[pos], rhs[pos]
                    )
            try:
                # Column RHS for the same gufunc-broadcasting reason as ac_sweep.
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
            node_voltages = {node: float(solution[k, self._index[node]]) for node in self._nodes}
            source_currents = {
                name: float(solution[k, num_nodes + b]) for b, name in enumerate(self._branch_names)
            }
            results.append(
                DcSolution(
                    node_voltages=node_voltages,
                    source_currents=source_currents,
                    iterations=int(iterations[k]),
                )
            )
        return results

    def _circuit_name(self, k: int) -> str:
        if self._circuits is not None:
            return self._circuits[k].name
        return self._name

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

        for m, (d_idx, g_idx, s_idx) in zip(circuit.mosfets, self._mosfet_nodes):
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
