"""Modified nodal analysis (MNA) engine — the repository's small-signal mini-SPICE.

The paper's design environment invokes Cadence Spectre for the op-amp's AC
figures (gain, bandwidth, phase margin).  This module provides the
equivalent substrate: an **AC small-signal analysis** over a frequency sweep
of linear circuits built from resistors, capacitors, inductors,
voltage-controlled current sources and independent AC sources.  Operating
points are computed analytically by the circuit evaluators, which hand this
engine their small-signal equivalent circuits.

There is one stamping and solve implementation, :class:`BatchedMNAPlan`.
It sweeps ``K`` lanes of one circuit at once.  Node ordering, stamp lists
and element columns depend only on the circuit structure, so they are built
once per :meth:`MnaCircuit.structure_signature` and kept in a bounded
cache; a plan only stacks the ``(K, V)`` element values.
:meth:`MnaCircuit.ac_analysis` is that plan: a sweep of one lane holding the
circuit's own values, or, with ``lane_values`` — behind the op-amp and OTA
``results``, through :func:`template_sweep_metrics` — one lane per entry,
restamped through :meth:`BatchedMNAPlan.restamp`.

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
AC is held to a tolerance against a dense solve per frequency (kept in the
tests as a reference): at every frequency the largest node-voltage error is
at most ``1e-9`` times the largest reference node voltage.  Measured maxima:
1.8e-10 on a two-pole amplifier with gm up to 8 mS (its non-normal ``G⁻¹C``
costs the digits), 3.4e-14 on an RLC branch, 2.5e-14 on the
equal-time-constant cascade, 3.5e-12 on a DC-floating node (shifted).  The
error is normwise: a node far smaller than the largest one (a DC-floating
node's neighbour at low frequency) can carry a larger relative error.  On
the op-amp and OTA output nodes, 303 design points gave at most 2.4e-11
pointwise; over 508 points, ``simulate`` specs moved by at most 2.0e-11
relative (3.4e-13 at the golden probe points), with no validity flip.

A lane's AC result is bitwise independent of the batch it is swept in, so
the batched and scalar routes agree exactly: stamps accumulate in one fixed
element order, the reductions are per-lane LAPACK calls, and the sweep is
elementwise across lanes.

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

#: Net names treated as the global reference node.
GROUND_NAMES = ("0", "gnd", "vgnd", "ground")

#: The op-amp and OTA ``method="mna"`` sweep: 401 points, 10 Hz to 100 GHz.
SWEEP_FREQUENCIES = np.logspace(1, 11, 401)
SWEEP_FREQUENCIES.flags.writeable = False


class ConvergenceError(RuntimeError):
    """Raised when an AC system is singular, at one sweep frequency or at all."""


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
    ac: float


@dataclass
class _CurrentSource:
    name: str
    n_plus: str
    n_minus: str
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
class AcSolution:
    """Result of an AC sweep: complex node voltages per frequency.

    A lane sweep (``MnaCircuit.ac_analysis`` with ``lane_values``) puts a
    leading lane axis on every node voltage, the ground node's included.
    """

    frequencies: np.ndarray
    node_voltages: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node.lower() in GROUND_NAMES:
            shape = next(iter(self.node_voltages.values()), self.frequencies).shape
            return np.zeros(shape, dtype=np.complex128)
        return self.node_voltages[node]

    def transfer(self, output_node: str, input_node: str) -> np.ndarray:
        """Complex transfer function V(out)/V(in) over the sweep."""
        vin = self.voltage(input_node)
        vout = self.voltage(output_node)
        return vout / vin


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
    """A linear circuit assembled element by element and swept with MNA."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._resistors: List[_Resistor] = []
        self._capacitors: List[_Capacitor] = []
        self._inductors: List[_Inductor] = []
        self._vsources: List[_VoltageSource] = []
        self._isources: List[_CurrentSource] = []
        self._vccs: List[_Vccs] = []
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

    def add_voltage_source(self, name: str, n_plus: str, n_minus: str, ac: float = 0.0) -> None:
        self._register(name)
        self._vsources.append(_VoltageSource(name, n_plus, n_minus, float(ac)))

    def add_current_source(self, name: str, n_plus: str, n_minus: str, ac: float = 0.0) -> None:
        self._register(name)
        self._isources.append(_CurrentSource(name, n_plus, n_minus, float(ac)))

    def add_vccs(self, name: str, out_plus: str, out_minus: str, in_plus: str, in_minus: str,
                 gm: float) -> None:
        self._register(name)
        self._vccs.append(_Vccs(name, out_plus, out_minus, in_plus, in_minus, float(gm)))

    # ------------------------------------------------------------------
    # Structural introspection (read-only views)
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

    def structure_signature(self) -> Tuple:
        """Hashable topology signature: element kinds, names and node wiring.

        Two circuits with equal signatures have identical sparsity patterns,
        node orderings and stamp orders, so :class:`BatchedMNAPlan` builds
        that topology once per signature.  Element *values* are deliberately
        excluded: they are the per-lane restamped quantities.
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
        )

    def _value_row(self) -> List[float]:
        """Element values in the plan's value-row order (``_VALUE_KINDS``)."""
        return (
            [r.value for r in self._resistors]
            + [c.value for c in self._capacitors]
            + [e.value for e in self._inductors]
            + [v.ac for v in self._vsources]
            + [s.ac for s in self._isources]
            + [g.gm for g in self._vccs]
        )

    @property
    def node_names(self) -> List[str]:
        return list(_topology(self.structure_signature()).nodes)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def ac_analysis(
        self,
        frequencies: Sequence[float],
        lane_values: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> AcSolution:
        """Small-signal frequency sweep.

        Independent sources contribute their ``ac`` amplitude.  Without
        ``lane_values`` this is a sweep of one lane holding the circuit's own
        values, and each node voltage has shape ``(F,)``.  ``lane_values``
        sweeps one copy of the circuit per entry, each with the elements the
        entry names restamped to its values (every entry names the same
        elements), in one :class:`BatchedMNAPlan`; each node voltage then has
        a leading lane axis.  Lane ``k`` is bitwise the sweep of its own
        circuit.
        """
        plan = BatchedMNAPlan(self, 1 if lane_values is None else len(lane_values))
        if lane_values is not None:
            plan.restamp(lane_values)
        frequencies, voltages = plan.sweep(frequencies)
        voltages = voltages[0] if lane_values is None else voltages.transpose(1, 0, 2)
        return AcSolution(frequencies, dict(zip(plan.nodes, voltages)))


@dataclass(frozen=True)
class _Stamps:
    """The AC stamps into a flat per-lane system vector.

    Each lane's system is stored flat as its matrices followed by its
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
        # own lane's stamps in stamp order, whatever K is.
        bins = (np.arange(K)[:, None] * self.length + self.positions).ravel()
        weights = (table[:, self.columns] * self.signs).ravel()
        system = np.bincount(bins, weights, minlength=K * self.length)
        system = system.reshape(K, self.length).astype(np.float64, copy=False)
        system[:, self.assigned] = table[:, self.assigned_from]
        return system


#: Value kinds of one circuit's value row, in order (see ``MnaCircuit._value_row``).
_VALUE_KINDS = ("res", "cap", "ind", "vsrc", "isrc", "vccs")


@dataclass(frozen=True)
class _Topology:
    """Everything an MNA plan derives from a circuit's structure alone.

    A plan stamps from a value table with one row per lane: the element
    values in :data:`_VALUE_KINDS` order (resistances replaced by
    conductances), then a constant ``1.0`` for the branch-row incidence
    stamps.  The system is ``[G | C | b]`` (``n × n``, ``n × n``, ``n``) for
    ``(G + jωC) x = b``.
    """

    nodes: Tuple[str, ...]
    size: int
    resistor_columns: slice
    element_columns: Mapping[str, int]  # restampable element -> value-row column
    stamps: _Stamps


@functools.lru_cache(maxsize=64)
def _topology(signature: Tuple) -> _Topology:
    """The plan topology of one :meth:`MnaCircuit.structure_signature`, built once.

    Nodes are numbered in first-appearance order over resistors, capacitors,
    inductors, voltage sources, current sources and VCCSs.  Stamps go in one
    fixed order — the C block (capacitors, then inductors), resistors,
    VCCSs, branch rows, current sources — so every matrix entry accumulates
    its contributions in that order.
    """
    resistors, capacitors, inductors, vsources, isources, vccs = signature
    nodes: Dict[str, None] = {}
    for group, width in (
        (resistors, 2), (capacitors, 2), (inductors, 2), (vsources, 2), (isources, 2), (vccs, 4),
    ):
        for entry in group:
            for net in entry[2:2 + width]:
                if net.lower() not in GROUND_NAMES:
                    nodes.setdefault(net, None)
    index = {node: i for i, node in enumerate(nodes)}
    num_nodes = len(index)
    size = num_nodes + len(vsources) + len(inductors)
    matrix = size * size
    rhs_offset = 2 * matrix

    groups = (resistors, capacitors, inductors, vsources, isources, vccs)
    starts = np.cumsum([0] + [len(group) for group in groups]).tolist()
    kind_start = dict(zip(_VALUE_KINDS, starts))
    one = starts[-1]

    def node(net: str) -> Optional[int]:
        return None if net.lower() in GROUND_NAMES else index[net]

    stamps: List[Tuple[int, int, float]] = []

    def admittance(offset: int, column: int, n1: str, n2: str) -> None:
        i, j = node(n1), node(n2)
        if i is not None:
            stamps.append((offset + i * size + i, column, 1.0))
        if j is not None:
            stamps.append((offset + j * size + j, column, 1.0))
        if i is not None and j is not None:
            stamps.append((offset + i * size + j, column, -1.0))
            stamps.append((offset + j * size + i, column, -1.0))

    for idx, (_, _, n1, n2) in enumerate(capacitors):
        admittance(matrix, kind_start["cap"] + idx, n1, n2)
    for branch in range(len(inductors)):
        row = num_nodes + len(vsources) + branch
        stamps.append((matrix + row * size + row, kind_start["ind"] + branch, -1.0))
    for idx, (_, _, n1, n2) in enumerate(resistors):
        admittance(0, kind_start["res"] + idx, n1, n2)
    for idx, (_, _, out_plus, out_minus, in_plus, in_minus) in enumerate(vccs):
        for out_node, out_sign in ((node(out_plus), 1.0), (node(out_minus), -1.0)):
            if out_node is None:
                continue
            for in_node, in_sign in ((node(in_plus), 1.0), (node(in_minus), -1.0)):
                if in_node is not None:
                    stamps.append((out_node * size + in_node, kind_start["vccs"] + idx,
                                   out_sign * in_sign))
    # Branch rows: voltage sources, then inductors.
    for branch, (_, _, n_plus, n_minus) in enumerate(vsources + inductors):
        row = num_nodes + branch
        for n, sign in ((node(n_plus), 1.0), (node(n_minus), -1.0)):
            if n is not None:
                stamps.append((n * size + row, one, sign))
                stamps.append((row * size + n, one, sign))
    for idx, (_, _, n_plus, n_minus) in enumerate(isources):
        for n, sign in ((node(n_plus), -1.0), (node(n_minus), 1.0)):
            if n is not None:
                stamps.append((rhs_offset + n, kind_start["isrc"] + idx, sign))

    return _Topology(
        nodes=tuple(index),
        size=size,
        resistor_columns=slice(kind_start["res"], kind_start["cap"]),
        element_columns=MappingProxyType({
            entry[1]: kind_start[kind] + idx
            for kind, group in (("res", resistors), ("cap", capacitors),
                                ("ind", inductors), ("vccs", vccs))
            for idx, entry in enumerate(group)
        }),
        stamps=_Stamps.of(
            rhs_offset + size,
            stamps,
            [rhs_offset + num_nodes + branch for branch in range(len(vsources))],
            [kind_start["vsrc"] + branch for branch in range(len(vsources))],
        ),
    )


def _keep_order(eigenvalue: complex) -> int:
    """``gees`` eigenvalue selector; unused because the Schur form is not sorted."""
    return 0


class BatchedMNAPlan:
    """Stacked AC sweep of ``num_lanes`` lanes of one circuit.

    Every lane starts at the circuit's element values; :meth:`restamp`
    gives each lane its own.  Node ordering and stamps come from the
    topology of the circuit's :meth:`~MnaCircuit.structure_signature`, built
    once per signature; a plan itself only holds the ``(K, V)`` element
    values.  A singular system raises :class:`ConvergenceError` naming the
    circuit and the first singular frequency.
    """

    def __init__(self, circuit: MnaCircuit, num_lanes: int) -> None:
        if num_lanes <= 0:
            raise ValueError("BatchedMNAPlan requires at least one lane")
        self._topology = _topology(circuit.structure_signature())
        row = np.array(circuit._value_row(), dtype=np.float64)
        self._values = np.tile(row, (int(num_lanes), 1))
        self._name = circuit.name
        self.nodes = self._topology.nodes

    def restamp(self, lane_values: Sequence[Mapping[str, float]]) -> None:
        """Restamp lane ``k`` from ``lane_values[k]``, in one assignment.

        Every lane names the same elements (the per-step hot path of
        :func:`template_sweep_metrics`).
        """
        names = list(lane_values[0])
        columns = self._topology.element_columns
        unknown = [name for name in names if name not in columns]
        if unknown:
            raise KeyError(f"no restampable element named '{unknown[0]}'")
        self._values[:, [columns[name] for name in names]] = [
            [values[name] for name in names] for values in lane_values
        ]

    def _value_table(self) -> np.ndarray:
        """Per-lane stamp values: element values (conductances for resistors), ``1.0``."""
        K, num_values = self._values.shape
        table = np.zeros((K, num_values + 1))
        table[:, :num_values] = self._values
        resistors = self._topology.resistor_columns
        table[:, resistors] = 1.0 / self._values[:, resistors]
        table[:, -1] = 1.0
        return table

    def sweep(self, frequencies: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Every lane's sweep as ``(frequencies, voltages)``.

        ``voltages`` is ``(K, nodes, F)``.  Each lane's ``(G + jωC) x = b``
        is reduced once (see the module's "Schur-form AC sweep") and every
        frequency is then one back-substitution, vectorised over the lanes
        and the sweep.
        """
        frequencies = np.array(frequencies, dtype=np.float64)
        if frequencies.ndim != 1 or frequencies.size == 0:
            raise ValueError("frequencies must be a non-empty 1-D sequence")
        if frequencies.min() <= 0:
            raise ValueError("AC analysis requires positive frequencies")

        topology = self._topology
        K, n, num_nodes = self._values.shape[0], topology.size, len(topology.nodes)
        system = topology.stamps.apply(self._value_table())
        matrices = system[:, :2 * n * n].reshape(K, 2, n, n)

        shift = np.zeros(K)
        schur = np.zeros((K, n, n), dtype=np.complex128)
        basis = np.empty((K, num_nodes, n), dtype=np.complex128)
        projected = np.empty((K, n), dtype=np.complex128)
        for k in range(K):
            reduced = self._schur_reduce(matrices[k, 0], matrices[k, 1], system[k, -n:],
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
        return frequencies, voltages

    def _schur_reduce(
        self, g: np.ndarray, c: np.ndarray, b: np.ndarray, frequencies: np.ndarray
    ) -> Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """One lane's ``(σ, T, Q, Qᴴw)``: ``(G + jσC)⁻¹C = QTQᴴ``, ``w = (G + jσC)⁻¹b``.

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
                    f"singular AC MNA matrix in '{self._name}' at f={frequencies[0]:.3g} Hz"
                )
        if not np.isfinite(reduced).all():
            return None
        schur, _, _, vectors, _, info = zgees(_keep_order, reduced[:, :n])
        if info != 0:
            raise ConvergenceError(f"Schur reduction of the AC MNA system in '{self._name}' failed")
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
            f_index = np.argwhere(vanished)[0][1]
            raise ConvergenceError(
                f"singular AC MNA matrix in '{self._name}' at f={frequencies[f_index]:.3g} Hz"
            )


def template_sweep_metrics(
    template: MnaCircuit, lane_values: Sequence[Mapping[str, float]], node: str = "out"
) -> List[Tuple[float, float, float]]:
    """:func:`frequency_response_metrics` of ``node`` for every lane, in one sweep.

    Lane ``k`` is ``template``'s topology with every element named in
    ``lane_values[k]`` restamped to that value, swept over
    :data:`SWEEP_FREQUENCIES` in one ``template.ac_analysis`` call.  A
    lane's sweep does not depend on its batch, so its metrics are bitwise
    those of ``ac_analysis`` on that lane's own circuit.
    """
    voltages = template.ac_analysis(SWEEP_FREQUENCIES, lane_values=lane_values).voltage(node)
    return [frequency_response_metrics(SWEEP_FREQUENCIES, lane) for lane in voltages]
