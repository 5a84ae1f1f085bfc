"""Per-frequency MNA reference: the scalar AC loop the engine must match.

This is the original interpreted ``MnaCircuit.ac_analysis`` body, kept only
in the test suite: one dense ``(n, n)`` system is stamped element by element
and solved per frequency.  The Schur-form sweep of
:class:`~repro.simulation.mna.BatchedMNAPlan` is held to it within the
tolerance contract of :mod:`repro.simulation.mna`, and its
``ConvergenceError`` messages are asserted equal.  ``response_metrics`` is
the op-amp simulator's original AC post-processing, the reference for
:func:`~repro.simulation.mna.frequency_response_metrics`.
"""

from __future__ import annotations

import math

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.simulation.mna import (
    GROUND_NAMES,
    AcSolution,
    ConvergenceError,
    MnaCircuit,
)


def _stamp_vccs(matrix: np.ndarray, node_idx, out_plus: str, out_minus: str,
                in_plus: str, in_minus: str, gm: float) -> None:
    op, om = node_idx(out_plus), node_idx(out_minus)
    ip, im = node_idx(in_plus), node_idx(in_minus)
    for out_node, out_sign in ((op, 1.0), (om, -1.0)):
        if out_node is None:
            continue
        for in_node, in_sign in ((ip, 1.0), (im, -1.0)):
            if in_node is None:
                continue
            matrix[out_node, in_node] += out_sign * in_sign * gm


def ac_analysis(circuit: MnaCircuit, frequencies: Sequence[float]) -> AcSolution:
    """Small-signal sweep, one dense complex solve per frequency."""
    frequencies = np.asarray(list(frequencies), dtype=np.float64)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise ValueError("frequencies must be a non-empty 1-D sequence")
    if np.any(frequencies <= 0):
        raise ValueError("AC analysis requires positive frequencies")

    nodes = circuit.node_names
    index = {node: i for i, node in enumerate(nodes)}
    num_nodes = len(nodes)
    branch_elements = [(v.name, v.n_plus, v.n_minus, v.ac) for v in circuit.vsources]
    num_vsrc = len(branch_elements)
    inductor_branches = [(l.name, l.n1, l.n2, l.value) for l in circuit.inductors]  # noqa: E741
    size = num_nodes + num_vsrc + len(inductor_branches)

    def node_idx(net: str) -> Optional[int]:
        if net.lower() in GROUND_NAMES:
            return None
        return index[net]

    results = {node: np.zeros(frequencies.size, dtype=np.complex128) for node in nodes}
    for f_index, frequency in enumerate(frequencies):
        omega = 2.0 * np.pi * frequency
        matrix = np.zeros((size, size), dtype=np.complex128)
        rhs = np.zeros(size, dtype=np.complex128)

        def stamp_admittance(n1: str, n2: str, y: complex) -> None:
            i, j = node_idx(n1), node_idx(n2)
            if i is not None:
                matrix[i, i] += y
            if j is not None:
                matrix[j, j] += y
            if i is not None and j is not None:
                matrix[i, j] -= y
                matrix[j, i] -= y

        for r in circuit.resistors:
            stamp_admittance(r.n1, r.n2, 1.0 / r.value)
        for c in circuit.capacitors:
            stamp_admittance(c.n1, c.n2, 1j * omega * c.value)
        for g in circuit.vccs_elements:
            _stamp_vccs(matrix, node_idx, g.out_plus, g.out_minus, g.in_plus, g.in_minus, g.gm)
        for src in circuit.isources:
            i, j = node_idx(src.n_plus), node_idx(src.n_minus)
            if i is not None:
                rhs[i] -= src.ac
            if j is not None:
                rhs[j] += src.ac

        for branch, (name, n_plus, n_minus, ac_value) in enumerate(branch_elements):
            row = num_nodes + branch
            i, j = node_idx(n_plus), node_idx(n_minus)
            if i is not None:
                matrix[i, row] += 1.0
                matrix[row, i] += 1.0
            if j is not None:
                matrix[j, row] -= 1.0
                matrix[row, j] -= 1.0
            rhs[row] = ac_value

        for branch, (name, n1, n2, value) in enumerate(inductor_branches):
            row = num_nodes + num_vsrc + branch
            i, j = node_idx(n1), node_idx(n2)
            if i is not None:
                matrix[i, row] += 1.0
                matrix[row, i] += 1.0
            if j is not None:
                matrix[j, row] -= 1.0
                matrix[row, j] -= 1.0
            matrix[row, row] -= 1j * omega * value

        try:
            solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular AC MNA matrix in '{circuit.name}' at f={frequency:.3g} Hz"
            ) from exc
        for node, i in index.items():
            results[node][f_index] = solution[i]

    return AcSolution(frequencies=frequencies, node_voltages=results)


def response_metrics(frequencies: np.ndarray, response: np.ndarray) -> Tuple[float, float, float]:
    """Gain, unity-gain frequency and phase margin of one AC response."""
    magnitude = np.abs(response)
    gain = float(magnitude[0])
    # Unity-gain crossing by log interpolation.
    above = magnitude >= 1.0
    if not above.any() or above.all():
        unity_freq = float(frequencies[-1] if above.all() else 0.0)
        phase_margin = 0.0
    else:
        last_above = int(np.nonzero(above)[0][-1])
        if last_above + 1 >= magnitude.size:
            unity_freq = float(frequencies[-1])
        else:
            f_lo, f_hi = frequencies[last_above], frequencies[last_above + 1]
            m_lo, m_hi = magnitude[last_above], magnitude[last_above + 1]
            # Interpolate log(f) against log(m) for the |H| = 1 crossing.
            weight = np.log(m_lo) / (np.log(m_lo) - np.log(m_hi))
            unity_freq = float(np.exp(np.log(f_lo) + weight * (np.log(f_hi) - np.log(f_lo))))
        phase = np.unwrap(np.angle(response))
        phase_at_unity = float(np.interp(np.log(unity_freq), np.log(frequencies), phase))
        reference_phase = float(phase[0])
        phase_margin = 180.0 + math.degrees(phase_at_unity - reference_phase)
        phase_margin = float(np.clip(phase_margin, 0.0, 180.0))
    return gain, unity_freq, phase_margin
