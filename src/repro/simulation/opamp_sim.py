"""Two-stage op-amp performance evaluator (the "Cadence Spectre" substitute).

The paper's environment runs AC and DC Spectre simulations of the Fig. 2
two-stage op-amp at every RL step to obtain the intermediate specifications
(gain, bandwidth, phase margin, power).  This module reproduces that loop
with a calibrated analytical evaluator built on the square-law device model:

1. **DC**: the bias voltage fixes the overdrive of the tail device ``M5`` and
   the output current sink ``M7``; their geometries therefore set the first-
   and second-stage bias currents, hence the static power.
2. **AC**: the classic Miller-compensated two-stage small-signal model gives
   the low-frequency gain ``gm1 (ro2‖ro4) · gm6 (ro6‖ro7)``, the unity-gain
   bandwidth ``gm1 / (2π C_c)``, and the phase margin from the output pole
   ``gm6 / (2π C_L)`` and the right-half-plane zero ``gm6 / (2π C_c)``.

Two evaluation paths are provided:

* ``method="analytic"`` (default) — closed-form expressions above; this is
  what the RL environment uses (sub-millisecond per call, mirroring the
  "tens of milliseconds" Spectre AC/DC runs in the paper).
* ``method="mna"`` — builds the small-signal equivalent circuit and sweeps it
  with the :mod:`repro.simulation.mna` engine, extracting gain, unity-gain
  frequency and phase margin numerically
  (:func:`~repro.simulation.mna.frequency_response_metrics`).  It backs the
  ``opamp-mna-v0`` environment and validates the analytic path (see
  ``tests/simulation/test_opamp_mna_crosscheck.py``).  The sweep is the
  401-point :data:`~repro.simulation.mna.SWEEP_FREQUENCIES` grid, computed
  by the engine's Schur-form sweep: the circuit is reduced once and each
  frequency is a small back-substitution.

:meth:`OpAmpSimulator.operating_point` is the only copy of the circuit
equations.  :meth:`OpAmpSimulator.simulate_batch`, which the vector
environment and the corner sweep call, loops its lanes through it and, for
``method="mna"``, sweeps every lane's small-signal circuit in one
:class:`~repro.simulation.mna.BatchedMNAPlan`; a lane's sweep does not
depend on its batch, so each lane is bitwise ``simulate`` of its netlist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Netlist
from repro.simulation.base import SimulationResult
from repro.simulation.mna import (
    SWEEP_FREQUENCIES,
    MnaCircuit,
    frequency_response_metrics,
    template_sweep_metrics,
)
from repro.simulation.mosfet import MosfetModel
from repro.simulation.technology import CMOS_45NM, CmosTechnology


def _parallel(r1: float, r2: float) -> float:
    if math.isinf(r1):
        return r2
    if math.isinf(r2):
        return r1
    return (r1 * r2) / (r1 + r2)


@dataclass
class OpAmpOperatingPoint:
    """Intermediate analog quantities exposed for debugging and tests."""

    tail_current: float
    second_stage_current: float
    gm1: float
    gm6: float
    first_stage_resistance: float
    second_stage_resistance: float
    first_stage_gain: float
    second_stage_gain: float
    dominant_pole_hz: float
    output_pole_hz: float
    zero_hz: float
    unity_gain_bandwidth_hz: float
    phase_margin_deg: float
    power_w: float
    first_stage_capacitance: float
    output_capacitance: float
    miller_capacitance: float


def _small_signal_values(op: OpAmpOperatingPoint) -> Dict[str, float]:
    """Small-signal element values of ``op``, keyed by element name."""
    return {
        "GM1": -op.gm1,
        "R1": max(op.first_stage_resistance, 1.0),
        "C1": max(op.first_stage_capacitance, 1e-18),
        "GM6": op.gm6,
        "R2": max(op.second_stage_resistance, 1.0),
        "CL": max(op.output_capacitance, 1e-18),
        "CC": max(op.miller_capacitance, 1e-18),
    }


def _small_signal_circuit(values: Dict[str, float]) -> MnaCircuit:
    """The two-stage small-signal equivalent with the given element values."""
    circuit = MnaCircuit("opamp_small_signal")
    circuit.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    # First stage: gm1 from input into the mid node.
    circuit.add_vccs("GM1", "mid", "0", "in", "0", gm=values["GM1"])
    circuit.add_resistor("R1", "mid", "0", values["R1"])
    circuit.add_capacitor("C1", "mid", "0", values["C1"])
    # Second stage: gm6 from mid into the output node.
    circuit.add_vccs("GM6", "out", "0", "mid", "0", gm=values["GM6"])
    circuit.add_resistor("R2", "out", "0", values["R2"])
    circuit.add_capacitor("CL", "out", "0", values["CL"])
    # Miller compensation across the second stage.
    circuit.add_capacitor("CC", "mid", "out", values["CC"])
    return circuit


class OpAmpSimulator:
    """Evaluate the two-stage op-amp netlist into its four specifications."""

    name = "opamp_analytic"

    def __init__(
        self,
        technology: CmosTechnology = CMOS_45NM,
        method: str = "analytic",
        bias_overhead_current: float = 2e-6,
    ) -> None:
        if method not in {"analytic", "mna"}:
            raise ValueError("method must be 'analytic' or 'mna'")
        self.technology = technology
        self.method = method
        #: Fixed bias-generation overhead added to the supply current (A);
        #: keeps the power figure strictly positive even for minimum sizing.
        self.bias_overhead_current = bias_overhead_current
        self.name = f"opamp_{method}"

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def simulate(self, netlist: Netlist) -> SimulationResult:
        """Return gain, bandwidth (Hz), phase margin (deg) and power (W)."""
        op = self.operating_point(netlist)
        if self.method == "mna":
            response = self._mna_frequency_response(netlist, op)
        else:
            response = self._analytic_response(op)
        return self._result(op, response)

    def simulate_batch(
        self,
        netlists: Sequence[Netlist],
        operating_points: Optional[Sequence[OpAmpOperatingPoint]] = None,
    ) -> List[SimulationResult]:
        """``[simulate(n) for n in netlists]``, bit for bit, in one MNA sweep.

        ``operating_points[k]``, when given, stands in for
        ``operating_point(netlists[k])``: a corner sweep passes each corner
        clone's operating point of the same netlist.  The call keeps no
        state on the simulator.
        """
        if operating_points is None:
            operating_points = [self.operating_point(netlist) for netlist in netlists]
        elif len(operating_points) != len(netlists):
            raise ValueError(
                f"{len(operating_points)} operating points for {len(netlists)} netlists"
            )
        if self.method == "mna" and operating_points:
            lane_values = [_small_signal_values(op) for op in operating_points]
            responses = template_sweep_metrics(
                _small_signal_circuit(lane_values[0]), lane_values
            )
        else:
            responses = [self._analytic_response(op) for op in operating_points]
        return [
            self._result(op, response) for op, response in zip(operating_points, responses)
        ]

    @staticmethod
    def _analytic_response(op: OpAmpOperatingPoint) -> Tuple[float, float, float]:
        """Closed-form gain, unity-gain bandwidth and phase margin."""
        return (
            op.first_stage_gain * op.second_stage_gain,
            op.unity_gain_bandwidth_hz,
            op.phase_margin_deg,
        )

    @staticmethod
    def _result(
        op: OpAmpOperatingPoint, response: Tuple[float, float, float]
    ) -> SimulationResult:
        gain, bandwidth, phase_margin = response
        valid = op.tail_current > 0.0 and op.second_stage_current > 0.0 and gain > 1.0
        specs = {
            "gain": float(gain),
            "bandwidth": float(bandwidth),
            "phase_margin": float(phase_margin),
            "power": float(op.power_w),
        }
        details = {
            "tail_current": op.tail_current,
            "second_stage_current": op.second_stage_current,
            "gm1": op.gm1,
            "gm6": op.gm6,
            "dominant_pole_hz": op.dominant_pole_hz,
            "output_pole_hz": op.output_pole_hz,
            "zero_hz": op.zero_hz,
            "first_stage_gain": op.first_stage_gain,
            "second_stage_gain": op.second_stage_gain,
        }
        return SimulationResult(specs=specs, details=details, valid=valid)

    # ------------------------------------------------------------------
    # DC + small-signal operating point
    # ------------------------------------------------------------------
    def operating_point(self, netlist: Netlist) -> OpAmpOperatingPoint:
        """Compute bias currents, small-signal parameters and poles."""
        tech = self.technology
        models = {
            name: MosfetModel(
                tech,
                "pmos" if name in ("M3", "M4", "M6") else "nmos",
                netlist.get_parameter(name, "width"),
                netlist.get_parameter(name, "fingers"),
            )
            for name in ("M1", "M2", "M3", "M4", "M5", "M6", "M7")
        }
        supply_voltage = netlist.get_parameter("VP", "voltage")
        bias_voltage = netlist.get_parameter("VBIAS", "voltage")
        compensation_cap = netlist.get_parameter("CC", "value")
        load_cap = netlist.get_parameter("CL", "value")

        # --- DC bias ---------------------------------------------------
        overdrive = bias_voltage - tech.vth_n
        tail_current = models["M5"].saturation_current(overdrive)
        second_stage_current = models["M7"].saturation_current(overdrive)
        branch_current = tail_current / 2.0
        power = supply_voltage * (
            tail_current + second_stage_current + self.bias_overhead_current
        )

        # --- First stage ------------------------------------------------
        gm1 = models["M1"].gm_at_current(branch_current)
        r_first = _parallel(
            models["M2"].ro_at_current(branch_current),
            models["M4"].ro_at_current(branch_current),
        )
        gain_first = gm1 * r_first if math.isfinite(r_first) else 0.0

        # --- Second stage -------------------------------------------------
        gm6 = models["M6"].gm_at_current(second_stage_current)
        r_second = _parallel(
            models["M6"].ro_at_current(second_stage_current),
            models["M7"].ro_at_current(second_stage_current),
        )
        gain_second = gm6 * r_second if math.isfinite(r_second) else 0.0

        # --- Frequency response -------------------------------------------
        # Parasitic capacitance at the first-stage output is dominated by the
        # gate of M6.
        first_stage_cap = models["M6"].gate_capacitance() + 10e-15
        total_output_cap = load_cap + 20e-15
        miller_cap = compensation_cap

        if gain_second > 0.0 and r_first > 0.0:
            dominant_pole = 1.0 / (
                2.0 * math.pi * r_first * (first_stage_cap + miller_cap * (1.0 + gain_second))
            )
        else:
            dominant_pole = 0.0
        if gm6 > 0.0:
            denominator = (
                first_stage_cap * total_output_cap
                + miller_cap * (first_stage_cap + total_output_cap)
            )
            output_pole = gm6 * miller_cap / (2.0 * math.pi * denominator)
            zero = gm6 / (2.0 * math.pi * miller_cap)
        else:
            output_pole = 0.0
            zero = 0.0
        unity_gain_bandwidth = gm1 / (2.0 * math.pi * miller_cap) if miller_cap > 0 else 0.0

        phase_margin = self._phase_margin(
            unity_gain_bandwidth, dominant_pole, output_pole, zero,
            dc_gain=gain_first * gain_second,
        )

        return OpAmpOperatingPoint(
            tail_current=tail_current,
            second_stage_current=second_stage_current,
            gm1=gm1,
            gm6=gm6,
            first_stage_resistance=r_first,
            second_stage_resistance=r_second,
            first_stage_gain=gain_first,
            second_stage_gain=gain_second,
            dominant_pole_hz=dominant_pole,
            output_pole_hz=output_pole,
            zero_hz=zero,
            unity_gain_bandwidth_hz=unity_gain_bandwidth,
            phase_margin_deg=phase_margin,
            power_w=power,
            first_stage_capacitance=first_stage_cap,
            output_capacitance=total_output_cap,
            miller_capacitance=miller_cap,
        )

    @staticmethod
    def _phase_margin(
        unity_freq: float,
        dominant_pole: float,
        output_pole: float,
        zero: float,
        dc_gain: float,
    ) -> float:
        """Phase margin (degrees) from the two-pole-one-zero response."""
        if unity_freq <= 0.0 or dc_gain <= 1.0 or dominant_pole <= 0.0:
            return 0.0
        # np.arctan2 (not math.atan2): the two differ by 1 ulp on ~1% of
        # inputs, and the recorded simulate goldens
        # (tests/simulation/test_mna_plan.py) pin these bits.
        phase = -np.degrees(np.arctan2(unity_freq, dominant_pole))
        if output_pole > 0.0:
            phase -= np.degrees(np.arctan2(unity_freq, output_pole))
        if zero > 0.0:
            # Right-half-plane zero: adds phase lag like a pole.
            phase -= np.degrees(np.arctan2(unity_freq, zero))
        margin = 180.0 + phase
        return float(np.clip(margin, 0.0, 180.0))

    # ------------------------------------------------------------------
    # Small-signal MNA cross-check
    # ------------------------------------------------------------------
    def build_small_signal_circuit(self, netlist: Netlist,
                                   op: Optional[OpAmpOperatingPoint] = None) -> MnaCircuit:
        """Assemble the two-stage small-signal equivalent as an MNA circuit.

        Nodes: ``in`` (differential input), ``mid`` (first-stage output),
        ``out`` (amplifier output).  Every element value comes from the
        analytical operating point, so both paths share the same DC
        linearization and only the frequency response is cross-checked.
        """
        return _small_signal_circuit(_small_signal_values(op or self.operating_point(netlist)))

    def _mna_frequency_response(
        self, netlist: Netlist, op: OpAmpOperatingPoint
    ) -> tuple[float, float, float]:
        """Gain, unity-gain bandwidth and phase margin from an MNA AC sweep."""
        solution = self.build_small_signal_circuit(netlist, op).ac_analysis(SWEEP_FREQUENCIES)
        return frequency_response_metrics(SWEEP_FREQUENCIES, solution.voltage("out"))
