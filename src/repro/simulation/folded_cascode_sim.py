"""Folded-cascode op-amp performance evaluator.

Same role (and same calibrated square-law device model) as
:mod:`repro.simulation.opamp_sim`, for the folded-cascode topology of
:mod:`repro.circuits.library.folded_cascode`:

1. **DC**: the tail bias fixes the input-pair current through ``M11`` and the
   PMOS source bias fixes the folding-branch currents through ``M3``/``M4``;
   the output-branch current is their difference — over-sizing the tail
   against the sources starves the cascode and invalidates the design, the
   topology's characteristic failure mode.
2. **AC**: single-stage gain ``gm1 · (R_up ‖ R_down)`` with both cascoded
   output resistances, unity-gain bandwidth ``gm1 / (2π C_L)`` (the load
   capacitor is the compensation), and phase margin from the non-dominant
   pole at the folding node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.simulation.base import OperatingPointSimulator, SimulationResult, transistor_reads
from repro.simulation.mosfet import MosfetModel
from repro.simulation.opamp_sim import _parallel
from repro.simulation.technology import CMOS_45NM, CmosTechnology

_TRANSISTORS = ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11")
#: PMOS devices of the folded-cascode netlist (the rest are NMOS).
_PMOS_DEVICES = ("M3", "M4", "M5", "M6")


@dataclass
class FoldedCascodeOperatingPoint:
    """Intermediate analog quantities exposed for debugging and tests."""

    tail_current: float
    source_current: float
    output_branch_current: float
    gm1: float
    output_resistance: float
    gain: float
    dominant_pole_hz: float
    fold_pole_hz: float
    unity_gain_bandwidth_hz: float
    phase_margin_deg: float
    power_w: float


class FoldedCascodeSimulator(OperatingPointSimulator):
    """Evaluate the folded-cascode rows into its four specifications."""

    name = "folded_cascode_analytic"
    #: Each transistor's width and fingers, the supply, the tail and source
    #: bias voltages, then the load capacitor.
    reads = transistor_reads(_TRANSISTORS) + (
        ("VP", "voltage"), ("VBIASN", "voltage"), ("VBIASP", "voltage"), ("CL", "value"),
    )

    def __init__(
        self,
        technology: CmosTechnology = CMOS_45NM,
        bias_overhead_current: float = 2e-6,
    ) -> None:
        self.technology = technology
        #: Fixed bias-generation overhead added to the supply current (A).
        self.bias_overhead_current = bias_overhead_current

    @staticmethod
    def _result(op: FoldedCascodeOperatingPoint) -> SimulationResult:
        """Gain, bandwidth (Hz), phase margin (deg) and power (W)."""
        valid = (
            op.tail_current > 0.0
            and op.output_branch_current > 0.0
            and op.gain > 1.0
        )
        specs = {
            "gain": float(op.gain),
            "bandwidth": float(op.unity_gain_bandwidth_hz),
            "phase_margin": float(op.phase_margin_deg),
            "power": float(op.power_w),
        }
        details = {
            "tail_current": op.tail_current,
            "source_current": op.source_current,
            "output_branch_current": op.output_branch_current,
            "gm1": op.gm1,
            "output_resistance": op.output_resistance,
            "dominant_pole_hz": op.dominant_pole_hz,
            "fold_pole_hz": op.fold_pole_hz,
        }
        return SimulationResult(specs=specs, details=details, valid=valid)

    def operating_point(self, values: Sequence[float]) -> FoldedCascodeOperatingPoint:
        """Compute bias currents, small-signal parameters and poles.

        ``values`` are the lane's values of :attr:`reads`, in order.
        """
        tech = self.technology
        models = {
            name: MosfetModel(
                tech, "pmos" if name in _PMOS_DEVICES else "nmos", values[2 * i], values[2 * i + 1]
            )
            for i, name in enumerate(_TRANSISTORS)
        }
        supply_voltage, tail_bias, source_bias, load_cap = values[2 * len(_TRANSISTORS):]

        # --- DC bias ---------------------------------------------------
        tail_current = models["M11"].saturation_current(tail_bias - tech.vth_n)
        source_overdrive = (supply_voltage - source_bias) - tech.vth_p
        source_current = models["M3"].saturation_current(source_overdrive)
        branch_current = tail_current / 2.0
        output_current = source_current - branch_current
        power = supply_voltage * (
            tail_current + 2.0 * source_current + self.bias_overhead_current
        )

        if output_current <= 0.0:
            # Folding branch starved: no quiescent current in the cascode.
            return FoldedCascodeOperatingPoint(
                tail_current=tail_current,
                source_current=source_current,
                output_branch_current=output_current,
                gm1=0.0, output_resistance=0.0, gain=0.0,
                dominant_pole_hz=0.0, fold_pole_hz=0.0,
                unity_gain_bandwidth_hz=0.0, phase_margin_deg=0.0,
                power_w=power,
            )

        # --- Small signal ----------------------------------------------
        gm1 = models["M1"].gm_at_current(branch_current)
        # Looking up from the output through the PMOS cascode M6: its source
        # sees the PMOS current source in parallel with the input device.
        fold_resistance = _parallel(
            models["M4"].ro_at_current(source_current),
            models["M2"].ro_at_current(branch_current),
        )
        r_up = (
            models["M6"].gm_at_current(output_current)
            * models["M6"].ro_at_current(output_current)
            * fold_resistance
        )
        # Looking down through the NMOS cascode M8 into the mirror sink M10.
        r_down = (
            models["M8"].gm_at_current(output_current)
            * models["M8"].ro_at_current(output_current)
            * models["M10"].ro_at_current(output_current)
        )
        output_resistance = _parallel(r_up, r_down)
        gain = gm1 * output_resistance if math.isfinite(output_resistance) else 0.0

        # --- Frequency response ----------------------------------------
        total_load = load_cap + 20e-15
        dominant_pole = (
            1.0 / (2.0 * math.pi * output_resistance * total_load)
            if output_resistance > 0.0
            else 0.0
        )
        unity_gain_bandwidth = gm1 / (2.0 * math.pi * total_load)
        # Non-dominant pole at the folding node: the cascode's 1/gm6 input
        # resistance against the parasitics of the three connected drains.
        fold_cap = models["M6"].gate_capacitance() + 10e-15
        gm6 = models["M6"].gm_at_current(output_current)
        fold_pole = gm6 / (2.0 * math.pi * fold_cap) if fold_cap > 0.0 else 0.0

        phase_margin = self._phase_margin(
            unity_gain_bandwidth, dominant_pole, fold_pole, dc_gain=gain
        )
        return FoldedCascodeOperatingPoint(
            tail_current=tail_current,
            source_current=source_current,
            output_branch_current=output_current,
            gm1=gm1,
            output_resistance=output_resistance,
            gain=gain,
            dominant_pole_hz=dominant_pole,
            fold_pole_hz=fold_pole,
            unity_gain_bandwidth_hz=unity_gain_bandwidth,
            phase_margin_deg=phase_margin,
            power_w=power,
        )

    @staticmethod
    def _phase_margin(
        unity_freq: float, dominant_pole: float, fold_pole: float, dc_gain: float
    ) -> float:
        """Phase margin (degrees) of the two-pole (no zero) response."""
        if unity_freq <= 0.0 or dc_gain <= 1.0 or dominant_pole <= 0.0:
            return 0.0
        phase = -math.degrees(math.atan2(unity_freq, dominant_pole))
        if fold_pole > 0.0:
            phase -= math.degrees(math.atan2(unity_freq, fold_pole))
        margin = 180.0 + phase
        return float(min(max(margin, 0.0), 180.0))
