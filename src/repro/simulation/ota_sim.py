"""Current-mirror OTA performance evaluator.

Analytical square-law evaluator for the topology of
:mod:`repro.circuits.library.current_mirror_ota`.  The defining property of
the mirror-loaded OTA is that its output behaviour is set by *strength
ratios*:

* the PMOS output mirror ratio ``B_up = S6 / S5`` multiplies the signal
  current sourced into the load, and
* the three-device sink path ``B_down = (S7 / S4) · (S9 / S8)`` multiplies
  the current pulled out of it,

so the effective transconductance is ``gm1 · (B_up + B_down) / 2``, the slew
rate is the smaller mirrored tail current over the load capacitance, and the
power grows with *both* ratios — the classic drive-versus-power trade-off the
RL agent must discover.

As for the op-amp, :meth:`CmOtaSimulator.operating_point` is the only copy
of the circuit equations, and it reads a lane's values of
:attr:`CmOtaSimulator.reads` out of the rows, never a netlist;
:meth:`CmOtaSimulator.results` sweeps the ``method="mna"`` lanes in one
:meth:`~repro.simulation.mna.MnaCircuit.ac_analysis` call, and ``simulate``
is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.simulation.base import OperatingPointSimulator, SimulationResult, transistor_reads
from repro.simulation.mna import MnaCircuit, template_sweep_metrics
from repro.simulation.mosfet import MosfetModel
from repro.simulation.opamp_sim import _parallel
from repro.simulation.technology import CMOS_45NM, CmosTechnology

_TRANSISTORS = ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9")
#: PMOS devices of the current-mirror OTA netlist (the rest are NMOS).
_PMOS_DEVICES = ("M4", "M5", "M6", "M7")


@dataclass
class CmOtaOperatingPoint:
    """Intermediate analog quantities exposed for debugging and tests."""

    tail_current: float
    mirror_ratio_up: float
    mirror_ratio_down: float
    output_source_current: float
    output_sink_current: float
    gm1: float
    effective_gm: float
    output_resistance: float
    gain: float
    unity_gain_bandwidth_hz: float
    slew_rate: float
    power_w: float
    load_capacitance: float


def _small_signal_values(op: CmOtaOperatingPoint) -> Dict[str, float]:
    """Small-signal element values of ``op``, keyed by element name."""
    return {
        "GM": -op.effective_gm,
        "ROUT": max(op.output_resistance, 1.0),
        "CL": max(op.load_capacitance, 1e-18),
    }


def _small_signal_circuit(values: Dict[str, float]) -> MnaCircuit:
    """The single-stage small-signal equivalent with the given element values."""
    circuit = MnaCircuit("cm_ota_small_signal")
    circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
    circuit.add_vccs("GM", "out", "0", "in", "0", gm=values["GM"])
    circuit.add_resistor("ROUT", "out", "0", values["ROUT"])
    circuit.add_capacitor("CL", "out", "0", values["CL"])
    return circuit


#: The small-signal equivalent's structure; ``results`` restamps
#: every element ``_small_signal_values`` names, per lane.
_TEMPLATE = _small_signal_circuit(dict.fromkeys(("GM", "ROUT", "CL"), 1.0))


class CmOtaSimulator(OperatingPointSimulator):
    """Evaluate the current-mirror OTA's rows into its four specifications."""

    name = "cm_ota_analytic"
    #: Each transistor's width and fingers, the supply and tail bias
    #: voltages, then the load capacitor.
    reads = transistor_reads(_TRANSISTORS) + (
        ("VP", "voltage"), ("VBIAS", "voltage"), ("CL", "value"),
    )

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
        #: Fixed bias-generation overhead added to the supply current (A).
        self.bias_overhead_current = bias_overhead_current
        self.name = f"cm_ota_{method}"

    def results(self, operating_points: Sequence[CmOtaOperatingPoint]) -> List[SimulationResult]:
        """Gain, bandwidth (Hz), slew rate (V/s) and power (W) per operating point.

        See :meth:`OpAmpSimulator.results
        <repro.simulation.opamp_sim.OpAmpSimulator.results>`.
        """
        if self.method == "mna" and operating_points:
            lane_values = [_small_signal_values(op) for op in operating_points]
            responses = [
                (gain, unity_freq)
                for gain, unity_freq, _ in template_sweep_metrics(_TEMPLATE, lane_values)
            ]
        else:
            responses = [(op.gain, op.unity_gain_bandwidth_hz) for op in operating_points]
        return [
            self._result(op, response) for op, response in zip(operating_points, responses)
        ]

    @staticmethod
    def _result(op: CmOtaOperatingPoint, response: Tuple[float, float]) -> SimulationResult:
        gain, bandwidth = response
        valid = op.tail_current > 0.0 and gain > 1.0 and op.slew_rate > 0.0
        specs = {
            "gain": float(gain),
            "bandwidth": float(bandwidth),
            "slew_rate": float(op.slew_rate),
            "power": float(op.power_w),
        }
        details = {
            "tail_current": op.tail_current,
            "mirror_ratio_up": op.mirror_ratio_up,
            "mirror_ratio_down": op.mirror_ratio_down,
            "gm1": op.gm1,
            "effective_gm": op.effective_gm,
            "output_resistance": op.output_resistance,
            "output_source_current": op.output_source_current,
            "output_sink_current": op.output_sink_current,
        }
        return SimulationResult(specs=specs, details=details, valid=valid)

    def operating_point(self, values: Sequence[float]) -> CmOtaOperatingPoint:
        """Compute bias currents, mirror ratios and small-signal parameters.

        ``values`` are the lane's values of :attr:`reads`, in order.
        """
        tech = self.technology
        models = {
            name: MosfetModel(
                tech, "pmos" if name in _PMOS_DEVICES else "nmos", values[2 * i], values[2 * i + 1]
            )
            for i, name in enumerate(_TRANSISTORS)
        }
        supply_voltage, tail_bias, load_cap = values[2 * len(_TRANSISTORS):]

        # --- DC bias: the tail splits evenly, the mirrors scale it --------
        tail_current = models["M3"].saturation_current(tail_bias - tech.vth_n)
        branch_current = tail_current / 2.0
        ratio_up = models["M6"].strength / models["M5"].strength
        ratio_down = (models["M7"].strength / models["M4"].strength) * (
            models["M9"].strength / models["M8"].strength
        )
        source_current = ratio_up * branch_current
        sink_current = ratio_down * branch_current
        power = supply_voltage * (
            tail_current + source_current + sink_current + self.bias_overhead_current
        )

        # --- Small signal -------------------------------------------------
        gm1 = models["M1"].gm_at_current(branch_current)
        effective_gm = gm1 * 0.5 * (ratio_up + ratio_down)
        output_resistance = _parallel(
            models["M6"].ro_at_current(source_current),
            models["M9"].ro_at_current(sink_current),
        )
        gain = (
            effective_gm * output_resistance if math.isfinite(output_resistance) else 0.0
        )
        total_load = load_cap + 20e-15
        unity_gain_bandwidth = effective_gm / (2.0 * math.pi * total_load)
        # Large-signal drive: the weaker mirror path limits the output swing
        # rate into the load capacitor.
        slew_rate = min(ratio_up, ratio_down) * tail_current / total_load

        return CmOtaOperatingPoint(
            tail_current=tail_current,
            mirror_ratio_up=ratio_up,
            mirror_ratio_down=ratio_down,
            output_source_current=source_current,
            output_sink_current=sink_current,
            gm1=gm1,
            effective_gm=effective_gm,
            output_resistance=output_resistance,
            gain=gain,
            unity_gain_bandwidth_hz=unity_gain_bandwidth,
            slew_rate=slew_rate,
            power_w=power,
            load_capacitance=total_load,
        )

    # ------------------------------------------------------------------
    # Small-signal MNA cross-check
    # ------------------------------------------------------------------
    @staticmethod
    def build_small_signal_circuit(op: CmOtaOperatingPoint) -> MnaCircuit:
        """Assemble the single-stage small-signal equivalent as an MNA circuit.

        One node (``out``) behind the effective mirror-scaled
        transconductance; every element value comes from the analytical
        operating point, so both methods share the same DC linearization and
        only the frequency response differs.
        """
        return _small_signal_circuit(_small_signal_values(op))
