"""Common-source LNA performance evaluator (gain, noise figure, power).

Behavioural narrow-band model for the topology of
:mod:`repro.circuits.library.common_source_lna`, evaluated at the design's
carrier frequency:

* **DC**: the gate bias fixes the overdrive of ``M1``; its geometry sets the
  drain current and hence the static power.
* **Gain**: ``gm · (Q_L ω₀ L_D ‖ R_casc)`` — the load inductor's finite-Q
  parallel resistance at resonance, limited by the cascode output resistance.
* **Noise figure**: the two classical channel-noise contributions of an
  inductively degenerated CS stage in behavioural form,
  ``F = 1 + γ ω₀ C_gs R_s + γ / (g_m R_s)``.  The first term grows with
  device capacitance (large devices), the second shrinks with
  transconductance (bias current), so an optimum width exists and lowering
  the noise figure costs power — the LNA's defining trade-off.

The degeneration inductor reduces the effective transconductance by the
series-feedback factor ``1 / (1 + g_m ω₀ L_S)``-like term (computed with the
real part of the degenerated input impedance), so ``LS`` trades gain for
linearity/match exactly as in the textbook treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.circuits.library.common_source_lna import LNA_FREQUENCY
from repro.simulation.base import OperatingPointSimulator, SimulationResult, transistor_reads
from repro.simulation.mosfet import MosfetModel
from repro.simulation.opamp_sim import _parallel
from repro.simulation.technology import CMOS_45NM, CmosTechnology

#: Source impedance the LNA is noise-matched against (ohms).
LNA_SOURCE_RESISTANCE = 50.0

#: Channel thermal-noise coefficient γ of the short-channel process.
LNA_NOISE_GAMMA = 1.5

#: Quality factor of the on-chip load inductor.
LNA_INDUCTOR_Q = 10.0


@dataclass
class LnaOperatingPoint:
    """Intermediate analog quantities exposed for debugging and tests."""

    drain_current: float
    gm: float
    effective_gm: float
    gate_capacitance: float
    transit_frequency_hz: float
    input_resistance: float
    load_resistance: float
    gain: float
    noise_factor: float
    noise_figure_db: float
    power_w: float


class LnaSimulator(OperatingPointSimulator):
    """Evaluate the common-source LNA's rows into its three specifications."""

    name = "lna_analytic"
    #: Both transistors' width and fingers, the supply and gate bias
    #: voltages, then the source and load inductors.
    reads = transistor_reads(("M1", "M2")) + (
        ("VP", "voltage"), ("VBIAS", "voltage"), ("LS", "value"), ("LD", "value"),
    )

    def __init__(
        self,
        technology: CmosTechnology = CMOS_45NM,
        frequency: float = LNA_FREQUENCY,
        source_resistance: float = LNA_SOURCE_RESISTANCE,
        noise_gamma: float = LNA_NOISE_GAMMA,
        inductor_q: float = LNA_INDUCTOR_Q,
        bias_overhead_current: float = 2e-6,
    ) -> None:
        if frequency <= 0.0 or source_resistance <= 0.0:
            raise ValueError("frequency and source_resistance must be positive")
        self.technology = technology
        self.frequency = frequency
        self.source_resistance = source_resistance
        self.noise_gamma = noise_gamma
        self.inductor_q = inductor_q
        #: Fixed bias-generation overhead added to the supply current (A).
        self.bias_overhead_current = bias_overhead_current

    @staticmethod
    def _result(op: LnaOperatingPoint) -> SimulationResult:
        """Gain (V/V), noise figure (dB) and power (W)."""
        valid = op.drain_current > 0.0 and op.gain > 1.0
        specs = {
            "gain": float(op.gain),
            "noise_figure": float(op.noise_figure_db),
            "power": float(op.power_w),
        }
        details = {
            "drain_current": op.drain_current,
            "gm": op.gm,
            "effective_gm": op.effective_gm,
            "gate_capacitance": op.gate_capacitance,
            "transit_frequency_hz": op.transit_frequency_hz,
            "input_resistance": op.input_resistance,
            "load_resistance": op.load_resistance,
            "noise_factor": op.noise_factor,
        }
        return SimulationResult(specs=specs, details=details, valid=valid)

    def operating_point(self, values: Sequence[float]) -> LnaOperatingPoint:
        """Compute the bias point and the narrow-band small-signal figures.

        ``values`` are the lane's values of :attr:`reads`, in order.
        """
        tech = self.technology
        (main_width, main_fingers, cascode_width, cascode_fingers,
         supply_voltage, gate_bias, source_inductance, load_inductance) = values
        main = MosfetModel(tech, "nmos", main_width, main_fingers)
        cascode = MosfetModel(tech, "nmos", cascode_width, cascode_fingers)
        omega = 2.0 * math.pi * self.frequency

        # --- DC bias ---------------------------------------------------
        drain_current = main.saturation_current(gate_bias - tech.vth_n)
        power = supply_voltage * (drain_current + self.bias_overhead_current)
        gm = main.gm_at_current(drain_current)
        gate_cap = main.gate_capacitance()
        transit_frequency = gm / (2.0 * math.pi * gate_cap) if gate_cap > 0.0 else 0.0

        # --- Input stage with inductive degeneration -------------------
        # Series feedback: the degenerated stage's real input resistance is
        # ω_T · L_S and its transconductance shrinks by the same feedback.
        input_resistance = 2.0 * math.pi * transit_frequency * source_inductance
        degeneration = 1.0 + gm * omega * source_inductance
        effective_gm = gm / degeneration if degeneration > 0.0 else 0.0

        # --- Resonant load, limited by the cascode ---------------------
        tank_resistance = self.inductor_q * omega * load_inductance
        cascode_resistance = (
            cascode.gm_at_current(drain_current) * cascode.ro_at_current(drain_current) ** 2
            if drain_current > 0.0
            else float("inf")
        )
        load_resistance = _parallel(tank_resistance, cascode_resistance)
        gain = effective_gm * load_resistance

        # --- Noise figure ----------------------------------------------
        if gm > 0.0:
            noise_factor = (
                1.0
                + self.noise_gamma * omega * gate_cap * self.source_resistance
                + self.noise_gamma / (gm * self.source_resistance)
            )
        else:
            noise_factor = float("inf")
        noise_figure_db = (
            10.0 * math.log10(noise_factor) if math.isfinite(noise_factor) else 99.0
        )

        return LnaOperatingPoint(
            drain_current=drain_current,
            gm=gm,
            effective_gm=effective_gm,
            gate_capacitance=gate_cap,
            transit_frequency_hz=transit_frequency,
            input_resistance=input_resistance,
            load_resistance=load_resistance,
            gain=gain,
            noise_factor=noise_factor,
            noise_figure_db=noise_figure_db,
            power_w=power,
        )
