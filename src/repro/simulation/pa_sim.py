"""GaN RF power-amplifier simulators: fine (harmonic-balance-like) and coarse.

The paper's RF circuits are characterized with Keysight ADS:

* **Harmonic-balance (HB) simulation** (~1 minute per run) gives accurate
  output power and efficiency — this is what deployment must use.
* **DC simulation** (~1 second) gives rough estimates whose rewards are
  "often in ±10 % error range compared to the ones obtained from the HB
  simulation" — this is what the transfer-learning technique trains against.

This module reproduces both levels of fidelity with behavioural models:

* :class:`RfPaFineSimulator` — drives the device chain with a sinusoid,
  builds the power device's clipped drain-current waveform, Fourier-analyses
  it (the essence of harmonic balance) and computes output power delivered to
  the load plus drain + driver DC power.
* :class:`RfPaCoarseSimulator` — replaces the waveform analysis with ideal
  class-B formulas evaluated from DC quantities, plus a bounded deterministic
  model-mismatch term (default 8 %), mimicking the fast-but-rough DC
  characterization.

Both return the two Table 1 specifications ``output_power`` (W) and
``efficiency`` (fraction), so the RL environment can swap them freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.library.rf_pa import RF_PA_DRIVERS, RF_PA_POWER_DEVICE
from repro.simulation.base import OperatingPointSimulator, SimulationResult, transistor_reads
from repro.simulation.gan_hemt import GanHemtModel
from repro.simulation.technology import GAN_150NM, GanTechnology

#: The GaN devices in chain order: the drivers, then the power device.
_PA_DEVICES = RF_PA_DRIVERS + (RF_PA_POWER_DEVICE,)

#: Amplitude of the RF input signal applied to the first driver's gate (V).
RF_INPUT_AMPLITUDE = 0.3

#: Fraction of the driver supply available as voltage swing at a driver drain.
DRIVER_SWING_FRACTION = 0.42

#: Number of phase points used for the waveform (harmonic-balance) analysis.
WAVEFORM_POINTS = 256


@dataclass
class DriverChainResult:
    """Summary of the driver-chain analysis."""

    drive_amplitude: float
    stage_amplitudes: List[float]
    dc_power: float
    quiescent_currents: List[float]


@dataclass
class PaOperatingPoint:
    """Full operating-point summary of the PA (fine simulation)."""

    drive_amplitude: float
    fundamental_current: float
    dc_current: float
    quiescent_current: float
    load_voltage: float
    output_power: float
    dc_power_main: float
    dc_power_driver: float
    efficiency: float
    voltage_clipped: bool
    #: The coarse model's error multiplier (1.0 for the fine simulation).
    mismatch_factor: float = 1.0


class _PaBase(OperatingPointSimulator):
    """Shared parameter reads and driver-chain analysis."""

    #: Each GaN device's width and fingers (drivers, then the power device),
    #: the driver and power-device gate biases, then the load resistor.
    reads = transistor_reads(_PA_DEVICES) + (
        ("VBIAS1", "voltage"), ("VBIAS2", "voltage"), ("RLOAD", "value"),
    )

    def __init__(self, technology: GanTechnology = GAN_150NM) -> None:
        self.technology = technology

    def _device_models(self, values: Sequence[float]) -> Dict[str, GanHemtModel]:
        return {
            name: GanHemtModel(self.technology, values[2 * i], values[2 * i + 1])
            for i, name in enumerate(_PA_DEVICES)
        }

    # ------------------------------------------------------------------
    # Driver chain
    # ------------------------------------------------------------------
    def analyze_driver_chain(
        self, models: Dict[str, GanHemtModel], driver_bias: float
    ) -> DriverChainResult:
        """Propagate the RF drive through D1…D5 and DF to the power gate.

        Each stage delivers a fundamental current limited by its
        transconductance and by half its saturation current; that current
        develops a voltage across the parallel combination of the stage's
        pull-up resistor and the next stage's gate capacitance, clamped to
        the available supply swing.  Every stage also burns quiescent DC
        power proportional to its size — the efficiency cost of over-sizing
        the driver chain.
        """
        tech = self.technology
        omega = 2.0 * math.pi * tech.rf_frequency
        swing_limit = DRIVER_SWING_FRACTION * tech.driver_supply

        amplitude = RF_INPUT_AMPLITUDE
        stage_amplitudes: List[float] = []
        quiescent_currents: List[float] = []
        chain = list(RF_PA_DRIVERS)
        for index, name in enumerate(chain):
            stage = models[name]
            next_name = chain[index + 1] if index + 1 < len(chain) else RF_PA_POWER_DEVICE
            next_gate_cap = tech.cgs_per_width * models[next_name].total_width
            # Fundamental output current available from this stage.
            available_current = min(stage.gm * amplitude, stage.imax / 2.0)
            # Load seen by the stage: pull-up resistor in parallel with the
            # next gate capacitance at the RF frequency.
            resistive = tech.driver_load_resistance
            capacitive = 1.0 / (omega * next_gate_cap) if next_gate_cap > 0 else float("inf")
            magnitude = resistive / math.sqrt(1.0 + (resistive / capacitive) ** 2)
            amplitude = min(available_current * magnitude, swing_limit)
            stage_amplitudes.append(amplitude)
            quiescent_currents.append(float(stage.drain_current(driver_bias)))

        dc_power = tech.driver_supply * float(np.sum(quiescent_currents))
        return DriverChainResult(
            drive_amplitude=amplitude,
            stage_amplitudes=stage_amplitudes,
            dc_power=dc_power,
            quiescent_currents=quiescent_currents,
        )

    # ------------------------------------------------------------------
    # Output-stage power computation shared by both fidelity levels
    # ------------------------------------------------------------------
    def _output_power(
        self,
        fundamental_current: float,
        dc_current: float,
        driver_power: float,
        load_resistance: float,
    ) -> Tuple[float, float, float, bool]:
        """Return (output power, total DC power, load voltage, clipped)."""
        tech = self.technology
        max_swing = tech.drain_supply - tech.knee_voltage
        load_voltage = fundamental_current * load_resistance
        clipped = load_voltage > max_swing
        if clipped:
            load_voltage = max_swing
            delivered_current = load_voltage / load_resistance
        else:
            delivered_current = fundamental_current
        output_power = 0.5 * load_voltage * delivered_current
        dc_power = tech.drain_supply * dc_current + driver_power
        return output_power, dc_power, load_voltage, clipped


class RfPaFineSimulator(_PaBase):
    """Harmonic-balance-like waveform analysis of the RF PA (the "ADS HB" substitute)."""

    name = "rf_pa_fine"

    @staticmethod
    def _result(op: PaOperatingPoint) -> SimulationResult:
        specs = {
            "output_power": float(op.output_power),
            "efficiency": float(op.efficiency),
        }
        details = {
            "drive_amplitude": op.drive_amplitude,
            "fundamental_current": op.fundamental_current,
            "dc_current": op.dc_current,
            "quiescent_current": op.quiescent_current,
            "load_voltage": op.load_voltage,
            "dc_power_main": op.dc_power_main,
            "dc_power_driver": op.dc_power_driver,
            "voltage_clipped": float(op.voltage_clipped),
        }
        valid = op.output_power > 0.0 and 0.0 < op.efficiency < 1.0
        return SimulationResult(specs=specs, details=details, valid=valid)

    def operating_point(self, values: Sequence[float]) -> PaOperatingPoint:
        """Full waveform-level analysis of the power stage.

        ``values`` are the lane's values of :attr:`reads`, in order.
        """
        models = self._device_models(values)
        driver_bias, power_bias, load_resistance = values[2 * len(_PA_DEVICES):]
        chain = self.analyze_driver_chain(models, driver_bias)
        power_device = models[RF_PA_POWER_DEVICE]

        waveform = power_device.current_waveform(
            power_bias, chain.drive_amplitude, num_points=WAVEFORM_POINTS
        )
        harmonics = power_device.fourier_components(waveform, num_harmonics=5)
        dc_current = float(harmonics[0])
        fundamental_current = float(abs(harmonics[1]))
        quiescent = float(power_device.drain_current(power_bias))

        output_power, dc_power, load_voltage, clipped = self._output_power(
            fundamental_current, dc_current, chain.dc_power, load_resistance
        )
        efficiency = output_power / dc_power if dc_power > 0 else 0.0
        return PaOperatingPoint(
            drive_amplitude=chain.drive_amplitude,
            fundamental_current=fundamental_current,
            dc_current=dc_current,
            quiescent_current=quiescent,
            load_voltage=load_voltage,
            output_power=output_power,
            dc_power_main=dc_power - chain.dc_power,
            dc_power_driver=chain.dc_power,
            efficiency=float(np.clip(efficiency, 0.0, 1.0)),
            voltage_clipped=clipped,
        )


class RfPaCoarseSimulator(_PaBase):
    """Fast DC-estimate simulator used for transfer-learning pre-training.

    Parameters
    ----------
    technology:
        GaN process constants.
    mismatch:
        Peak relative model error versus the fine simulator.  The error is a
        smooth deterministic function of the power-device geometry (so the
        simulator stays a pure function of the netlist), bounded by
        ``mismatch`` — defaulting to 8 %, inside the ±10 % band the paper
        reports for DC-estimated rewards.
    """

    name = "rf_pa_coarse"

    def __init__(self, technology: GanTechnology = GAN_150NM, mismatch: float = 0.08) -> None:
        super().__init__(technology)
        if not 0.0 <= mismatch < 0.5:
            raise ValueError("mismatch must be in [0, 0.5)")
        self.mismatch = mismatch

    def _mismatch_factor(self, width: float, fingers: float) -> float:
        """Deterministic, bounded model-error multiplier in [1-m, 1+m].

        ``width`` and ``fingers`` are the power device's.
        """
        phase = 17.0 * width * 1e6 + 3.0 * fingers
        return 1.0 + self.mismatch * math.sin(phase)

    def operating_point(self, values: Sequence[float]) -> PaOperatingPoint:
        """Class-AB closed-form estimate of the power stage.

        ``values`` are the lane's values of :attr:`reads`, in order.
        """
        models = self._device_models(values)
        driver_bias, power_bias, load_resistance = values[2 * len(_PA_DEVICES):]
        chain = self.analyze_driver_chain(models, driver_bias)
        power_device = models[RF_PA_POWER_DEVICE]

        # Ideal conduction-angle estimate from DC quantities only (the
        # classic class-AB closed forms), without the waveform-level Imax
        # clipping and harmonic interaction the fine simulator captures.
        quiescent_overdrive = power_bias - power_device.vth
        drive = chain.drive_amplitude
        quiescent = float(power_device.drain_current(power_bias))
        if drive <= 0.0:
            fundamental_current = 0.0
            dc_current = quiescent
        else:
            # Conduction half-angle alpha: current flows while
            # cos(theta) > -Vq / Vd.
            ratio = np.clip(-quiescent_overdrive / drive, -1.0, 1.0)
            alpha = math.acos(ratio)
            peak_current = power_device.gm * (quiescent_overdrive + drive)
            capped_peak = min(peak_current, power_device.imax)
            scale = capped_peak / peak_current if peak_current > 0 else 0.0
            denom = 1.0 - math.cos(alpha)
            if denom <= 1e-9:
                fundamental_current = 0.0
                dc_current = quiescent
            else:
                dc_current = scale * peak_current / (2.0 * math.pi) * (
                    2.0 * math.sin(alpha) - 2.0 * alpha * math.cos(alpha)
                ) / denom
                fundamental_current = scale * peak_current / (2.0 * math.pi) * (
                    2.0 * alpha - math.sin(2.0 * alpha)
                ) / denom

        output_power, dc_power, load_voltage, clipped = self._output_power(
            fundamental_current, dc_current, chain.dc_power, load_resistance
        )
        factor = self._mismatch_factor(*values[2 * len(RF_PA_DRIVERS):2 * len(_PA_DEVICES)])
        output_power *= factor
        efficiency = output_power / dc_power if dc_power > 0 else 0.0
        return PaOperatingPoint(
            drive_amplitude=chain.drive_amplitude,
            fundamental_current=fundamental_current,
            dc_current=dc_current,
            quiescent_current=quiescent,
            load_voltage=load_voltage,
            output_power=output_power,
            dc_power_main=dc_power - chain.dc_power,
            dc_power_driver=chain.dc_power,
            efficiency=float(np.clip(efficiency, 0.0, 1.0)),
            voltage_clipped=clipped,
            mismatch_factor=factor,
        )

    @staticmethod
    def _result(op: PaOperatingPoint) -> SimulationResult:
        specs = {
            "output_power": float(op.output_power),
            "efficiency": op.efficiency,
        }
        details = {
            "drive_amplitude": op.drive_amplitude,
            "fundamental_current": op.fundamental_current,
            "dc_current": op.dc_current,
            "quiescent_current": op.quiescent_current,
            "load_voltage": op.load_voltage,
            "dc_power_driver": op.dc_power_driver,
            "mismatch_factor": op.mismatch_factor,
            "voltage_clipped": float(op.voltage_clipped),
        }
        # The efficiency is clipped onto [0, 1], which keeps ``0 < e < 1``
        # exactly as true or false as it was for the unclipped value.
        valid = op.output_power > 0.0 and 0.0 < op.efficiency < 1.0
        return SimulationResult(specs=specs, details=details, valid=valid)
