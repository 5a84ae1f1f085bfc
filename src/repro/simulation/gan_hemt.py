"""Behavioural GaN HEMT model used by the RF power-amplifier simulators.

The RF PA of Fig. 4 is built from 150 nm GaN high-electron-mobility
transistors.  For harmonic-balance-style waveform analysis we only need the
static transfer characteristic ``i_D(v_GS)`` and the output limit set by the
knee voltage, so the model is a smooth saturating transconductance curve:

* below pinch-off (``v_GS <= V_th``) the device is off,
* above pinch-off the current rises with slope ``gm`` and saturates at
  ``I_max`` (both proportional to total gate width),
* the drain swing available to the load is ``V_DD − V_knee``.

This captures exactly the nonlinearities (clipping at zero and at ``I_max``)
that determine output power and efficiency of a class-AB PA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.technology import GanTechnology


@dataclass(frozen=True)
class GanOperatingPoint:
    """Quiescent bias summary of one GaN device."""

    quiescent_current: float
    max_current: float
    transconductance: float
    conduction_ratio: float


class GanHemtModel:
    """Saturating-transconductance model of a GaN HEMT.

    Parameters
    ----------
    technology:
        GaN process constants.
    width, fingers:
        Geometry; total gate width is ``width * fingers``.
    """

    def __init__(self, technology: GanTechnology, width: float, fingers: float) -> None:
        if width <= 0 or fingers <= 0:
            raise ValueError("width and fingers must be positive")
        self.technology = technology
        self.width = float(width)
        self.fingers = float(fingers)
        self.total_width = self.width * self.fingers
        self.imax = technology.imax(width, fingers)
        self.gm = technology.gm(width, fingers)
        self.vth = technology.vth
        self.knee_voltage = technology.knee_voltage

    # ------------------------------------------------------------------
    # Static characteristic
    # ------------------------------------------------------------------
    def drain_current(self, vgs: float | np.ndarray) -> np.ndarray:
        """Drain current for a gate voltage (scalar or waveform array).

        The transfer curve is piecewise linear with hard clipping at zero and
        at ``I_max`` — the classic idealized HEMT characteristic used in PA
        design texts for conduction-angle analysis.
        """
        vgs = np.asarray(vgs, dtype=np.float64)
        linear = self.gm * (vgs - self.vth)
        return np.clip(linear, 0.0, self.imax)

    def operating_point(self, gate_bias: float) -> GanOperatingPoint:
        """Quiescent current and conduction ratio at a DC gate bias."""
        quiescent = float(self.drain_current(gate_bias))
        return GanOperatingPoint(
            quiescent_current=quiescent,
            max_current=self.imax,
            transconductance=self.gm,
            conduction_ratio=quiescent / self.imax if self.imax > 0 else 0.0,
        )

    # ------------------------------------------------------------------
    # Waveform helpers for the harmonic-balance-like simulator
    # ------------------------------------------------------------------
    def current_waveform(
        self, gate_bias: float, drive_amplitude: float, num_points: int = 256
    ) -> np.ndarray:
        """Drain-current waveform over one RF period.

        Parameters
        ----------
        gate_bias:
            DC gate voltage (V).
        drive_amplitude:
            Amplitude of the sinusoidal gate drive (V).
        num_points:
            Number of uniformly spaced phase samples over ``[0, 2π)``.
        """
        if num_points < 8:
            raise ValueError("waveform needs at least 8 phase points")
        theta = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
        vgs = gate_bias + drive_amplitude * np.cos(theta)
        return self.drain_current(vgs)

    @staticmethod
    def fourier_components(waveform: np.ndarray, num_harmonics: int = 5) -> np.ndarray:
        """DC plus cosine-harmonic amplitudes of a periodic waveform.

        Returns ``[I_dc, I_1, ..., I_H]`` where ``I_k`` is the amplitude of
        the ``cos(kθ)`` component; this is the harmonic-balance current
        spectrum used to compute output power.
        """
        waveform = np.asarray(waveform, dtype=np.float64)
        num_points = waveform.size
        theta = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
        components = np.empty(num_harmonics + 1)
        components[0] = waveform.mean()
        for harmonic in range(1, num_harmonics + 1):
            components[harmonic] = 2.0 * np.mean(waveform * np.cos(harmonic * theta))
        return components
