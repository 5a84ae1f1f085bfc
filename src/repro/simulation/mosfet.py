"""Square-law MOSFET large- and small-signal model.

This is the device model behind both the analytical op-amp evaluator
(:mod:`repro.simulation.opamp_sim`) and the nonlinear MNA stamps
(:mod:`repro.simulation.mna`).  It implements the standard long-channel
square-law equations with channel-length modulation:

* cut-off      : ``V_gs <= V_th``            → ``I_D = 0``
* triode       : ``V_ds <  V_gs - V_th``     → ``I_D = k S ((Vgs-Vth)Vds - Vds²/2)(1+λVds)``
* saturation   : ``V_ds >= V_gs - V_th``     → ``I_D = k S (Vgs-Vth)²/2 (1+λVds)``

with ``S = W_total / L_ref`` the device strength.  PMOS devices are handled
by sign reflection.  The small-signal quantities ``gm`` and ``ro`` follow by
differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from repro.simulation.technology import CmosTechnology


class Region(Enum):
    """DC operating region of a MOSFET."""

    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass(frozen=True)
class OperatingPoint:
    """DC operating point and small-signal parameters of one device."""

    drain_current: float
    region: Region
    gm: float
    gds: float
    vgs: float
    vds: float
    overdrive: float

    @property
    def ro(self) -> float:
        """Small-signal output resistance (ohms); infinite in cut-off."""
        if self.gds <= 0.0:
            return float("inf")
        return 1.0 / self.gds


class MosfetModel:
    """Square-law model of a single NMOS or PMOS device.

    Parameters
    ----------
    technology:
        Process constants.
    polarity:
        ``"nmos"`` or ``"pmos"``.
    width, fingers:
        Device geometry; total width is ``width * fingers``.
    """

    def __init__(
        self,
        technology: CmosTechnology,
        polarity: str,
        width: float,
        fingers: float,
    ) -> None:
        polarity = polarity.lower()
        if polarity not in {"nmos", "pmos"}:
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got '{polarity}'")
        self.technology = technology
        self.polarity = polarity
        self.width = float(width)
        self.fingers = float(fingers)
        self.strength = technology.strength(width, fingers)
        if polarity == "nmos":
            self.kp = technology.kp_n
            self.vth = technology.vth_n
            self.channel_lambda = technology.lambda_n
        else:
            self.kp = technology.kp_p
            self.vth = technology.vth_p
            self.channel_lambda = technology.lambda_p

    # ------------------------------------------------------------------
    # Large-signal model
    # ------------------------------------------------------------------
    def _oriented(self, vgs: float, vds: float) -> Tuple[float, float]:
        """Map terminal voltages into the NMOS-oriented frame."""
        if self.polarity == "nmos":
            return vgs, vds
        return -vgs, -vds

    def drain_current(self, vgs: float, vds: float) -> float:
        """Signed drain current (A) flowing drain→source for NMOS orientation.

        For a PMOS device the returned value is negative when the device
        conducts (current flows source→drain), matching SPICE conventions.
        """
        v_gs, v_ds = self._oriented(vgs, vds)
        current = self._nmos_current(v_gs, v_ds)
        return current if self.polarity == "nmos" else -current

    def _nmos_current(self, vgs: float, vds: float) -> float:
        vov = vgs - self.vth
        if vov <= 0.0:
            return 0.0
        sign = 1.0
        if vds < 0.0:
            # Source and drain swap roles; keep the model symmetric.
            vds = -vds
            sign = -1.0
        if vds < vov:
            # ``vds * vds`` (not ``vds**2``): the two can differ by 1 ulp,
            # and the recorded simulate goldens
            # (tests/simulation/test_mna_plan.py) pin these bits.
            ids = self.kp * self.strength * (vov * vds - 0.5 * (vds * vds))
        else:
            ids = 0.5 * self.kp * self.strength * (vov * vov)
        return sign * ids * (1.0 + self.channel_lambda * vds)

    def region(self, vgs: float, vds: float) -> Region:
        v_gs, v_ds = self._oriented(vgs, vds)
        vov = v_gs - self.vth
        if vov <= 0.0:
            return Region.CUTOFF
        if abs(v_ds) < vov:
            return Region.TRIODE
        return Region.SATURATION

    # ------------------------------------------------------------------
    # Small-signal model
    # ------------------------------------------------------------------
    def operating_point(self, vgs: float, vds: float) -> OperatingPoint:
        """Evaluate the DC point and small-signal ``gm`` / ``gds``."""
        v_gs, v_ds = self._oriented(vgs, vds)
        region = self.region(vgs, vds)
        current = abs(self._nmos_current(v_gs, v_ds))
        vov = max(v_gs - self.vth, 0.0)
        if region is Region.CUTOFF:
            gm = 0.0
            gds = 0.0
        elif region is Region.TRIODE:
            gds = self.kp * self.strength * max(vov - abs(v_ds), 0.0)
            gm = self.kp * self.strength * abs(v_ds)
        else:
            gm = self.kp * self.strength * vov * (1.0 + self.channel_lambda * abs(v_ds))
            gds = 0.5 * self.kp * self.strength * (vov * vov) * self.channel_lambda
        return OperatingPoint(
            drain_current=current,
            region=region,
            gm=gm,
            gds=gds,
            vgs=vgs,
            vds=vds,
            overdrive=vov,
        )

    # ------------------------------------------------------------------
    # Design-oriented helpers used by the analytical op-amp evaluator
    # ------------------------------------------------------------------
    def saturation_current(self, overdrive: float) -> float:
        """``I_D`` in saturation for a given overdrive (λVds ignored)."""
        if overdrive <= 0.0:
            return 0.0
        return 0.5 * self.kp * self.strength * (overdrive * overdrive)

    def gm_at_current(self, drain_current: float) -> float:
        """``gm = sqrt(2 k S I_D)`` for a device in saturation."""
        if drain_current <= 0.0:
            return 0.0
        return float(np.sqrt(2.0 * self.kp * self.strength * drain_current))

    def ro_at_current(self, drain_current: float) -> float:
        """``ro = 1 / (λ I_D)`` for a device in saturation."""
        if drain_current <= 0.0:
            return float("inf")
        return 1.0 / (self.channel_lambda * drain_current)

    def gate_capacitance(self) -> float:
        """Approximate total gate capacitance ``Cox W_total L_ref`` (F)."""
        area = self.width * self.fingers * self.technology.l_ref
        return self.technology.cox_per_area * area
