"""Simulation substrate: technology models, a mini-SPICE, and circuit evaluators.

This package replaces the proprietary simulators the paper relies on
(Cadence Spectre for the op-amp, Keysight ADS harmonic balance for the RF PA)
with from-scratch equivalents:

* :mod:`repro.simulation.mna` — a modified-nodal-analysis small-signal AC
  engine (:class:`BatchedMNAPlan` sweeps one or many lanes of one circuit),
* :mod:`repro.simulation.opamp_sim` — the two-stage op-amp evaluator,
* :mod:`repro.simulation.pa_sim` — fine (HB-like) and coarse (DC-estimate)
  RF PA evaluators used by the transfer-learning workflow.
"""

from repro.simulation.base import CircuitSimulator, SimulationResult, Simulator
from repro.simulation.folded_cascode_sim import (
    FoldedCascodeOperatingPoint,
    FoldedCascodeSimulator,
)
from repro.simulation.gan_hemt import GanHemtModel, GanOperatingPoint
from repro.simulation.lna_sim import LnaOperatingPoint, LnaSimulator
from repro.simulation.mna import (
    AcSolution,
    BatchedMNAPlan,
    ConvergenceError,
    MnaCircuit,
)
from repro.simulation.mosfet import MosfetModel, OperatingPoint, Region
from repro.simulation.opamp_sim import OpAmpOperatingPoint, OpAmpSimulator
from repro.simulation.ota_sim import CmOtaOperatingPoint, CmOtaSimulator
from repro.simulation.pa_sim import (
    DriverChainResult,
    PaOperatingPoint,
    RfPaCoarseSimulator,
    RfPaFineSimulator,
)
from repro.simulation.technology import CMOS_45NM, GAN_150NM, CmosTechnology, GanTechnology

__all__ = [
    "AcSolution",
    "BatchedMNAPlan",
    "CMOS_45NM",
    "CircuitSimulator",
    "CmOtaOperatingPoint",
    "CmOtaSimulator",
    "CmosTechnology",
    "ConvergenceError",
    "DriverChainResult",
    "FoldedCascodeOperatingPoint",
    "FoldedCascodeSimulator",
    "GAN_150NM",
    "GanHemtModel",
    "GanOperatingPoint",
    "GanTechnology",
    "LnaOperatingPoint",
    "LnaSimulator",
    "MnaCircuit",
    "MosfetModel",
    "OpAmpOperatingPoint",
    "OpAmpSimulator",
    "OperatingPoint",
    "PaOperatingPoint",
    "Region",
    "RfPaCoarseSimulator",
    "RfPaFineSimulator",
    "SimulationResult",
    "Simulator",
]
