"""PVT corner sweeps: corner-lane batched evaluation and yield-aware rewards.

The subsystem has three layers (see ``docs/corners.md`` for the guide):

* :mod:`repro.corners.model` — :class:`Corner` / :class:`CornerSet` over
  the behavioural technology model (±10 % threshold/mobility process
  scaling, −40/27/125 °C through the MOSFET temperature model), with
  :func:`default_corner_set` as the standard five-corner sweep;
* :mod:`repro.corners.simulator` — :class:`CornerSimulator`, a drop-in
  :class:`~repro.simulation.base.CircuitSimulator` that evaluates all K
  corners of every parameter row of a call as the lanes of one base
  ``results`` call (one stacked MNA sweep on the op-amp and CM-OTA MNA
  methods) — bitwise identical to the per-corner loop;
* :mod:`repro.corners.reward` — :class:`YieldP2SReward`, worst-corner
  Eq. (1) satisfaction with configurable corner weighting.

The ``*-corners-v0`` catalog environments wire these together; the
Monte-Carlo yield report lives in :mod:`repro.experiments.yield_report`.
"""

from repro.corners.model import (
    Corner,
    CornerSet,
    TYPICAL,
    default_corner_set,
)
from repro.corners.reward import YieldP2SReward
from repro.corners.simulator import (
    CornerSimulator,
    clone_simulator_with_technology,
)

__all__ = [
    "Corner",
    "CornerSet",
    "CornerSimulator",
    "TYPICAL",
    "YieldP2SReward",
    "clone_simulator_with_technology",
    "default_corner_set",
]
