"""The circuit design environment: reward, spaces, and the episode engine.

Each lane's state (working netlist, sizing, targets, measured specs,
trajectory) lives on its :class:`CircuitDesignEnv`; the one episode engine,
``repro.env.circuit_env.BatchedCircuitEnv``, rewrites the netlists, simulates
and turns measured specs into rewards and observations (the paper's "data
processor", Fig. 2).
"""

from repro.env.circuit_env import CircuitDesignEnv, EpisodeTrajectory, StepRecord
from repro.env.reward import GOAL_BONUS, FomReward, P2SReward, RewardOutcome
from repro.env.spaces import (
    ACTION_DECREASE,
    ACTION_INCREASE,
    ACTION_KEEP,
    NUM_ACTION_CHOICES,
    ActionSpace,
    Observation,
)

__all__ = [
    "ACTION_DECREASE",
    "ACTION_INCREASE",
    "ACTION_KEEP",
    "ActionSpace",
    "CircuitDesignEnv",
    "EpisodeTrajectory",
    "FomReward",
    "GOAL_BONUS",
    "NUM_ACTION_CHOICES",
    "Observation",
    "P2SReward",
    "RewardOutcome",
    "StepRecord",
]
