"""The circuit design environment: reward, data processing, and episode loop."""

from repro.env.circuit_env import CircuitDesignEnv, EpisodeTrajectory, StepRecord
from repro.env.data_processor import DataProcessor
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
    "DataProcessor",
    "EpisodeTrajectory",
    "FomReward",
    "GOAL_BONUS",
    "NUM_ACTION_CHOICES",
    "Observation",
    "P2SReward",
    "RewardOutcome",
    "StepRecord",
]
