"""The pre-layout circuit design environment (Fig. 2 of the paper).

:class:`CircuitDesignEnv` is a gym-style episodic environment:

* ``reset()`` samples (or accepts) a group of desired specifications, resets
  the netlist to its initial sizing, runs the simulator once and returns the
  first observation;
* ``step(action)`` applies the ``M``-vector of discrete tuning actions
  through the data processor, re-simulates, computes the Eq. (1) (or FoM)
  reward and reports whether the episode terminated (all specifications met,
  or the step budget exhausted — 50 steps for the op-amp, 30 for the RF PA).

The same environment class serves the op-amp and the RF PA; only the
benchmark, the simulator, and the reward function differ (see the
environment catalog in :mod:`repro.api.catalog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.circuits.library.benchmark import CircuitBenchmark
from repro.env.data_processor import DataProcessor
from repro.env.reward import FomReward, P2SReward, RewardOutcome
from repro.env.spaces import ActionSpace, Observation
from repro.simulation.base import CircuitSimulator

RewardFunction = Union[P2SReward, FomReward]


@dataclass
class StepRecord:
    """One step of an episode trajectory (used for Fig. 5 / Fig. 6 plots)."""

    step: int
    parameters: np.ndarray
    specs: Dict[str, float]
    reward: float
    goal_reached: bool


@dataclass
class EpisodeTrajectory:
    """Complete record of one episode."""

    target_specs: Dict[str, float]
    records: List[StepRecord] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.records)

    @property
    def success(self) -> bool:
        return any(record.goal_reached for record in self.records)

    @property
    def total_reward(self) -> float:
        return float(sum(record.reward for record in self.records))

    def spec_series(self, name: str) -> np.ndarray:
        """Per-step values of one specification (a Fig. 5/6 curve)."""
        return np.array([record.specs[name] for record in self.records])


class CircuitDesignEnv:
    """Episodic P2S / FoM environment around a circuit benchmark.

    Parameters
    ----------
    benchmark:
        Circuit definition (netlist, design space, spec space).
    simulator:
        Evaluates the netlist into intermediate specifications at each step.
    reward_fn:
        :class:`P2SReward` (Eq. 1) or :class:`FomReward`.
    max_steps:
        Episode step budget (the paper uses 50 for the op-amp, 30 for the PA).
    initial_sizing:
        ``"center"`` starts every episode from the mid-range sizing,
        ``"random"`` samples a random grid point per episode.
    goal_tolerance:
        Relative slack used when judging whether a spec is met.
    seed:
        Seed for the environment's private RNG (spec sampling, random resets).
    """

    def __init__(
        self,
        benchmark: CircuitBenchmark,
        simulator: CircuitSimulator,
        reward_fn: Optional[RewardFunction] = None,
        max_steps: Optional[int] = None,
        initial_sizing: str = "center",
        goal_tolerance: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if initial_sizing not in {"center", "random"}:
            raise ValueError("initial_sizing must be 'center' or 'random'")
        self.benchmark = benchmark
        self.simulator = simulator
        self.reward_fn = reward_fn or P2SReward(benchmark.spec_space)
        if max_steps is None:
            max_steps = benchmark.metadata.get("max_episode_steps", 50)
        self.max_steps = int(max_steps)
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.initial_sizing = initial_sizing
        self.goal_tolerance = goal_tolerance
        self.rng = np.random.default_rng(seed)
        self.action_space = ActionSpace(benchmark.num_parameters)

        self._netlist = benchmark.fresh_netlist()
        self._processor = DataProcessor(benchmark, self._netlist)
        self._targets: Dict[str, float] = {}
        self._measured: Dict[str, float] = {}
        self._step_count = 0
        self._done = True
        self._trajectory: Optional[EpisodeTrajectory] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def data_processor(self) -> DataProcessor:
        return self._processor

    @property
    def num_parameters(self) -> int:
        return self.benchmark.num_parameters

    @property
    def spec_feature_dimension(self) -> int:
        return self._processor.spec_feature_dimension

    @property
    def node_feature_dimension(self) -> int:
        return self._processor.node_feature_dimension

    @property
    def num_graph_nodes(self) -> int:
        return self._processor.num_graph_nodes

    @property
    def target_specs(self) -> Dict[str, float]:
        return dict(self._targets)

    @property
    def measured_specs(self) -> Dict[str, float]:
        return dict(self._measured)

    @property
    def parameter_values(self) -> np.ndarray:
        return self._processor.parameter_values

    @property
    def trajectory(self) -> Optional[EpisodeTrajectory]:
        """Trajectory of the current (or last) episode."""
        return self._trajectory

    @property
    def is_fom_mode(self) -> bool:
        return isinstance(self.reward_fn, FomReward)

    # ------------------------------------------------------------------
    # Episode control
    # ------------------------------------------------------------------
    def sample_target(self) -> Dict[str, float]:
        """Draw a target spec group from the Table 1 sampling space."""
        return self.benchmark.spec_space.sample(self.rng)

    def reset(
        self,
        target_specs: Optional[Mapping[str, float]] = None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> Observation:
        """Start a new episode and return the initial observation."""
        if target_specs is None:
            target_specs = self.sample_target()
        self._targets = {name: float(value) for name, value in dict(target_specs).items()}

        if initial_parameters is not None:
            start = np.asarray(initial_parameters, dtype=np.float64)
        elif self.initial_sizing == "center":
            start = self.benchmark.design_space.center()
        else:
            start = self.benchmark.design_space.sample(self.rng)
        self._processor.set_parameters(start)

        result = self.simulator.simulate(self._netlist)
        self._measured = dict(result.specs)
        self._step_count = 0
        self._done = False
        self._trajectory = EpisodeTrajectory(target_specs=dict(self._targets))
        return self._processor.observation(self._measured, self._targets)

    def step(self, action: np.ndarray) -> tuple[Observation, float, bool, Dict[str, object]]:
        """Apply one action vector; returns ``(observation, reward, done, info)``."""
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset() first")
        action = np.asarray(action, dtype=np.int64)
        if not self.action_space.contains(action):
            raise ValueError(
                f"invalid action of shape {action.shape}; expected "
                f"({self.num_parameters},) with entries in [0, 2]"
            )
        self._step_count += 1
        parameters = self._processor.apply_actions(action)
        result = self.simulator.simulate(self._netlist)
        self._measured = dict(result.specs)
        outcome: RewardOutcome = self.reward_fn(
            self._measured, self._targets, valid=result.valid
        )
        goal_reached = outcome.goal_reached and not self.is_fom_mode
        self._done = bool(goal_reached or self._step_count >= self.max_steps)

        record = StepRecord(
            step=self._step_count,
            parameters=parameters.copy(),
            specs=dict(self._measured),
            reward=outcome.reward,
            goal_reached=goal_reached,
        )
        assert self._trajectory is not None
        self._trajectory.records.append(record)

        observation = self._processor.observation(self._measured, self._targets)
        info: Dict[str, object] = {
            "step": self._step_count,
            "specs": dict(self._measured),
            "goal_reached": goal_reached,
            "met_fraction": outcome.met_fraction,
            "normalized_errors": outcome.normalized_errors,
            "simulation_valid": result.valid,
        }
        if self.is_fom_mode:
            info["figure_of_merit"] = self.reward_fn.figure_of_merit(self._measured)
        return observation, float(outcome.reward), self._done, info
