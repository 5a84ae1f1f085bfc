"""The pre-layout circuit design environment (Fig. 2 of the paper).

:class:`CircuitDesignEnv` is a gym-style episodic environment:

* ``reset()`` samples (or accepts) a group of desired specifications, resets
  the netlist to its initial sizing, runs the simulator once and returns the
  first observation;
* ``step(action)`` applies the ``M``-vector of discrete tuning actions to
  the netlist (the paper's data processor), re-simulates, computes the
  Eq. (1) (or FoM) reward and reports whether the episode terminated (all
  specifications met, or the step budget exhausted — 50 steps for the
  op-amp, 30 for the RF PA).

The same environment class serves the op-amp and the RF PA; only the
benchmark, the simulator, and the reward function differ (see the
environment catalog in :mod:`repro.api.catalog`).

The one episode engine
----------------------
:class:`BatchedCircuitEnv` steps and resets ``N`` :class:`CircuitDesignEnv`
lanes as one batch, and it is the only implementation of the episode loop:
``CircuitDesignEnv.step``/``reset`` are calls into a one-lane engine over the
environment itself (row 0 of a batch of one), and
:class:`repro.parallel.VectorCircuitEnv` is the engine plus a shared
simulation cache.  Each lane's episode state (targets, measured specs, step
count, trajectory, netlist) lives on its :class:`CircuitDesignEnv`, so any
engine over a lane sees what another one left.

* **Built once** (``__init__``): the topology — design space, the knob
  columns of the netlist parameter array, the node-feature scatter, the
  adjacency and the static features.  Lanes that disagree on it raise
  ``ValueError``.  The netlist's non-tunable parameters are read here, once.
* **Read live** on every call: each lane's simulator, reward function and
  ``max_steps``, and the engine's ``autoreset``; swapping one takes effect on
  the next call.
* **One simulation call**: a step or a reset hands the selected lanes'
  netlists to the shared simulator in one
  :func:`~repro.simulation.base.simulate_batch` call (one call per lane, in
  lane order, only when the lanes do not share a simulator).  Every
  simulator and wrapper answers a batch exactly as a loop of ``simulate``
  would, so how lanes are grouped changes no bits.
* **Sequential bookkeeping** in lane order: target and start draws from
  each lane's own ``rng``, rewards and trajectory records; under autoreset
  the finished lanes are reset after every lane has stepped (EnvPool's
  step-then-reset order, Weng et al., NeurIPS 2022).
* **One observation assembly** for every step and reset row.
* **Atomic step errors**: invalid step input raises before any lane's
  state, netlist, trajectory or cache counter changes.  A reset is not
  atomic: a target group that misses a spec raises while the observation is
  assembled, after the lanes were reset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.library.benchmark import CircuitBenchmark
from repro.circuits.netlist import Netlist
from repro.circuits.specs import Objective
from repro.env.data_processor import DataProcessor
from repro.env.reward import FomReward, P2SReward
from repro.env.spaces import NUM_ACTION_CHOICES, ActionSpace, BatchedObservation, Observation
from repro.graph.features import dynamic_parameter_reads
from repro.simulation.base import CircuitSimulator, simulate_batch

RewardFunction = Union[P2SReward, FomReward]

#: Targets accepted by a reset: nothing (each lane samples its own), one
#: group for every lane, or one group per lane.
TargetSpecs = Union[None, Mapping[str, float], Sequence[Mapping[str, float]]]

StepOutput = Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]


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

    ``step`` and ``reset`` run as the one lane of a :class:`BatchedCircuitEnv`
    over this environment (built at first use).

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
        self._engine: Optional[BatchedCircuitEnv] = None

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

    @property
    def engine(self) -> "BatchedCircuitEnv":
        """The one-lane engine over this environment (no autoreset)."""
        if self._engine is None:
            self._engine = BatchedCircuitEnv([self], autoreset=False)
        return self._engine

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
        return self.engine._reset([0], [target_specs], [initial_parameters])[0]

    def step(self, action: np.ndarray) -> tuple[Observation, float, bool, Dict[str, object]]:
        """Apply one action vector; returns ``(observation, reward, done, info)``."""
        batch, rewards, dones, infos = self.engine._step(
            np.asarray(action, dtype=np.int64)[None], [0], False
        )
        return batch[0], float(rewards[0]), bool(dones[0]), infos[0]


def _param_flat_index(netlist: Netlist, device: str, attribute: str) -> int:
    """Index of ``(device, attribute)`` in ``netlist.parameter_array()``.

    ``parameter_array`` walks devices in insertion order and extends each
    device's parameter dict values in *its* insertion order; this mirrors
    that walk.
    """
    offset = 0
    for dev in netlist:
        keys = list(dev.parameters)
        if dev.name == device:
            if attribute not in dev.parameters:
                raise ValueError(f"device '{device}' has no parameter '{attribute}'")
            return offset + keys.index(attribute)
        offset += len(keys)
    raise ValueError(f"netlist has no device '{device}'")


class BatchedCircuitEnv:
    """``N`` :class:`CircuitDesignEnv` lanes stepped and reset as one batch.

    The one episode engine (see the module docstring).

    Parameters
    ----------
    envs:
        The lanes.  All must share one benchmark object and agree on the
        netlist's fixed parameters and graph; they may share a simulator —
        typically one :class:`~repro.parallel.SimulationCache` — so repeated
        candidate evaluations across the batch are simulated once.
    autoreset:
        When True (the default), a lane that finishes its episode during
        :meth:`step` is reset after every lane has stepped; the returned
        observation row is the fresh post-reset observation and the terminal
        observation rides along in ``info["terminal_observation"]``.  When
        False, stepping a finished lane raises, exactly like the sequential
        environment.
    """

    def __init__(self, envs: Sequence[CircuitDesignEnv], autoreset: bool = True) -> None:
        if not envs:
            raise ValueError("VectorCircuitEnv needs at least one sub-environment")
        first = envs[0]
        for env in envs[1:]:
            if env.benchmark.name != first.benchmark.name:
                raise ValueError(
                    "all sub-environments must share one circuit topology, got "
                    f"'{first.benchmark.name}' and '{env.benchmark.name}'"
                )
            if env.num_graph_nodes != first.num_graph_nodes:
                raise ValueError("all sub-environments must share one graph shape")
            if env.benchmark is not first.benchmark:
                raise ValueError("sub-environments must share one benchmark object")
        self.envs: List[CircuitDesignEnv] = list(envs)
        self.autoreset = bool(autoreset)
        self._build_topology()

    def _build_topology(self) -> None:
        """Everything a step or reset reads from the (fixed) circuit topology."""
        envs = self.envs
        first = envs[0]
        self._design_space = first.benchmark.design_space
        parameters = list(self._design_space)
        self._center = self._design_space.center()

        base_netlist = first.data_processor.netlist
        base_row = base_netlist.parameter_array()
        knob_cols = [_param_flat_index(base_netlist, p.device, p.attribute) for p in parameters]
        knob_mask = np.zeros(base_row.shape[0], dtype=bool)
        knob_mask[knob_cols] = True
        fixed = base_row[~knob_mask]
        for env in envs:
            netlist = env.data_processor.netlist
            if netlist.name != base_netlist.name:
                raise ValueError("sub-environments disagree on the netlist name")
            if netlist.parameter_array()[~knob_mask].tobytes() != fixed.tobytes():
                raise ValueError("sub-environments disagree on non-tunable netlist parameters")
        # Per-env (device-parameter dict, key) pairs for the knob writes —
        # Device.set_parameter is a key check plus ``dict[key] = float(v)``,
        # and the keys were checked above, so a direct dict store is identical.
        self._knob_writes = [
            [
                (env.data_processor.netlist.device(p.device).parameters, p.attribute)
                for p in parameters
            ]
            for env in envs
        ]

        spec_space = first.benchmark.spec_space
        self._spec_names = list(spec_space.names)
        # (name, minimum, span, minimize) per spec, for the spec features.
        self._spec_table = [
            (
                spec.name,
                spec.minimum,
                spec.maximum - spec.minimum,
                spec.objective is Objective.MINIMIZE,
            )
            for spec in spec_space
        ]

        graph = first.data_processor.graph
        # Each dynamic node feature reads one netlist parameter, a knob or a
        # fixed one.  The fixed reads are constants of the topology and are
        # scaled into the base once; a step writes only the knob reads.
        read_cols = np.array(
            [
                _param_flat_index(base_netlist, name, key)
                for name in graph.node_names
                for key, _scale, _slot in dynamic_parameter_reads(base_netlist.device(name))
            ],
            dtype=np.intp,
        )
        knob_of_col = {col: index for index, col in enumerate(knob_cols)}
        from_knob = np.array([col in knob_of_col for col in read_cols.tolist()], dtype=bool)
        rows, cols, scales = graph._feature_rows, graph._feature_cols, graph._feature_scales
        self._node_base = graph._base_features.copy()
        self._node_base[rows[~from_knob], cols[~from_knob]] = (
            base_row[read_cols[~from_knob]] * scales[~from_knob]
        )
        self._knob_feature_rows = rows[from_knob]
        self._knob_feature_cols = cols[from_knob]
        self._knob_feature_scales = scales[from_knob]
        self._knob_feature_knobs = np.array(
            [knob_of_col[col] for col in read_cols[from_knob].tolist()], dtype=np.intp
        )
        for env in envs[1:]:
            other = env.data_processor.graph
            if (
                other.node_names != graph.node_names
                or other._base_features.tobytes() != graph._base_features.tobytes()
                or not np.array_equal(other._feature_rows, rows)
                or not np.array_equal(other._feature_cols, cols)
                or other._feature_scales.tobytes() != scales.tobytes()
            ):
                raise ValueError("sub-environments disagree on the circuit graph")
        self._adjacency = first.data_processor.adjacency
        self._static_stack = np.stack([env.data_processor._static_features for env in envs])
        self._all_lanes = list(range(len(envs)))

    # ------------------------------------------------------------------
    # Introspection (mirrors the sequential environment)
    # ------------------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return len(self.envs)

    def __len__(self) -> int:
        return len(self.envs)

    @property
    def benchmark(self):
        return self.envs[0].benchmark

    @property
    def action_space(self):
        return self.envs[0].action_space

    @property
    def max_steps(self) -> int:
        return self.envs[0].max_steps

    @property
    def num_parameters(self) -> int:
        return self.envs[0].num_parameters

    @property
    def spec_feature_dimension(self) -> int:
        return self.envs[0].spec_feature_dimension

    @property
    def node_feature_dimension(self) -> int:
        return self.envs[0].node_feature_dimension

    @property
    def num_graph_nodes(self) -> int:
        return self.envs[0].num_graph_nodes

    @property
    def is_fom_mode(self) -> bool:
        return self.envs[0].is_fom_mode

    @property
    def trajectories(self) -> List[Optional[EpisodeTrajectory]]:
        """Current (or last) trajectory of each sub-environment."""
        return [env.trajectory for env in self.envs]

    @property
    def parameter_values(self) -> np.ndarray:
        """Stacked ``(N, M)`` parameter vectors of the sub-environments."""
        return np.stack([env.parameter_values for env in self.envs])

    # ------------------------------------------------------------------
    # Reset
    # ------------------------------------------------------------------
    def reset(
        self,
        target_specs: TargetSpecs = None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> BatchedObservation:
        """Reset every lane; returns the stacked first observations.

        With a shared :class:`~repro.parallel.SimulationCache` and the
        default ``"center"`` initial sizing, the batch pays for a single
        initial simulation — the remaining ``N - 1`` lanes are cache hits.
        """
        return self.reset_selected(range(self.num_envs), target_specs, initial_parameters)

    def reset_selected(
        self,
        indices: Sequence[int],
        target_specs: TargetSpecs = None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> BatchedObservation:
        """Reset only the lanes named by ``indices``, the counterpart of
        :meth:`step_selected`.

        ``target_specs`` is None (each lane draws its own), one group for
        every selected lane, or one group per selected lane;
        ``initial_parameters`` is None, one ``(M,)`` sizing or one row per
        selected lane.  Rows of the result follow ``indices``.
        """
        lanes = self._selected_lanes(indices)
        count = len(lanes)
        if target_specs is None or isinstance(target_specs, Mapping):
            targets = [target_specs] * count
        else:
            targets = list(target_specs)
            if len(targets) != count:
                raise ValueError(f"expected {count} target groups, got {len(targets)}")
        if initial_parameters is None:
            starts = [None] * count
        else:
            initial = np.asarray(initial_parameters, dtype=np.float64)
            if initial.ndim == 1:
                starts = [initial] * count
            elif initial.ndim == 2 and initial.shape[0] == count:
                starts = list(initial)
            else:
                raise ValueError(
                    f"initial_parameters must be (M,) or ({count}, M), "
                    f"got shape {initial.shape}"
                )
        return self._reset(lanes, targets, starts)

    def _reset(
        self,
        lanes: List[int],
        targets: Sequence[Optional[Mapping[str, float]]],
        starts: Sequence[Optional[np.ndarray]],
    ) -> BatchedObservation:
        """Reset ``lanes``: draws in lane order, one simulation call."""
        envs = [self.envs[lane] for lane in lanes]
        sizings = []
        for env, target, start in zip(envs, targets, starts):
            if target is None:
                target = env.sample_target()
            env._targets = {name: float(value) for name, value in dict(target).items()}
            if start is None:
                if env.initial_sizing == "center":
                    start = self._center
                else:
                    start = self._design_space.sample(env.rng)
            sizings.append(env.data_processor.set_parameters(start))
        results = self._simulate(envs)
        for env, result in zip(envs, results):
            env._measured = dict(result.specs)
            env._step_count = 0
            env._done = False
            env._trajectory = EpisodeTrajectory(target_specs=dict(env._targets))
        return self._observations(
            lanes,
            np.array(sizings),
            [dict(env._measured) for env in envs],
            [dict(env._targets) for env in envs],
        )

    # ------------------------------------------------------------------
    # Step
    # ------------------------------------------------------------------
    def step(self, actions: np.ndarray) -> StepOutput:
        """Apply one ``(N, M)`` action matrix across the batch.

        Returns ``(observations, rewards, dones, infos)`` with rewards and
        dones as ``(N,)`` arrays.  Each row is exactly what the corresponding
        sequential environment would have returned for the same action.
        """
        return self._step(actions, list(range(self.num_envs)), self.autoreset)

    def step_selected(self, indices: Sequence[int], actions: np.ndarray) -> StepOutput:
        """Step only the lanes named by ``indices``.

        ``actions`` rows align with ``indices`` (``actions[row]`` goes to
        lane ``indices[row]``).  Autoreset is *not* applied — a finished lane
        keeps its terminal state, exactly like the sequential environment —
        which is what lock-step batched deployment needs: episodes in one
        micro-batch finish at different steps, and the finished ones must
        simply drop out of the batch.

        ``indices`` must be distinct in-range lane numbers.  Returns
        ``(observations, rewards, dones, infos)`` with one row per requested
        index, in index order; the observations come as one
        :class:`~repro.env.spaces.BatchedObservation` over the selected lanes
        (:meth:`~repro.env.spaces.BatchedObservation.take` narrows it to the
        rows still active).
        """
        return self._step(actions, self._selected_lanes(indices), False)

    def _selected_lanes(self, indices: Sequence[int]) -> List[int]:
        """``indices`` as distinct in-range lane numbers, else ``ValueError``."""
        lanes: List[int] = []
        for index in indices:
            if type(index) is bool or not isinstance(index, (int, np.integer)):
                raise ValueError(f"lane index {index!r} is not an integer")
            if not 0 <= index < self.num_envs:
                raise ValueError(f"lane index {index} is outside [0, {self.num_envs})")
            lanes.append(int(index))
        if not lanes:
            raise ValueError("no sub-environment selected")
        if len(set(lanes)) != len(lanes):
            raise ValueError(f"lane indices must be distinct, got {lanes}")
        return lanes

    def _check_step(self, actions: np.ndarray, envs: List[CircuitDesignEnv]) -> None:
        """Raise for invalid input before the step changes anything."""
        count, num_parameters = len(envs), self.num_parameters
        if actions.shape != (count, num_parameters):
            raise ValueError(
                f"expected actions of shape ({count}, {num_parameters}), "
                f"got {actions.shape}"
            )
        # One comparison covers both bounds: a negative int64 viewed as
        # uint64 is at least 2**63.
        if (actions.view(np.uint64) >= NUM_ACTION_CHOICES).any():
            raise ValueError(
                f"invalid action of shape ({num_parameters},); expected "
                f"({num_parameters},) with entries in [0, 2]"
            )
        names = self._spec_names
        for env in envs:
            if env._done:
                raise RuntimeError("step() called on a finished episode; call reset() first")
        for env in envs:
            missing = [name for name in names if name not in env._targets]
            if missing:
                raise KeyError(f"missing target specifications: {missing}")

    def _step(self, actions: np.ndarray, lanes: List[int], autoreset: bool) -> StepOutput:
        actions = np.asarray(actions, dtype=np.int64)
        envs = [self.envs[lane] for lane in lanes]
        self._check_step(actions, envs)
        count = len(lanes)

        # Snap every selected lane's actions at once, then write each lane's
        # sizing into its netlist before simulating any lane.
        space = self._design_space
        current = np.array([env.data_processor._values for env in envs])
        sizings = space.snap_vector(space.apply_actions(current, actions))
        for row, (lane, values) in enumerate(zip(lanes, sizings.tolist())):
            for (device_parameters, attribute), value in zip(self._knob_writes[lane], values):
                device_parameters[attribute] = value
            envs[row].data_processor._values = sizings[row]
        results = self._simulate(envs)

        # Sequential bookkeeping, in lane order.
        measured_dicts: List[Dict[str, float]] = []
        target_dicts: List[Dict[str, float]] = []
        infos: List[Dict[str, object]] = []
        rewards = np.zeros(count)
        dones = np.zeros(count, dtype=bool)
        for row, (env, result) in enumerate(zip(envs, results)):
            env._step_count += 1
            env._measured = dict(result.specs)
            measured = env._measured
            fom_mode = env.is_fom_mode
            outcome = env.reward_fn(measured, env._targets, valid=result.valid)
            goal_reached = outcome.goal_reached and not fom_mode
            env._done = bool(goal_reached or env._step_count >= env.max_steps)

            assert env._trajectory is not None
            env._trajectory.records.append(
                StepRecord(
                    step=env._step_count,
                    parameters=sizings[row].copy(),
                    specs=dict(measured),
                    reward=outcome.reward,
                    goal_reached=goal_reached,
                )
            )
            info: Dict[str, object] = {
                "step": env._step_count,
                "specs": dict(measured),
                "goal_reached": goal_reached,
                "met_fraction": outcome.met_fraction,
                "normalized_errors": outcome.normalized_errors,
                "simulation_valid": result.valid,
            }
            if fom_mode:
                info["figure_of_merit"] = env.reward_fn.figure_of_merit(measured)
            infos.append(info)
            measured_dicts.append(dict(measured))
            target_dicts.append(dict(env._targets))
            rewards[row] = float(outcome.reward)
            dones[row] = env._done
        batch = self._observations(lanes, sizings, measured_dicts, target_dicts)

        finished = np.flatnonzero(dones) if autoreset else ()
        if len(finished):
            # Every lane has stepped; now the finished ones reset, in lane order.
            fresh = self._reset(
                [lanes[row] for row in finished], [None] * len(finished), [None] * len(finished)
            )
            for row in finished:
                infos[row]["terminal_observation"] = Observation(
                    node_features=batch.node_features[row].copy(),
                    static_node_features=self._static_stack[lanes[row]],
                    adjacency=self._adjacency,
                    spec_features=batch.spec_features[row].copy(),
                    normalized_parameters=batch.normalized_parameters[row].copy(),
                    measured_specs=measured_dicts[row],
                    target_specs=target_dicts[row],
                )
            batch.node_features[finished] = fresh.node_features
            batch.spec_features[finished] = fresh.spec_features
            batch.normalized_parameters[finished] = fresh.normalized_parameters
            for index, row in enumerate(finished):
                measured_dicts[row] = fresh.measured_specs[index]
                target_dicts[row] = fresh.target_specs[index]
        return batch, rewards, dones, infos

    # ------------------------------------------------------------------
    # Shared pieces of the step and the reset
    # ------------------------------------------------------------------
    @staticmethod
    def _simulate(envs: List[CircuitDesignEnv]) -> list:
        """One ``simulate_batch`` call for lanes sharing a simulator."""
        netlists = [env.data_processor.netlist for env in envs]
        simulator = envs[0].simulator
        if all(env.simulator is simulator for env in envs):
            return simulate_batch(simulator, netlists)
        return [
            simulate_batch(env.simulator, [netlist])[0] for env, netlist in zip(envs, netlists)
        ]

    def _observations(
        self,
        lanes: List[int],
        sizings: np.ndarray,
        measured_dicts: List[Dict[str, float]],
        target_dicts: List[Dict[str, float]],
    ) -> BatchedObservation:
        """The observation rows of ``lanes`` at ``(count, M)`` sizings."""
        node_features = self._node_base[None].repeat(len(lanes), 0)
        node_features[:, self._knob_feature_rows, self._knob_feature_cols] = (
            sizings[:, self._knob_feature_knobs] * self._knob_feature_scales
        )
        static = self._static_stack
        return BatchedObservation(
            node_features=node_features,
            static_node_features=static if lanes == self._all_lanes else static[lanes],
            adjacency=self._adjacency,
            spec_features=self._spec_features(measured_dicts, target_dicts),
            normalized_parameters=self._design_space.normalize(sizings),
            measured_specs=measured_dicts,
            target_specs=target_dicts,
        )

    def _spec_features(
        self, measured_dicts: List[Dict[str, float]], target_dicts: List[Dict[str, float]]
    ) -> np.ndarray:
        """The FCNN branch's specification context, one row per lane.

        Concatenates the range-normalized target specs, the range-normalized
        measured specs, and the per-spec clipped normalized error (the same
        quantity the reward uses, :meth:`Specification.normalized_error`).
        A missing or non-finite measured spec gets normalized feature 0.0 and
        error -1.0, the reward's convention.  Plain-float arithmetic: a few
        specs per lane cost less than the fixed overhead of array calls.
        """
        rows = []
        for measured, targets in zip(measured_dicts, target_dicts):
            normalized_targets, normalized_measured, errors = [], [], []
            for name, minimum, span, minimize in self._spec_table:
                target = float(targets[name])
                value = float(measured.get(name, math.nan))
                normalized_targets.append((target - minimum) / span)
                if not math.isfinite(value):
                    normalized_measured.append(0.0)
                    errors.append(-1.0)
                    continue
                normalized_measured.append((value - minimum) / span)
                denominator = abs(value) + abs(target)
                if denominator <= 0.0:
                    errors.append(0.0)
                    continue
                difference = (value - target) / denominator
                errors.append(min(-difference if minimize else difference, 0.0))
            rows.append(normalized_targets + normalized_measured + errors)
        return np.array(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(num_envs={self.num_envs}, "
            f"circuit={self.benchmark.name!r}, autoreset={self.autoreset})"
        )
