"""The pre-layout circuit design environment (Fig. 2 of the paper).

:class:`CircuitDesignEnv` is a gym-style episodic environment:

* ``reset()`` samples (or accepts) a group of desired specifications, resets
  the netlist to its initial sizing, runs the simulator once and returns the
  first observation;
* ``step(action)`` applies the ``M``-vector of discrete tuning actions to
  the netlist, re-simulates, computes the Eq. (1) (or FoM) reward and
  reports whether the episode terminated (all specifications met, or the
  step budget exhausted — 50 steps for the op-amp, 30 for the RF PA).

The paper's "data processor" (Fig. 2) — rewriting the netlist from the
actions and turning measured specs into rewards and state features — is the
episode engine below.

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
simulation cache.

* **Lane state** has one home, its :class:`CircuitDesignEnv`: the working
  netlist and the sizing last written into it, the targets, the measured
  specs, the step count and the trajectory.  Any engine over a lane sees
  what another one left (``PPOTrainer`` evaluates on ``envs[0]`` through
  its own one-lane engine).
* **Built once per engine** (``__init__``), from the first lane's netlist:
  the topology — design space, the knob columns of the netlist parameter
  array, the circuit graph with its node-feature scatter, adjacency and
  static features.  The other lanes are only checked against it: a lane
  with another benchmark object, another device list or edited non-tunable
  parameters raises ``ValueError``.  The non-tunable parameters are the base
  row of every step's ``(B, P)`` parameter rows.
* **Read live** on every call: each lane's simulator, reward function and
  ``max_steps``, and the engine's ``autoreset``; swapping one takes effect on
  the next call.
* **One simulation call**: a step or a reset hands the selected lanes'
  ``(B, P)`` parameter rows, with the topology's
  :class:`~repro.circuits.netlist.ParameterLayout`, to the shared simulator
  in one ``simulate_rows`` call (one call per lane, in lane order, only
  when the lanes do not share a simulator); no simulator reads a netlist
  back.  Every simulator and wrapper answers a batch exactly as a loop of
  one-row calls would, so how lanes are grouped changes no bits.
* **Sequential bookkeeping** in lane order: target and start draws from
  each lane's own ``rng``, one :func:`~repro.env.reward.error_pass` per
  lane (its spec features and, for a P2S reward that does not override
  ``__call__``, its reward; the reset holds the lane's normalized targets
  for the episode), rewards and trajectory records; under autoreset
  the finished lanes are reset after every lane has stepped (EnvPool's
  step-then-reset order, Weng et al., NeurIPS 2022).
* **One observation assembly** for every step and reset row.
* **No object the engine hands out is one it reads again.**  Each
  lane-step copies the measured specs twice: the lane keeps one
  (``env._measured``) and hands out the other, shared by the trajectory's
  :class:`StepRecord`, ``info["specs"]`` and the observation row.  An
  observation's target dict is its episode's ``trajectory.target_specs``.
  Node features, spec features and normalized parameters are fresh arrays
  every call; the adjacency and the static node features are the engine's
  own and read-only.
* **Atomic step errors**: invalid step input raises before any lane's
  state, netlist, trajectory or cache counter changes.  So does a reset's
  malformed or NaN start sizing (±inf is clipped onto the bound).  A reset
  is otherwise not atomic: a target group that misses a spec raises while
  the observation is assembled, after the lanes were reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.library.benchmark import CircuitBenchmark
from repro.circuits.netlist import Netlist
from repro.env.reward import FomReward, P2SReward, error_pass, spec_table
from repro.env.spaces import NUM_ACTION_CHOICES, ActionSpace, BatchedObservation, Observation
from repro.graph.circuit_graph import CircuitGraph
from repro.graph.features import dynamic_parameter_reads, feature_dimension
from repro.simulation.base import CircuitSimulator

RewardFunction = Union[P2SReward, FomReward]

#: A lane whose reward function runs this ``__call__`` (a P2S reward, or a
#: subclass that does not override it) is scored from the step's own error
#: pass; any other reward function is called.
_P2S_CALL = P2SReward.__call__

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
        # The sizing last written into the netlist (snapped onto the grid).
        self._values = benchmark.design_space.vector_from_netlist(self._netlist)
        self._targets: Dict[str, float] = {}
        # The targets in spec order and range-normalized (the first third of
        # the spec features), set by the reset; None while a spec is missing.
        self._target_values: Optional[List[float]] = None
        self._target_features: Optional[List[float]] = None
        self._measured: Dict[str, float] = {}
        self._step_count = 0
        self._done = True
        self._trajectory: Optional[EpisodeTrajectory] = None
        self._engine: Optional[BatchedCircuitEnv] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def netlist(self) -> Netlist:
        """The lane's working netlist, rewritten in place by every step and reset."""
        return self._netlist

    @property
    def num_parameters(self) -> int:
        return self.benchmark.num_parameters

    @property
    def spec_feature_dimension(self) -> int:
        """Length of an observation's spec features (3 entries per specification)."""
        return 3 * len(self.benchmark.spec_space)

    @property
    def node_feature_dimension(self) -> int:
        return feature_dimension()

    @property
    def num_graph_nodes(self) -> int:
        """Nodes of the full-topology circuit graph: one per device."""
        return len(self._netlist)

    @property
    def target_specs(self) -> Dict[str, float]:
        return dict(self._targets)

    @property
    def measured_specs(self) -> Dict[str, float]:
        return dict(self._measured)

    @property
    def parameter_values(self) -> np.ndarray:
        return self._values.copy()

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
        return self.engine.reset_selected([0], target_specs, initial_parameters)[0]

    def step(self, action: np.ndarray) -> tuple[Observation, float, bool, Dict[str, object]]:
        """Apply one action vector; returns ``(observation, reward, done, info)``."""
        batch, rewards, dones, infos = self.engine._step(
            np.asarray(action, dtype=np.int64)[None], [0], False
        )
        return batch[0], float(rewards[0]), bool(dones[0]), infos[0]


def _device_layout(netlist: Netlist) -> List[tuple]:
    """A netlist's structure without its values: each device's name, type,
    terminals and parameter keys, in order (what the graph and the
    parameter-array layout are built from)."""
    return [
        (device.name, device.dtype, device.terminals, list(device.parameters))
        for device in netlist
    ]


class BatchedCircuitEnv:
    """``N`` :class:`CircuitDesignEnv` lanes stepped and reset as one batch.

    The one episode engine (see the module docstring).

    Parameters
    ----------
    envs:
        The lanes.  All must share one benchmark object, device list and
        non-tunable netlist parameters; they may share a simulator —
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
            raise ValueError(f"{type(self).__name__} needs at least one sub-environment")
        first = envs[0]
        for env in envs[1:]:
            if env.benchmark.name != first.benchmark.name:
                raise ValueError(
                    "all sub-environments must share one circuit topology, got "
                    f"'{first.benchmark.name}' and '{env.benchmark.name}'"
                )
            if env.benchmark is not first.benchmark:
                raise ValueError("sub-environments must share one benchmark object")
        self.envs: List[CircuitDesignEnv] = list(envs)
        self.autoreset = bool(autoreset)
        self._build_topology()

    def _build_topology(self) -> None:
        """Everything a step or reset reads from the (fixed) circuit topology.

        Built once, from the first lane's netlist; every other lane is only
        checked against it.
        """
        envs = self.envs
        first = envs[0]
        self._design_space = first.benchmark.design_space
        parameters = list(self._design_space)
        self._center = self._design_space.center()

        base_netlist = first.netlist
        base_row = base_netlist.parameter_array()
        self._layout = layout = base_netlist.layout
        knob_cols = layout.columns(tuple((p.device, p.attribute) for p in parameters))
        # A step's parameter rows are this base with the knob columns
        # written: what each lane's ``parameter_array()`` reads back.
        self._base_row = base_row
        self._knob_cols = knob_cols
        knob_mask = np.zeros(base_row.shape[0], dtype=bool)
        knob_mask[knob_cols] = True
        fixed = base_row[~knob_mask].tobytes()
        structure = _device_layout(base_netlist)
        for env in envs[1:]:
            netlist = env.netlist
            if netlist.name != base_netlist.name:
                raise ValueError("sub-environments disagree on the netlist name")
            if _device_layout(netlist) != structure:
                raise ValueError("sub-environments disagree on the circuit graph")
            if netlist.parameter_array()[~knob_mask].tobytes() != fixed:
                raise ValueError("sub-environments disagree on non-tunable netlist parameters")
        # Per-env (device-parameter dict, key) pairs for the knob writes —
        # Device.set_parameter is a key check plus ``dict[key] = float(v)``,
        # and the keys were checked above, so a direct dict store is identical.
        self._knob_writes = [
            [(env.netlist.device(p.device).parameters, p.attribute) for p in parameters]
            for env in envs
        ]

        self._spec_space = first.benchmark.spec_space
        self._spec_names = list(self._spec_space.names)
        self._spec_table = spec_table(self._spec_space)

        graph = CircuitGraph(base_netlist)
        # Each dynamic node feature reads one netlist parameter, a knob or a
        # fixed one.  The fixed reads are constants of the topology and are
        # scaled into the base once; a step writes only the knob reads.
        read_cols = layout.columns(
            tuple(
                (name, key)
                for name in graph.node_names
                for key, _scale, _slot in dynamic_parameter_reads(base_netlist.device(name))
            )
        )
        knob_of_col = {col: index for index, col in enumerate(knob_cols.tolist())}
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
        # Handed out with every observation, so read-only: one adjacency
        # object per engine keeps identity-keyed operator caches (e.g.
        # ``GraphEncoder``) warm.
        self._adjacency = graph.adjacency_matrix
        self._static_stack = graph.static_feature_matrix()[None].repeat(len(envs), 0)
        self._adjacency.flags.writeable = False
        self._static_stack.flags.writeable = False
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
        selected lane; a malformed or NaN start raises ``ValueError`` before
        any lane changes (±inf is clipped onto the bound).  Rows of the
        result follow ``indices``.
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
            if not (initial.ndim == 1 or (initial.ndim == 2 and initial.shape[0] == count)):
                raise ValueError(
                    f"initial_parameters must be (M,) or ({count}, M), "
                    f"got shape {initial.shape}"
                )
            if initial.shape[-1] != self.num_parameters:
                raise ValueError(
                    "expected initial_parameters with last axis of length "
                    f"{self.num_parameters}, got shape {initial.shape}"
                )
            if np.isnan(initial).any():
                raise ValueError("initial_parameters contains NaN")
            starts = [initial] * count if initial.ndim == 1 else list(initial)
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
            self._hold_targets(env)
            if start is None:
                if env.initial_sizing == "center":
                    start = self._center
                else:
                    start = self._design_space.sample(env.rng)
            env._values = self._design_space.apply_to_netlist(env._netlist, start)
            sizings.append(env._values)
        sizings = np.array(sizings)
        results = self._simulate(envs, sizings)
        for env, result in zip(envs, results):
            env._measured = dict(result.specs)
            env._step_count = 0
            env._done = False
            env._trajectory = EpisodeTrajectory(target_specs=dict(env._targets))
        spec_rows = []
        for env in envs:
            if env._target_features is None:
                # The per-environment reset raised here too: after the lanes
                # were reset, naming the first missing spec.
                raise KeyError(next(name for name in self._spec_names if name not in env._targets))
            features = error_pass(self._spec_table, env._measured, env._target_values)[1]
            spec_rows.append(env._target_features + features)
        return self._observations(
            lanes,
            sizings,
            [dict(env._measured) for env in envs],
            [env._trajectory.target_specs for env in envs],
            spec_rows,
        )

    def _hold_targets(self, env: CircuitDesignEnv) -> None:
        """Hold ``env``'s targets in spec order and range-normalized for its episode."""
        targets = env._targets
        if all(name in targets for name in self._spec_names):
            env._target_values = [targets[name] for name in self._spec_names]
            env._target_features = [
                (target - minimum) / span
                for target, (_, minimum, span, _) in zip(env._target_values, self._spec_table)
            ]
        else:
            env._target_values = env._target_features = None

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
        for env in envs:
            if env._done:
                raise RuntimeError("step() called on a finished episode; call reset() first")
        for env in envs:
            if env._target_values is None:
                missing = [name for name in self._spec_names if name not in env._targets]
                raise KeyError(f"missing target specifications: {missing}")

    def _step(self, actions: np.ndarray, lanes: List[int], autoreset: bool) -> StepOutput:
        actions = np.asarray(actions, dtype=np.int64)
        envs = [self.envs[lane] for lane in lanes]
        self._check_step(actions, envs)
        count = len(lanes)

        # Apply (and snap) every selected lane's actions at once, then write
        # each lane's sizing into its netlist before simulating any lane.
        sizings = self._design_space.apply_actions(np.array([env._values for env in envs]), actions)
        for row, (lane, values) in enumerate(zip(lanes, sizings.tolist())):
            for (device_parameters, attribute), value in zip(self._knob_writes[lane], values):
                device_parameters[attribute] = value
            envs[row]._values = sizings[row]
        results = self._simulate(envs, sizings)

        # Sequential bookkeeping, in lane order.  One error pass per lane
        # gives its spec features and, for a P2S reward that does not
        # override ``__call__``, its reward.  The lane keeps its measured
        # specs; one copy is handed out, to the record, info and observation.
        table, spec_space = self._spec_table, self._spec_space
        measured_dicts: List[Dict[str, float]] = []
        target_dicts: List[Dict[str, float]] = []
        spec_rows: List[List[float]] = []
        infos: List[Dict[str, object]] = []
        rewards = np.zeros(count)
        dones = np.zeros(count, dtype=bool)
        for row, (env, result) in enumerate(zip(envs, results)):
            env._step_count += 1
            env._measured = measured = dict(result.specs)
            handed = dict(measured)
            fom_mode = env.is_fom_mode
            errors, features, raw, goal_reached, met, complete = error_pass(
                table, measured, env._target_values
            )
            spec_rows.append(env._target_features + features)
            reward_fn = env.reward_fn
            if type(reward_fn).__call__ is _P2S_CALL and reward_fn.spec_space is spec_space:
                outcome = reward_fn.outcome(errors, raw, goal_reached, met, complete, result.valid)
            else:
                outcome = reward_fn(measured, env._targets, valid=result.valid)
            goal_reached = outcome.goal_reached and not fom_mode
            env._done = bool(goal_reached or env._step_count >= env.max_steps)

            trajectory = env._trajectory
            assert trajectory is not None
            trajectory.records.append(
                StepRecord(
                    step=env._step_count,
                    parameters=sizings[row].copy(),
                    specs=handed,
                    reward=outcome.reward,
                    goal_reached=goal_reached,
                )
            )
            info: Dict[str, object] = {
                "step": env._step_count,
                "specs": handed,
                "goal_reached": goal_reached,
                "met_fraction": outcome.met_fraction,
                "normalized_errors": outcome.normalized_errors,
                "simulation_valid": result.valid,
            }
            if fom_mode:
                info["figure_of_merit"] = env.reward_fn.figure_of_merit(measured)
            infos.append(info)
            measured_dicts.append(handed)
            target_dicts.append(trajectory.target_specs)
            rewards[row] = float(outcome.reward)
            dones[row] = env._done
        batch = self._observations(lanes, sizings, measured_dicts, target_dicts, spec_rows)

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
    def _simulate(self, envs: List[CircuitDesignEnv], sizings: np.ndarray) -> list:
        """One simulation call for lanes sharing a simulator.

        The lanes' ``(count, P)`` parameter rows are the fixed-parameter base
        row with the knob columns set to ``sizings``: no simulator reads a
        netlist back.
        """
        rows = self._base_row[None].repeat(len(envs), 0)
        rows[:, self._knob_cols] = sizings
        layout = self._layout
        simulator = envs[0].simulator
        if all(env.simulator is simulator for env in envs):
            return simulator.simulate_rows(layout, rows)
        return [
            env.simulator.simulate_rows(layout, rows[row : row + 1])[0]
            for row, env in enumerate(envs)
        ]

    def _observations(
        self,
        lanes: List[int],
        sizings: np.ndarray,
        measured_dicts: List[Dict[str, float]],
        target_dicts: List[Dict[str, float]],
        spec_rows: List[List[float]],
    ) -> BatchedObservation:
        """The observation rows of ``lanes`` at ``(count, M)`` sizings.

        ``spec_rows`` are the lanes' spec features (the FCNN branch's
        specification context): the range-normalized targets held from the
        reset, then the range-normalized measured specs and the clipped
        normalized errors of the lane's :func:`~repro.env.reward.error_pass`.
        """
        node_features = self._node_base[None].repeat(len(lanes), 0)
        node_features[:, self._knob_feature_rows, self._knob_feature_cols] = (
            sizings[:, self._knob_feature_knobs] * self._knob_feature_scales
        )
        static = self._static_stack
        return BatchedObservation(
            node_features=node_features,
            static_node_features=static if lanes == self._all_lanes else static[lanes],
            adjacency=self._adjacency,
            spec_features=np.array(spec_rows),
            normalized_parameters=self._design_space.normalize(sizings),
            measured_specs=measured_dicts,
            target_specs=target_dicts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(num_envs={self.num_envs}, "
            f"circuit={self.benchmark.name!r}, autoreset={self.autoreset})"
        )
