"""Vectorized circuit-design environment: N episodes stepped as one batch.

The paper's experiments spend nearly all wall-clock in the environment inner
loop — one simulation plus one policy inference per step per seed.
:class:`VectorCircuitEnv` batches that loop: it owns ``N`` sub-environments
that share one circuit topology and (typically) one memoizing
:class:`~repro.parallel.cache.SimulationCache`, exposes ``reset``/``step``
over stacked action matrices, and assembles
:class:`~repro.env.spaces.BatchedObservation` batches that feed the policy's
batched forward pass.

Parity contract
---------------
Sub-environment ``i`` of ``VectorCircuitEnv.from_env(env, num_envs=k,
seed=s)`` behaves bitwise-identically to a sequential
:class:`~repro.env.circuit_env.CircuitDesignEnv` built with ``seed=s + i``:
observations, rewards, termination flags, info dicts, trajectory records and
shared-cache statistics match exactly.  ``num_envs=1`` therefore *is* the
sequential path.

The one step
------------
:meth:`VectorCircuitEnv.step` and :meth:`~VectorCircuitEnv.step_selected`
run one implementation for every simulator:

* **Built once** (``__init__``): the topology — design space, the knob
  columns of the netlist parameter array, the node-feature scatter, the
  adjacency and the static features.  Sub-environments that disagree on it
  raise ``ValueError``.
* **Read live** on every step: each sub-environment's simulator, reward
  function and ``max_steps``, and the vector env's ``autoreset``; swapping
  one takes effect on the next step.
* **Batched pure work**: action snapping (the design space's vector methods
  are elementwise-equal to the scalar path), the netlist writes and the
  observation arrays.
* **One simulation call**: the selected lanes' netlists go to the shared
  simulator in one :func:`~repro.simulation.base.simulate_batch` call (one
  call per lane, in lane order, only when the lanes do not share a
  simulator).  Every simulator and wrapper answers a batch exactly as a
  loop of ``simulate`` calls would, the shared
  :class:`~repro.parallel.cache.SimulationCache` included (counters and
  LRU order), so how lanes are grouped changes no bits.
* **Sequential bookkeeping** in lane order for everything order-sensitive:
  rewards and trajectory records, then the autoresets, after every lane
  has stepped (EnvPool's step-then-reset order).
* **Atomic errors**: invalid input raises before any lane's state, netlist,
  trajectory or cache counter changes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.specs import Objective
from repro.env.circuit_env import CircuitDesignEnv, EpisodeTrajectory, StepRecord
from repro.env.spaces import NUM_ACTION_CHOICES, BatchedObservation, Observation
from repro.graph.features import dynamic_parameter_reads
from repro.parallel.cache import DEFAULT_CACHE_SIZE, SimulationCache
from repro.simulation.base import simulate_batch

#: Targets accepted by ``reset``: nothing (each sub-env samples its own), one
#: group broadcast to every sub-env, or one group per sub-env.
TargetSpecs = Union[None, Mapping[str, float], Sequence[Mapping[str, float]]]

StepOutput = Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]


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


class VectorCircuitEnv:
    """Batch of :class:`CircuitDesignEnv` instances behind one step interface.

    Parameters
    ----------
    envs:
        Sub-environments.  All must share one benchmark object and agree on
        the netlist's fixed parameters and graph; they may share a simulator
        — typically one :class:`SimulationCache` — so repeated candidate
        evaluations across the batch are simulated once.
    autoreset:
        When True (the default), a sub-environment that finishes its episode
        during :meth:`step` is reset immediately; the returned observation
        row is the fresh post-reset observation and the terminal observation
        rides along in ``info["terminal_observation"]``.  When False,
        stepping a finished sub-environment raises, exactly like the
        sequential environment.
    cache:
        The shared :class:`SimulationCache`, if any, kept for stats
        introspection (``vector_env.cache.stats.hit_rate``).
    """

    # perfbench's train-mna workload is the only reader of ``compiled_plan``,
    # ``fallback_steps`` and ``compiled_fallback_reason``: they keep its
    # checks of the former compiled step working, and go with the next
    # change to perfbench.
    fallback_steps = 0
    compiled_fallback_reason = None

    def __init__(
        self,
        envs: Sequence[CircuitDesignEnv],
        autoreset: bool = True,
        cache: Optional[SimulationCache] = None,
    ) -> None:
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
        self.cache = cache
        self._build_topology()

    def _build_topology(self) -> None:
        """Everything the step reads from the (fixed) circuit topology."""
        envs = self.envs
        first = envs[0]
        self._design_space = first.benchmark.design_space
        parameters = list(self._design_space)

        base_netlist = first.data_processor.netlist
        base_row = base_netlist.parameter_array()
        self._knob_cols = np.array(
            [_param_flat_index(base_netlist, p.device, p.attribute) for p in parameters]
        )
        knob_mask = np.zeros(base_row.shape[0], dtype=bool)
        knob_mask[self._knob_cols] = True
        fixed = base_row[~knob_mask]
        for env in envs:
            netlist = env.data_processor.netlist
            if netlist.name != base_netlist.name:
                raise ValueError("sub-environments disagree on the netlist name")
            if netlist.parameter_array()[~knob_mask].tobytes() != fixed.tobytes():
                raise ValueError("sub-environments disagree on non-tunable netlist parameters")
        self._base_row = base_row
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
        self._spec_minimize = np.array(
            [spec.objective is Objective.MINIMIZE for spec in spec_space]
        )
        self._spec_mins = np.array([spec.minimum for spec in spec_space])
        self._spec_spans = np.array([spec.maximum - spec.minimum for spec in spec_space])

        graph = first.data_processor.graph
        self._node_base = graph._base_features
        self._feature_rows = graph._feature_rows
        self._feature_cols = graph._feature_cols
        self._feature_scales = graph._feature_scales
        self._feature_read_cols = np.array(
            [
                _param_flat_index(base_netlist, name, key)
                for name in graph.node_names
                for key, _scale, _slot in dynamic_parameter_reads(base_netlist.device(name))
            ],
            dtype=np.intp,
        )
        for env in envs[1:]:
            other = env.data_processor.graph
            if (
                other.node_names != graph.node_names
                or other._base_features.tobytes() != self._node_base.tobytes()
                or not np.array_equal(other._feature_rows, self._feature_rows)
                or not np.array_equal(other._feature_cols, self._feature_cols)
                or other._feature_scales.tobytes() != self._feature_scales.tobytes()
            ):
                raise ValueError("sub-environments disagree on the circuit graph")
        self._adjacency = first.data_processor.adjacency
        self._static_stack = np.stack([env.data_processor._static_features for env in envs])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls,
        env: CircuitDesignEnv,
        num_envs: int,
        seed: Optional[int] = None,
        cache_size: Optional[int] = DEFAULT_CACHE_SIZE,
        autoreset: bool = True,
    ) -> "VectorCircuitEnv":
        """Replicate a template environment into an ``num_envs``-wide batch.

        Sub-environment ``i`` receives seed ``seed + i`` (all unseeded when
        ``seed`` is None) and a fresh netlist; the benchmark and reward
        function are shared (both are stateless), and the template's
        simulator is wrapped in one shared :class:`SimulationCache` unless
        ``cache_size`` is None.  The template itself is left untouched.
        """
        if num_envs <= 0:
            raise ValueError("num_envs must be positive")
        simulator = env.simulator
        cache: Optional[SimulationCache] = None
        if cache_size is not None:
            if isinstance(simulator, SimulationCache):
                cache = simulator
            else:
                cache = SimulationCache(simulator, max_entries=cache_size)
                simulator = cache
        envs = [
            CircuitDesignEnv(
                benchmark=env.benchmark,
                simulator=simulator,
                reward_fn=env.reward_fn,
                max_steps=env.max_steps,
                initial_sizing=env.initial_sizing,
                goal_tolerance=env.goal_tolerance,
                seed=None if seed is None else seed + index,
            )
            for index in range(num_envs)
        ]
        return cls(envs, autoreset=autoreset, cache=cache)

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

    @property
    def compiled_plan(self) -> "VectorCircuitEnv":
        """This env (see the note on :attr:`fallback_steps`)."""
        return self

    # ------------------------------------------------------------------
    # Episode control
    # ------------------------------------------------------------------
    def _per_env_targets(self, target_specs: TargetSpecs) -> List[Optional[Mapping[str, float]]]:
        if target_specs is None:
            return [None] * self.num_envs
        if isinstance(target_specs, Mapping):
            return [target_specs] * self.num_envs
        targets = list(target_specs)
        if len(targets) != self.num_envs:
            raise ValueError(
                f"expected {self.num_envs} target groups, got {len(targets)}"
            )
        return targets

    def _per_env_parameters(
        self, initial_parameters: Optional[np.ndarray]
    ) -> List[Optional[np.ndarray]]:
        if initial_parameters is None:
            return [None] * self.num_envs
        initial = np.asarray(initial_parameters, dtype=np.float64)
        if initial.ndim == 1:
            return [initial] * self.num_envs
        if initial.ndim == 2 and initial.shape[0] == self.num_envs:
            return [initial[index] for index in range(self.num_envs)]
        raise ValueError(
            f"initial_parameters must be (M,) or ({self.num_envs}, M), "
            f"got shape {initial.shape}"
        )

    def reset(
        self,
        target_specs: TargetSpecs = None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> BatchedObservation:
        """Reset every sub-environment; returns the stacked first observations.

        With the shared :class:`SimulationCache` and the default ``"center"``
        initial sizing, the batch pays for a single initial simulation — the
        remaining ``N - 1`` resets are cache hits.
        """
        targets = self._per_env_targets(target_specs)
        parameters = self._per_env_parameters(initial_parameters)
        observations = [
            env.reset(target_specs=target, initial_parameters=params)
            for env, target, params in zip(self.envs, targets, parameters)
        ]
        return BatchedObservation.stack(observations)

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
        """Step only the sub-environments named by ``indices``.

        ``actions`` rows align with ``indices`` (``actions[row]`` goes to
        sub-environment ``indices[row]``).  Autoreset is *not* applied —
        a finished sub-environment keeps its terminal state, exactly like the
        sequential environment — which is what lock-step batched deployment
        needs: episodes in one micro-batch finish at different steps, and the
        finished ones must simply drop out of the batch.

        ``indices`` must be distinct in-range lane numbers.  Returns
        ``(observations, rewards, dones, infos)`` with one row per requested
        index, in index order; the observations come as one
        :class:`~repro.env.spaces.BatchedObservation` over the selected
        sub-environments (:meth:`~repro.env.spaces.BatchedObservation.take`
        narrows it to the rows still active).
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
            raise ValueError("no sub-environment selected to step")
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
        if bool(np.any(actions < 0)) or bool(np.any(actions >= NUM_ACTION_CHOICES)):
            raise ValueError(
                f"invalid action of shape ({num_parameters},); expected "
                f"({num_parameters},) with entries in [0, 2]"
            )
        if any(env._done for env in envs):
            raise RuntimeError("step() called on a finished episode; call reset() first")
        for env in envs:
            missing = [name for name in self._spec_names if name not in env._targets]
            if missing:
                raise KeyError(f"missing target specifications: {missing}")

    def _step(self, actions: np.ndarray, lanes: List[int], autoreset: bool) -> StepOutput:
        actions = np.asarray(actions, dtype=np.int64)
        envs = [self.envs[lane] for lane in lanes]
        self._check_step(actions, envs)
        count = len(lanes)

        # --- batched pure math ----------------------------------------
        # _values is the processor's own cache of the last written vector
        # (always set once the episode has been reset); np.stack copies, so
        # reading it directly skips one defensive copy per env.
        current = np.stack(
            [
                env.data_processor._values
                if env.data_processor._values is not None
                else env.data_processor.parameter_values
                for env in envs
            ]
        )
        space = self._design_space
        snapped = space.snap_vector(space.apply_actions(current, actions))
        rows = np.tile(self._base_row, (count, 1))
        rows[:, self._knob_cols] = snapped
        # Write every selected lane's sizing before simulating any lane.
        step_values: List[np.ndarray] = []
        for row, lane in enumerate(lanes):
            values = snapped[row].copy()
            for (device_parameters, attribute), value in zip(
                self._knob_writes[lane], values.tolist()
            ):
                device_parameters[attribute] = value
            self.envs[lane].data_processor._values = values
            step_values.append(values)

        # --- one simulate_batch call for the selected lanes -------------
        netlists = [env.data_processor.netlist for env in envs]
        simulator = envs[0].simulator
        if all(env.simulator is simulator for env in envs):
            results = simulate_batch(simulator, netlists)
        else:
            results = [
                simulate_batch(env.simulator, [netlist])[0]
                for env, netlist in zip(envs, netlists)
            ]

        # --- sequential bookkeeping (order-sensitive state) -----------
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
                    parameters=step_values[row].copy(),
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
        # Autoresets run after every lane has stepped, in lane order.
        reset_observations: List[Optional[Observation]] = [
            env.reset() if env._done and autoreset else None for env in envs
        ]

        # --- batched observation assembly -----------------------------
        node_features = np.broadcast_to(
            self._node_base, (count,) + self._node_base.shape
        ).copy()
        node_features[:, self._feature_rows, self._feature_cols] = (
            rows[:, self._feature_read_cols] * self._feature_scales
        )
        spec_features = self._spec_features(measured_dicts, target_dicts)
        normalized_parameters = space.normalize(snapped)
        for row, reset_observation in enumerate(reset_observations):
            if reset_observation is None:
                continue
            processor = envs[row].data_processor
            infos[row]["terminal_observation"] = Observation(
                node_features=node_features[row].copy(),
                static_node_features=processor._static_features,
                adjacency=processor.adjacency,
                spec_features=spec_features[row].copy(),
                normalized_parameters=normalized_parameters[row].copy(),
                measured_specs=measured_dicts[row],
                target_specs=target_dicts[row],
            )
            node_features[row] = reset_observation.node_features
            spec_features[row] = reset_observation.spec_features
            normalized_parameters[row] = reset_observation.normalized_parameters
            measured_dicts[row] = dict(reset_observation.measured_specs)
            target_dicts[row] = dict(reset_observation.target_specs)

        batched = BatchedObservation(
            node_features=node_features,
            static_node_features=self._static_stack[lanes],
            adjacency=self._adjacency,
            spec_features=spec_features,
            normalized_parameters=normalized_parameters,
            measured_specs=measured_dicts,
            target_specs=target_dicts,
        )
        return batched, rewards, dones, infos

    def _spec_features(
        self, measured_dicts: List[Dict[str, float]], target_dicts: List[Dict[str, float]]
    ) -> np.ndarray:
        """Rows of ``DataProcessor.spec_feature_vector``, computed as arrays.

        A missing or non-finite measured spec gets normalized feature 0.0 and
        error -1.0 (the reward's convention); finite specs go through the
        same float64 operations as the scalar path.
        """
        names = self._spec_names
        measured = np.array(
            [[float(values.get(name, math.nan)) for name in names] for values in measured_dicts]
        )
        targets = np.array([[float(values[name]) for name in names] for values in target_dicts])
        finite = np.isfinite(measured)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denominator = np.abs(measured) + np.abs(targets)
            difference = (measured - targets) / denominator
            normalized_measured = (measured - self._spec_mins) / self._spec_spans
        difference = np.where(self._spec_minimize, -difference, difference)
        clipped = np.where(difference > 0.0, 0.0, difference)
        errors = np.where(denominator <= 0.0, 0.0, clipped)
        return np.concatenate(
            [
                (targets - self._spec_mins) / self._spec_spans,
                np.where(finite, normalized_measured, 0.0),
                np.where(finite, errors, -1.0),
            ],
            axis=-1,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"VectorCircuitEnv(num_envs={self.num_envs}, "
            f"circuit={self.benchmark.name!r}, autoreset={self.autoreset})"
        )
