"""Compiled per-topology episode plan for the vectorized environment.

:class:`CompiledEpisodePlan` replaces ``VectorCircuitEnv.step``'s per-env
Python loop (``K`` × [action snap → netlist rewrite → simulate → reward →
observation]) with a handful of batched array operations plus one slim
sequential bookkeeping pass, while producing **bitwise-identical** episode
trajectories — observations, rewards, done flags, info dicts, trajectory
records, and shared-cache statistics all match the interpreted path exactly.

How the parity is kept
----------------------
* **Physics**: the step simulates through the simulator's own
  ``simulate_batch`` (the exact types in
  :data:`~repro.simulation.BATCHED_SIMULATOR_TYPES`), which loops its lanes
  through the scalar ``operating_point`` and sweeps the MNA lanes in one
  stacked plan; each lane is bitwise ``simulate`` of that lane's netlist, so
  there is nothing to probe.  Any other simulator type, subclasses included
  (an override could change the arithmetic), raises
  :class:`UntraceableError`.
* **Action math**: :class:`~repro.circuits.parameters.DesignSpace`'s vector
  methods are already elementwise-equal to the scalar path, so the batched
  double-snap (``snap_vector(apply_actions(...))``) reproduces the
  interpreted ``apply_actions`` → ``apply_to_netlist`` sequence.
* **Cache semantics**: the shared :class:`SimulationCache` is replayed
  entry-for-entry in env order — hit/miss/eviction counters, LRU order and
  the *cached* spec dicts (which may be quantized-equal but not bitwise-equal
  to a fresh simulation) are exactly what the interpreted loop would produce.
  Keys are computed vectorized with the cache's own binary-mantissa
  quantization.
* **Interleaving**: the interpreted loop fully processes env ``i`` —
  including an autoreset's simulator/cache traffic — before env ``i+1``.
  The compiled step therefore does the *pure* work batched — action math,
  the netlist writes and cache keys up front; the simulation up front when
  there is no cache, else at a lane's cache miss, together with every later
  lane not cached at that moment — and runs one sequential bookkeeping loop
  in env order for everything that is order-sensitive (cache ops,
  trajectory records, inline interpreted resets).
* **Subset steps**: ``step(actions, indices)`` steps only the selected lanes
  (``VectorCircuitEnv.step_selected``, the lock-step deployment step).
  Simulation, cache replay, trajectory records, rewards, infos and
  observations cover the selected lanes only, in index order.
* **Degrades gracefully, never wrongly**: any precondition the batched path
  cannot honor exactly — a finished selected lane, malformed or
  out-of-range actions or lane indices, an incomplete target group — routes
  the *whole* step to the interpreted implementation, which reproduces the
  exact partial mutations and exceptions of the sequential contract.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.specs import Objective
from repro.circuits.netlist import Netlist
from repro.compile.errors import UntraceableError
from repro.env.circuit_env import StepRecord
from repro.env.reward import P2SReward, RewardOutcome
from repro.env.spaces import BatchedObservation, Observation
from repro.parallel.cache import SimulationCache
from repro.simulation import BATCHED_SIMULATOR_TYPES
from repro.simulation.base import SimulationResult


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
                raise UntraceableError(
                    f"device '{device}' has no parameter '{attribute}'"
                )
            return offset + keys.index(attribute)
        offset += len(keys)
    raise UntraceableError(f"netlist has no device '{device}'")


class _SpecMath:
    """Baked per-spec constants for the vectorized observation math."""

    def __init__(self, spec_space) -> None:
        self.space = spec_space
        self.names: List[str] = list(spec_space.names)
        self.minimize = np.array(
            [spec.objective is Objective.MINIMIZE for spec in spec_space]
        )
        self.mins = np.array([spec.minimum for spec in spec_space])
        self.spans = np.array([spec.maximum - spec.minimum for spec in spec_space])

    def matrix(self, dicts: List[Dict[str, float]]) -> np.ndarray:
        return np.array([[float(values[name]) for name in self.names] for values in dicts])

    def normalize(self, matrix: np.ndarray) -> np.ndarray:
        """Twin of ``SpecificationSpace.normalize`` over stacked rows."""
        return (matrix - self.mins) / self.spans

    def raw_errors(self, measured: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Twin of ``SpecificationSpace.normalized_errors`` (non-defensive)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            denominator = np.abs(measured) + np.abs(targets)
            difference = (measured - targets) / denominator
        difference = np.where(self.minimize, -difference, difference)
        clipped = np.where(difference > 0.0, 0.0, difference)
        return np.where(denominator <= 0.0, 0.0, clipped)


class CompiledEpisodePlan:
    """One vector env's compiled step, bound to its sub-environments.

    Raises :class:`UntraceableError` from the constructor when any part of
    the configuration has no exact batched twin; the caller (the
    :class:`~repro.compile.plan_cache.PlanCache` inside
    ``VectorCircuitEnv``) then falls back to the interpreted step for good.
    """

    def __init__(self, vector_env) -> None:
        envs = list(vector_env.envs)
        # The vector env owns this plan (through its PlanCache); a strong
        # back-reference would make the pair a cycle that outlives its last
        # user until the cyclic garbage collector happens to run.
        self._vector_env = weakref.proxy(vector_env)
        self._envs = envs
        self.num_envs = len(envs)
        self._all_lanes = list(range(self.num_envs))
        self.steps_compiled = 0
        self.fallback_steps = 0
        self.last_fallback_reason: Optional[str] = None

        first = envs[0]
        benchmark = first.benchmark
        for env in envs:
            if env.benchmark is not benchmark:
                raise UntraceableError("sub-environments must share one benchmark object")
            if env.simulator is not first.simulator:
                raise UntraceableError("sub-environments must share one simulator object")
            if env.reward_fn is not first.reward_fn:
                raise UntraceableError("sub-environments must share one reward function")
        self._design_space = benchmark.design_space
        self._parameters = list(self._design_space)
        self.num_parameters = len(self._parameters)

        # --- simulator / cache resolution -----------------------------
        simulator = first.simulator
        if type(simulator) is SimulationCache:
            self._cache: Optional[SimulationCache] = simulator
            inner = simulator.simulator
        elif isinstance(simulator, SimulationCache):
            raise UntraceableError(
                f"cannot replay cache subclass {type(simulator).__name__} exactly"
            )
        else:
            self._cache = None
            inner = simulator
        if type(inner) not in BATCHED_SIMULATOR_TYPES:
            raise UntraceableError(
                f"no compiled kernel for simulator type {type(inner).__name__}"
            )
        self._simulate_batch = inner.simulate_batch

        # --- parameter layout -----------------------------------------
        base_netlist = first.data_processor.netlist
        self._name_bytes = base_netlist.name.encode()
        base_row = base_netlist.parameter_array()
        self._knob_cols = np.array(
            [
                _param_flat_index(base_netlist, p.device, p.attribute)
                for p in self._parameters
            ]
        )
        knob_mask = np.zeros(base_row.shape[0], dtype=bool)
        knob_mask[self._knob_cols] = True
        fixed = base_row[~knob_mask]
        for env in envs:
            row = env.data_processor.netlist.parameter_array()
            if row[~knob_mask].tobytes() != fixed.tobytes():
                raise UntraceableError(
                    "sub-environments disagree on non-tunable netlist parameters"
                )
            if env.data_processor.netlist.name != base_netlist.name:
                raise UntraceableError("sub-environments disagree on the netlist name")
        self._base_row = base_row
        # Per-env (device-parameter dict, key) pairs for the knob writes —
        # Device.set_parameter is a key check plus ``dict[key] = float(v)``,
        # so with keys validated here a direct dict store is identical.
        self._knob_writes = []
        for env in envs:
            writes = []
            for parameter in self._parameters:
                device = env.data_processor.netlist.device(parameter.device)
                if parameter.attribute not in device.parameters:
                    raise UntraceableError(
                        f"device '{parameter.device}' has no parameter "
                        f"'{parameter.attribute}'"
                    )
                writes.append((device.parameters, parameter.attribute))
            self._knob_writes.append(writes)

        self._obs_specs = _SpecMath(benchmark.spec_space)
        self._reward_fn = first.reward_fn
        self._is_fom_mode = first.is_fom_mode

        # --- graph feature scatter -------------------------------------
        graph = first.data_processor.graph
        self._node_base = graph._base_features
        self._feature_rows = graph._feature_rows
        self._feature_cols = graph._feature_cols
        self._feature_scales = graph._feature_scales
        from repro.graph.features import dynamic_parameter_reads

        read_cols: List[int] = []
        for name in graph.node_names:
            device = base_netlist.device(name)
            for key, _scale, _slot in dynamic_parameter_reads(device):
                read_cols.append(_param_flat_index(base_netlist, name, key))
        if len(read_cols) != len(self._feature_rows):
            raise UntraceableError("node-feature read plan does not match the graph")
        self._feature_read_cols = np.array(read_cols)
        for env in envs[1:]:
            other = env.data_processor.graph
            if (
                other.node_names != graph.node_names
                or other._base_features.tobytes() != self._node_base.tobytes()
                or not np.array_equal(other._feature_rows, self._feature_rows)
                or not np.array_equal(other._feature_cols, self._feature_cols)
                or other._feature_scales.tobytes() != self._feature_scales.tobytes()
            ):
                raise UntraceableError("sub-environments disagree on the circuit graph")

        self._adjacency = first.data_processor.adjacency
        self._static_stack = np.stack(
            [env.data_processor._static_features for env in envs]
        )

    # ------------------------------------------------------------------
    # Step
    # ------------------------------------------------------------------
    def _fallback(self, actions, indices, reason: str):
        self.fallback_steps += 1
        self.last_fallback_reason = reason
        return self._vector_env._step_interpreted(actions, indices)

    def _selected_lanes(self, indices: Sequence[int]) -> Optional[List[int]]:
        """``indices`` as distinct in-range lane numbers, else ``None``.

        Anything else — no lanes, repeats, negative or out-of-range numbers,
        non-integers — is left to the interpreted loop, which resolves each
        index exactly as ``vector_env.envs[index]`` does (or raises).
        """
        lanes: List[int] = []
        for index in indices:
            if type(index) is bool or not isinstance(index, (int, np.integer)):
                return None
            lanes.append(int(index))
        if not lanes or len(set(lanes)) != len(lanes):
            return None
        if min(lanes) < 0 or max(lanes) >= self.num_envs:
            return None
        return lanes

    def step(
        self, actions: np.ndarray, indices: Optional[Sequence[int]] = None
    ) -> Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]:
        """Step every lane (``indices=None``) or only the selected lanes.

        ``actions`` rows align with ``indices``.  A subset step is
        ``VectorCircuitEnv.step_selected``: unselected lanes keep their state,
        no lane autoresets, and everything returned covers the selected lanes
        in index order.
        """
        actions = np.asarray(actions, dtype=np.int64)
        lanes = self._all_lanes if indices is None else self._selected_lanes(indices)
        if lanes is None:
            return self._fallback(
                actions, indices, "lane indices are not distinct in-range lanes"
            )
        envs = [self._envs[lane] for lane in lanes]
        count = len(lanes)
        if actions.shape != (count, self.num_parameters):
            return self._fallback(actions, indices, "actions have the wrong shape")
        if bool(np.any(actions < 0)) or bool(np.any(actions > 2)):
            return self._fallback(actions, indices, "action index out of range")
        if any(env._done for env in envs):
            return self._fallback(actions, indices, "a selected lane is finished")
        if type(self._reward_fn) is P2SReward:
            names = self._reward_fn.spec_space.names
            if any(any(name not in env._targets for name in names) for env in envs):
                return self._fallback(
                    actions, indices, "incomplete target specification group"
                )

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
        # Write every selected lane's sizing before simulating any lane.  A
        # lane's netlist is read only by its own simulation and reset, so
        # the writes commute with the bookkeeping loop below.
        step_values: List[np.ndarray] = []
        for row, (lane, env) in enumerate(zip(lanes, envs)):
            values = snapped[row].copy()
            for (device_parameters, attribute), value in zip(
                self._knob_writes[lane], values.tolist()
            ):
                device_parameters[attribute] = value
            env.data_processor._values = values
            step_values.append(values)
        cache = self._cache
        # Results simulated ahead of their row, by row.  A lane is bitwise
        # its own simulate call whatever batch it rides in, so how the rows
        # are grouped changes no bits.
        fresh: Dict[int, SimulationResult] = {}
        if cache is None:
            fresh.update(enumerate(self._simulate_rows(envs, range(count))))
        else:
            keys = self._cache_keys(rows)

        # --- sequential bookkeeping (order-sensitive state) -----------
        measured_dicts: List[Dict[str, float]] = []
        target_dicts: List[Dict[str, float]] = []
        outcomes: List[RewardOutcome] = []
        goals: List[bool] = []
        step_numbers: List[int] = []
        valid_flags: List[bool] = []
        reset_observations: List[Optional[Observation]] = []
        rewards = np.zeros(count)
        dones = np.zeros(count, dtype=bool)
        autoreset = indices is None and self._vector_env.autoreset
        for row, env in enumerate(envs):
            env._step_count += 1
            values = step_values[row]
            if cache is None:
                result = fresh.pop(row)
            else:
                result = self._cache_lookup(keys[row])
                if result is None:
                    if row not in fresh:
                        # A miss simulates its lane together with every
                        # later lane that is not cached now.
                        batch = [row] + [
                            later for later in range(row + 1, count)
                            if later not in fresh and keys[later] not in cache._entries
                        ]
                        fresh.update(zip(batch, self._simulate_rows(envs, batch)))
                    result = fresh.pop(row)
                    self._cache_store(keys[row], result)
            env._measured = dict(result.specs)
            measured = env._measured
            outcome = self._reward_fn(measured, env._targets, valid=result.valid)
            goal_reached = outcome.goal_reached and not self._is_fom_mode
            env._done = bool(goal_reached or env._step_count >= env.max_steps)

            record = StepRecord(
                step=env._step_count,
                parameters=values.copy(),
                specs=dict(measured),
                reward=outcome.reward,
                goal_reached=goal_reached,
            )
            assert env._trajectory is not None
            env._trajectory.records.append(record)

            measured_dicts.append(dict(measured))
            target_dicts.append(dict(env._targets))
            outcomes.append(outcome)
            goals.append(goal_reached)
            step_numbers.append(env._step_count)
            valid_flags.append(result.valid)
            rewards[row] = float(outcome.reward)
            dones[row] = env._done
            if env._done and autoreset:
                reset_observations.append(env.reset())
            else:
                reset_observations.append(None)

        # --- batched observation assembly -----------------------------
        node_features = np.broadcast_to(
            self._node_base, (count,) + self._node_base.shape
        ).copy()
        node_features[:, self._feature_rows, self._feature_cols] = (
            rows[:, self._feature_read_cols] * self._feature_scales
        )
        obs = self._obs_specs
        measured_matrix = obs.matrix(measured_dicts)
        target_matrix = obs.matrix(target_dicts)
        spec_features = np.concatenate(
            [
                obs.normalize(target_matrix),
                obs.normalize(measured_matrix),
                obs.raw_errors(measured_matrix, target_matrix),
            ],
            axis=-1,
        )
        normalized_parameters = space.normalize(snapped)

        infos: List[Dict[str, object]] = []
        for row, env in enumerate(envs):
            outcome = outcomes[row]
            info: Dict[str, object] = {
                "step": step_numbers[row],
                "specs": dict(measured_dicts[row]),
                "goal_reached": goals[row],
                "met_fraction": outcome.met_fraction,
                "normalized_errors": outcome.normalized_errors,
                "simulation_valid": valid_flags[row],
            }
            if self._is_fom_mode:
                info["figure_of_merit"] = self._reward_fn.figure_of_merit(
                    measured_dicts[row]
                )
            reset_observation = reset_observations[row]
            if reset_observation is not None:
                info["terminal_observation"] = Observation(
                    node_features=node_features[row].copy(),
                    static_node_features=env.data_processor._static_features,
                    adjacency=env.data_processor.adjacency,
                    spec_features=spec_features[row].copy(),
                    normalized_parameters=normalized_parameters[row].copy(),
                    measured_specs=dict(measured_dicts[row]),
                    target_specs=dict(target_dicts[row]),
                )
                node_features[row] = reset_observation.node_features
                spec_features[row] = reset_observation.spec_features
                normalized_parameters[row] = reset_observation.normalized_parameters
                measured_dicts[row] = dict(reset_observation.measured_specs)
                target_dicts[row] = dict(reset_observation.target_specs)
            infos.append(info)

        batched = BatchedObservation(
            node_features=node_features,
            static_node_features=self._static_stack[lanes],
            adjacency=self._adjacency,
            spec_features=spec_features,
            normalized_parameters=normalized_parameters,
            measured_specs=measured_dicts,
            target_specs=target_dicts,
        )
        self.steps_compiled += 1
        return batched, rewards, dones, infos

    # ------------------------------------------------------------------
    # Simulation replay
    # ------------------------------------------------------------------
    def _cache_keys(self, rows: np.ndarray) -> List[bytes]:
        """Vectorized twin of ``SimulationCache._key`` over full-parameter rows."""
        cache = self._cache
        assert cache is not None
        mantissas, exponents = np.frexp(rows)
        scaled = np.round(mantissas * cache._mantissa_scale)
        carry = np.abs(scaled) >= cache._mantissa_scale
        scaled = np.where(carry, scaled * 0.5, scaled)
        exponents = exponents + carry
        name = self._name_bytes
        return [
            name + scaled[k].tobytes() + exponents[k].tobytes()
            for k in range(rows.shape[0])
        ]

    def _simulate_rows(self, envs, rows: Sequence[int]) -> List[SimulationResult]:
        """One batched simulation of the netlists of ``envs[row]`` for ``rows``."""
        return self._simulate_batch([envs[row].data_processor.netlist for row in rows])

    def _cache_lookup(self, key: bytes) -> Optional[SimulationResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        Counts the hit or miss and refreshes the LRU order exactly as
        ``SimulationCache.simulate`` does.
        """
        cache = self._cache
        assert cache is not None
        cached = cache._entries.get(key)
        if cached is None:
            cache.stats.misses += 1
            return None
        cache.stats.hits += 1
        cache._entries.move_to_end(key)
        return cache._copy(cached)

    def _cache_store(self, key: bytes, result: SimulationResult) -> None:
        """Insert a miss's result, evicting the oldest entry when full."""
        cache = self._cache
        assert cache is not None
        cache._entries[key] = cache._copy(result)
        if len(cache._entries) > cache.max_entries:
            cache._entries.popitem(last=False)
            cache.stats.evictions += 1


__all__ = ["CompiledEpisodePlan"]
