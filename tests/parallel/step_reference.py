"""The sequential reference for the episode engine's step and reset.

:class:`ReferenceCircuitEnv` is a ``CircuitDesignEnv`` whose ``reset`` and
``step`` are the per-environment code the engine replaced: the action
applied through ``DesignSpace.apply_actions`` and ``apply_to_netlist``, one
``simulate`` call, the reward, and an observation assembled from the live
netlist (``observation`` below, with the node features read parameter by
parameter from the environment's own circuit graph and the spec features
computed spec by spec in plain floats).

:class:`ReferenceVectorEnv` steps every lane through that scalar step, then
resets the lanes whose episodes ended (under autoreset, in lane order), and
stacks the observations — the definition the single batched step must
reproduce bit for bit.  The parity tests compare the two, and
``benchmarks/bench_parallel_rollout.py`` and ``bench_serve.py`` time it as
the "interpreted" side (loaded by file path, like
``tests/agents/ppo_reference.py``).

Unlike the batched step it is not atomic: an invalid action or a finished lane
raises part-way, after the lanes before it have stepped — exactly like
calling the scalar ``step`` in a loop.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.env.circuit_env import CircuitDesignEnv, EpisodeTrajectory, StepRecord
from repro.env.reward import RewardOutcome
from repro.env.spaces import BatchedObservation, Observation
from repro.graph import CircuitGraph
from repro.graph.features import dynamic_parameter_reads
from repro.parallel import VectorCircuitEnv

StepOutput = Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]


def node_feature_matrix(env: "ReferenceCircuitEnv") -> np.ndarray:
    """Dynamic ``(n, d)`` node features read from the live netlist."""
    graph = env.graph
    netlist = env.netlist
    values = np.array(
        [
            device.parameters[key]
            for device in (netlist.device(name) for name in graph.node_names)
            for key, _scale, _slot in dynamic_parameter_reads(device)
        ]
    )
    matrix = graph._base_features.copy()
    matrix[graph._feature_rows, graph._feature_cols] = values * graph._feature_scales
    return matrix


def spec_feature_vector(
    env: CircuitDesignEnv, measured: Mapping[str, float], targets: Mapping[str, float]
) -> np.ndarray:
    """Normalized targets, normalized measured specs and clipped errors.

    A missing or non-finite measured spec gets normalized feature 0.0 and
    error -1.0, the reward's convention for it.
    """
    spec_space = env.benchmark.spec_space
    normalized_targets = spec_space.normalize(targets)
    normalized_measured = []
    errors = []
    for spec in spec_space:
        value = float(measured.get(spec.name, math.nan))
        if math.isfinite(value):
            normalized_measured.append(spec.normalize_value(value))
            errors.append(spec.normalized_error(value, float(targets[spec.name])))
        else:
            normalized_measured.append(0.0)
            errors.append(-1.0)
    return np.concatenate([normalized_targets, np.array(normalized_measured), np.array(errors)])


def observation(
    env: "ReferenceCircuitEnv", measured: Mapping[str, float], targets: Mapping[str, float]
) -> Observation:
    """The full observation of the environment's current netlist state."""
    return Observation(
        node_features=node_feature_matrix(env),
        static_node_features=env.static_features,
        adjacency=env.adjacency,
        spec_features=spec_feature_vector(env, measured, targets),
        normalized_parameters=env.benchmark.design_space.normalize(env.parameter_values),
        measured_specs=dict(measured),
        target_specs=dict(targets),
    )


class ReferenceCircuitEnv(CircuitDesignEnv):
    """``CircuitDesignEnv`` with the per-environment ``reset`` and ``step``,
    holding its own circuit graph, static node features and adjacency."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.graph = CircuitGraph(self.netlist)
        self.static_features = self.graph.static_feature_matrix()
        self.adjacency = self.graph.adjacency_matrix

    @classmethod
    def like(cls, env: CircuitDesignEnv) -> "ReferenceCircuitEnv":
        """A fresh reference environment configured as ``env``, drawing
        from ``env``'s own generator (hand it over before ``env`` is used)."""
        reference = cls(
            benchmark=env.benchmark,
            simulator=env.simulator,
            reward_fn=env.reward_fn,
            max_steps=env.max_steps,
            initial_sizing=env.initial_sizing,
            goal_tolerance=env.goal_tolerance,
        )
        reference.rng = env.rng
        return reference

    def reset(
        self,
        target_specs: Optional[Mapping[str, float]] = None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> Observation:
        if target_specs is None:
            target_specs = self.sample_target()
        self._targets = {name: float(value) for name, value in dict(target_specs).items()}

        if initial_parameters is not None:
            start = np.asarray(initial_parameters, dtype=np.float64)
        elif self.initial_sizing == "center":
            start = self.benchmark.design_space.center()
        else:
            start = self.benchmark.design_space.sample(self.rng)
        self._values = self.benchmark.design_space.apply_to_netlist(self.netlist, start)

        result = self.simulator.simulate(self.netlist)
        self._measured = dict(result.specs)
        self._step_count = 0
        self._done = False
        self._trajectory = EpisodeTrajectory(target_specs=dict(self._targets))
        return observation(self, self._measured, self._targets)

    def step(self, action: np.ndarray) -> tuple[Observation, float, bool, Dict[str, object]]:
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset() first")
        action = np.asarray(action, dtype=np.int64)
        if not self.action_space.contains(action):
            raise ValueError(
                f"invalid action of shape {action.shape}; expected "
                f"({self.num_parameters},) with entries in [0, 2]"
            )
        self._step_count += 1
        space = self.benchmark.design_space
        parameters = space.apply_to_netlist(
            self.netlist, space.apply_actions(self.parameter_values, action)
        )
        self._values = parameters
        result = self.simulator.simulate(self.netlist)
        self._measured = dict(result.specs)
        outcome: RewardOutcome = self.reward_fn(
            self._measured, self._targets, valid=result.valid
        )
        goal_reached = outcome.goal_reached and not self.is_fom_mode
        self._done = bool(goal_reached or self._step_count >= self.max_steps)

        assert self._trajectory is not None
        self._trajectory.records.append(
            StepRecord(
                step=self._step_count,
                parameters=parameters.copy(),
                specs=dict(self._measured),
                reward=outcome.reward,
                goal_reached=goal_reached,
            )
        )
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
        observed = observation(self, self._measured, self._targets)
        return observed, float(outcome.reward), self._done, info


class ReferenceVectorEnv(VectorCircuitEnv):
    """``VectorCircuitEnv`` whose lanes are :class:`ReferenceCircuitEnv` and
    whose step and reset loop over them."""

    @classmethod
    def from_env(cls, env: CircuitDesignEnv, *args, **kwargs) -> "ReferenceVectorEnv":
        built = VectorCircuitEnv.from_env(env, *args, **kwargs)
        lanes = [ReferenceCircuitEnv.like(lane) for lane in built.envs]
        return cls(lanes, autoreset=built.autoreset, cache=built.cache)

    def reset_selected(
        self,
        indices: Sequence[int],
        target_specs=None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> BatchedObservation:
        indices = list(indices)
        if target_specs is None or isinstance(target_specs, Mapping):
            targets = [target_specs] * len(indices)
        else:
            targets = list(target_specs)
        initial = None if initial_parameters is None else np.asarray(initial_parameters)
        starts = [
            initial if initial is None or initial.ndim == 1 else initial[row]
            for row in range(len(indices))
        ]
        return BatchedObservation.stack(
            [
                self.envs[index].reset(target_specs=target, initial_parameters=start)
                for index, target, start in zip(indices, targets, starts)
            ]
        )

    def step(self, actions: np.ndarray) -> StepOutput:
        return self._loop(actions, None)

    def step_selected(self, indices: Sequence[int], actions: np.ndarray) -> StepOutput:
        return self._loop(actions, list(indices))

    def _loop(self, actions: np.ndarray, indices: Optional[List[int]]) -> StepOutput:
        """``indices=None`` steps every lane and applies autoreset; otherwise
        only the named lanes step, in the given order, and none is reset."""
        lanes = range(self.num_envs) if indices is None else indices
        if not lanes:
            raise ValueError("no sub-environment selected to step")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (len(lanes), self.num_parameters):
            raise ValueError(
                f"expected actions of shape ({len(lanes)}, {self.num_parameters}), "
                f"got {actions.shape}"
            )
        autoreset = indices is None and self.autoreset
        observations = []
        rewards = np.zeros(len(lanes))
        dones = np.zeros(len(lanes), dtype=bool)
        infos: List[Dict[str, object]] = []
        for row, index in enumerate(lanes):
            observed, reward, done, info = self.envs[index].step(actions[row])
            observations.append(observed)
            rewards[row] = reward
            dones[row] = done
            infos.append(info)
        # Every lane steps first; then the finished ones reset, in lane order.
        for row, index in enumerate(lanes):
            if dones[row] and autoreset:
                infos[row]["terminal_observation"] = observations[row]
                observations[row] = self.envs[index].reset()
        return BatchedObservation.stack(observations), rewards, dones, infos
