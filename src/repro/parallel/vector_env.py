"""Vectorized circuit-design environment: N episodes stepped as one batch.

The paper's experiments spend nearly all wall-clock in the environment inner
loop — one simulation plus one policy inference per step per seed.
:class:`VectorCircuitEnv` batches that loop: it owns ``N`` sub-environments
that share one circuit topology and one memoizing
:class:`~repro.parallel.cache.SimulationCache`, exposes ``reset``/``step``
over stacked action matrices, and assembles
:class:`~repro.env.spaces.BatchedObservation` batches that feed the policy's
batched forward pass (one autograd graph for the whole batch instead of one
per environment).

Parity contract
---------------
Sub-environment ``i`` of ``VectorCircuitEnv.from_env(env, num_envs=k,
seed=s)`` behaves bitwise-identically to a sequential
:class:`~repro.env.circuit_env.CircuitDesignEnv` built with ``seed=s + i``:
observations, rewards, termination flags and info dicts match exactly,
because each sub-environment *is* a ``CircuitDesignEnv`` running the very
same code — vectorization batches the surrounding bookkeeping and the policy
math, never the physics.  ``num_envs=1`` therefore *is* the sequential path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.env.circuit_env import CircuitDesignEnv, EpisodeTrajectory
from repro.env.spaces import BatchedObservation
from repro.parallel.cache import DEFAULT_CACHE_SIZE, SimulationCache

#: Targets accepted by ``reset``: nothing (each sub-env samples its own), one
#: group broadcast to every sub-env, or one group per sub-env.
TargetSpecs = Union[None, Mapping[str, float], Sequence[Mapping[str, float]]]


class VectorCircuitEnv:
    """Batch of :class:`CircuitDesignEnv` instances behind one step interface.

    Parameters
    ----------
    envs:
        Sub-environments.  All must share one circuit topology (same
        benchmark, same graph shape); they may share a simulator — typically
        one :class:`SimulationCache` — so repeated candidate evaluations
        across the batch are simulated once.
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
    compile:
        When True, :meth:`step` first tries a
        :class:`~repro.compile.env_plan.CompiledEpisodePlan` — a traced,
        batched replay of this exact configuration, bitwise identical to
        the interpreted path.  Configurations the
        tracer cannot reproduce bitwise fall back to the interpreted loop
        (the build failure is cached, see :attr:`compiled_fallback_reason`);
        either way the observable behaviour is identical.
    """

    def __init__(
        self,
        envs: Sequence[CircuitDesignEnv],
        autoreset: bool = True,
        cache: Optional[SimulationCache] = None,
        compile: bool = False,
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
        self.envs: List[CircuitDesignEnv] = list(envs)
        self.autoreset = bool(autoreset)
        self.cache = cache
        self.compile = bool(compile)
        self._plan_cache: Optional[Any] = None

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
        compile: bool = False,
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
        return cls(envs, autoreset=autoreset, cache=cache, compile=compile)

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
    # Compiled fast path
    # ------------------------------------------------------------------
    def _plan_config(self) -> Tuple[object, ...]:
        """Identity snapshot of everything a compiled plan bakes at trace time.

        Mutable knobs the plan reads live (``goal_bonus``, ``max_steps``,
        ``autoreset``, ...) are deliberately absent; swapping any of the
        objects below invalidates the cached plan on the next step.
        """
        return (
            self.num_envs,
            id(self.benchmark),
            id(self.cache),
            tuple(id(env) for env in self.envs),
            tuple(id(env.benchmark) for env in self.envs),
            tuple(id(env.simulator) for env in self.envs),
            tuple(id(env.reward_fn) for env in self.envs),
        )

    @property
    def plan_cache(self):
        """The per-instance :class:`~repro.compile.plan_cache.PlanCache`."""
        if self._plan_cache is None:
            from repro.compile.plan_cache import PlanCache

            self._plan_cache = PlanCache()
        return self._plan_cache

    @property
    def compiled_plan(self):
        """The active compiled episode plan, building it on first access.

        Returns ``None`` when ``compile`` is off or this configuration is
        untraceable (see :attr:`compiled_fallback_reason`).
        """
        if not self.compile:
            return None
        from repro.compile.env_plan import CompiledEpisodePlan

        return self.plan_cache.get_or_build(
            "episode",
            lambda: CompiledEpisodePlan(self),
            config=self._plan_config(),
        )

    @property
    def compiled_fallback_reason(self) -> Optional[str]:
        """Why plan *building* failed (``None`` when compiled or never tried).

        Per-step runtime fallbacks are reported separately on the plan itself
        (``compiled_plan.last_fallback_reason``).
        """
        if self._plan_cache is None:
            return None
        return self._plan_cache.failure_reason("episode")

    def compile_status(self) -> Dict[str, object]:
        """Whether steps run compiled, why not, and the plan's fallback count.

        Reads the already-built plan (if any) without building one, so it is
        cheap and safe to call from a stats reader while another thread
        steps.
        """
        plan = self._plan_cache.peek("episode") if self._plan_cache is not None else None
        return {
            "compiled": plan is not None,
            "compiled_fallback_reason": self.compiled_fallback_reason,
            "fallback_steps": 0 if plan is None else plan.fallback_steps,
        }

    def step(
        self, actions: np.ndarray
    ) -> Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]:
        """Apply one ``(N, M)`` action matrix across the batch.

        Returns ``(observations, rewards, dones, infos)`` with rewards and
        dones as ``(N,)`` arrays.  Each row is exactly what the corresponding
        sequential environment would have returned for the same action.

        With ``compile=True`` the step replays a
        :class:`~repro.compile.env_plan.CompiledEpisodePlan` when one can be
        built for this configuration; otherwise (and for any step the plan's
        own preconditions reject) :meth:`_step_interpreted` runs.
        """
        plan = self.compiled_plan
        if plan is not None:
            return plan.step(actions)
        return self._step_interpreted(actions)

    def step_selected(
        self, indices: Sequence[int], actions: np.ndarray
    ) -> Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]:
        """Step only the sub-environments named by ``indices``.

        ``actions`` rows align with ``indices`` (``actions[row]`` goes to
        sub-environment ``indices[row]``).  Autoreset is *not* applied —
        a finished sub-environment keeps its terminal state, exactly like the
        sequential environment — which is what lock-step batched deployment
        needs: episodes in one micro-batch finish at different steps, and the
        finished ones must simply drop out of the batch.

        Returns ``(observations, rewards, dones, infos)`` with one row per
        requested index, in index order; the observations come as one
        :class:`~repro.env.spaces.BatchedObservation` over the selected
        sub-environments (``observations[row]`` is a per-environment view;
        :meth:`~repro.env.spaces.BatchedObservation.take` narrows it to the
        rows still active).

        With ``compile=True`` the step runs on the compiled episode plan
        (see :meth:`step`); stepping a finished sub-environment, repeated or
        out-of-range indices and every other case the plan cannot replay
        exactly take the interpreted loop, with identical results.
        """
        indices = list(indices)
        plan = self.compiled_plan
        if plan is not None:
            return plan.step(actions, indices)
        return self._step_interpreted(actions, indices)

    def _step_interpreted(
        self, actions: np.ndarray, indices: Optional[Sequence[int]] = None
    ) -> Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]:
        """The reference per-environment loop (also the compiled fallback).

        ``indices=None`` steps every sub-environment and applies autoreset;
        otherwise only the named ones step, in the given order, and none is
        reset.
        """
        lanes = range(self.num_envs) if indices is None else list(indices)
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
            env = self.envs[index]
            observation, reward, done, info = env.step(actions[row])
            if done and autoreset:
                info["terminal_observation"] = observation
                observation = env.reset()
            observations.append(observation)
            rewards[row] = reward
            dones[row] = done
            infos.append(info)
        return BatchedObservation.stack(observations), rewards, dones, infos

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"VectorCircuitEnv(num_envs={self.num_envs}, "
            f"circuit={self.benchmark.name!r}, autoreset={self.autoreset})"
        )
