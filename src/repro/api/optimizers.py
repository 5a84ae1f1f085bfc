"""Adapters giving every sizing method the common ``Optimizer`` protocol.

Five adapters wrap the method implementations in :mod:`repro.agents` and
:mod:`repro.baselines` behind the single signature
``optimize(env, budget=None, seed=None, callbacks=(), target_specs=None)``:

* :class:`PPOOptimizer` (``"ppo"``) — trains a policy with PPO for
  ``budget`` episodes, then deploys it toward the target group;
* :class:`GeneticOptimizer` (``"genetic"``), :class:`BayesianOptimizer`
  (``"bayesian"``), :class:`RandomSearchOptimizer` (``"random"``) — search
  the design space directly under a ``budget`` of simulator calls;
* :class:`SupervisedOptimizer` (``"supervised"``) — trains the inverse
  spec-to-parameter regressor on ``budget`` random designs and produces a
  one-shot design.

Constructor keyword arguments are plain JSON-serializable values so a whole
run is reconstructable from :class:`repro.api.configs.RunConfig`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

from repro.api.protocol import (
    Callbacks,
    NotifyingTrace,
    OptimizationResult,
    OptimizationTrace,
    notify,
    resolve_target,
)
from repro.baselines.base import SizingOptimizer, SizingProblem
from repro.baselines.bayesian import BayesianOptimization, BayesianOptimizationConfig
from repro.baselines.genetic import GeneticAlgorithm, GeneticAlgorithmConfig
from repro.baselines.random_search import RandomSearch, RandomSearchConfig
from repro.baselines.supervised import SupervisedSizer, SupervisedSizerConfig
from repro.env.circuit_env import CircuitDesignEnv
from repro.parallel.cache import DEFAULT_CACHE_SIZE, SimulationCache
from repro.parallel.vector_env import VectorCircuitEnv


def _unwrap_env(env) -> tuple:
    """Accept either a sequential env or a front-door :class:`VectorCircuitEnv`.

    ``make_env(id, num_envs=k)`` hands back a vector env; optimizers define
    their objective on a single environment, so they work on the first
    sub-environment (whose simulator already shares the batch's cache) and
    reuse the whole vector env for RL rollout collection when present.
    Returns ``(sequential_env, vector_env_or_None)``.
    """
    if isinstance(env, VectorCircuitEnv):
        return env.envs[0], env
    return env, None


def _resolve_simulator(
    env: CircuitDesignEnv, vectorize: int, cache_size: Optional[int]
) -> tuple:
    """Pick the (possibly cache-wrapped) simulator for an optimization run.

    Returns ``(simulator, cache)`` where ``cache`` is the freshly created
    :class:`SimulationCache` (None when caching is off or the environment's
    simulator is already cached).
    """
    if vectorize < 1:
        raise ValueError("vectorize must be >= 1")
    simulator = env.simulator
    if isinstance(simulator, SimulationCache) or (vectorize == 1 and cache_size is None):
        return simulator, None
    cache = SimulationCache(
        simulator,
        max_entries=cache_size if cache_size is not None else DEFAULT_CACHE_SIZE,
    )
    return cache, cache


def build_problem(
    env: CircuitDesignEnv,
    target_specs: Optional[Mapping[str, float]],
    simulator=None,
    prescreener=None,
) -> SizingProblem:
    """Wrap an environment's benchmark/simulator/reward into a :class:`SizingProblem`.

    ``simulator`` overrides the environment's simulator — how the vector path
    substitutes a shared :class:`repro.parallel.SimulationCache`.
    ``prescreener`` attaches a :class:`repro.surrogate.SurrogatePrescreener`
    so population batches are surrogate-ranked and only the top candidates
    exactly verified.
    """
    env, _ = _unwrap_env(env)
    simulator = simulator if simulator is not None else env.simulator
    if env.is_fom_mode:
        return SizingProblem(
            env.benchmark, simulator, fom_reward=env.reward_fn, prescreener=prescreener
        )
    if target_specs is None:
        raise ValueError("a P2S environment needs target_specs to define the objective")
    return SizingProblem(env.benchmark, simulator, targets=target_specs, prescreener=prescreener)


def resolve_prescreener(prescreen):
    """Coerce the ``prescreen`` knob into a live ``SurrogatePrescreener``.

    Accepts ``None`` (off), a ready prescreener, a checkpoint path saved by
    :func:`repro.surrogate.save_surrogate`, or a JSON-friendly mapping
    ``{"surrogate": <path>, "top_fraction": ..., "min_exact": ...}`` (the
    form an :class:`~repro.api.configs.OptimizerConfig` carries).
    """
    if prescreen is None:
        return None
    from repro.surrogate.prescreen import SurrogatePrescreener

    if isinstance(prescreen, SurrogatePrescreener):
        return prescreen
    if isinstance(prescreen, Mapping):
        options = dict(prescreen)
        try:
            surrogate = options.pop("surrogate")
        except KeyError:
            raise ValueError(
                "a prescreen mapping needs a 'surrogate' key (checkpoint path)"
            ) from None
        return SurrogatePrescreener(surrogate, **options)
    return SurrogatePrescreener(prescreen)


class _SearchOptimizer:
    """Shared scaffolding for the direct-search baselines (GA / BO / RS).

    All three score candidate populations through
    :meth:`SizingProblem.objective_from_unit_batch`, which simulates a
    population in one ``simulate_batch`` call.  ``vectorize > 1`` (or an
    explicit ``cache_size``) wraps the environment's simulator in a shared
    :class:`repro.parallel.SimulationCache` so duplicate candidates across a
    population cost one simulation; the cache simulates a population's
    misses in one inner ``simulate_batch`` call.

    ``prescreen`` enables surrogate pre-screening of those populations: a
    trained :mod:`repro.surrogate` model ranks every candidate and only the
    top fraction is verified with the exact simulator (the final answer is
    always exactly verified; see :func:`resolve_prescreener` for the
    accepted forms).
    """

    id = "search"

    def __init__(
        self,
        seed: Optional[int] = None,
        budget: Optional[int] = None,
        vectorize: int = 1,
        cache_size: Optional[int] = None,
        prescreen: Any = None,
        **overrides: Any,
    ) -> None:
        self.seed = seed
        self.budget = budget
        self.vectorize = int(vectorize)
        self.cache_size = cache_size
        self.prescreen = prescreen
        self.overrides = overrides
        if self.vectorize < 1:
            raise ValueError("vectorize must be >= 1")
        self._make_config(**overrides)  # fail fast on bad hyper-parameters

    # Subclass hooks ----------------------------------------------------
    def _make_config(self, **overrides: Any):
        raise NotImplementedError

    def _apply_budget(self, config, budget: Optional[int]) -> None:
        raise NotImplementedError

    def _make_search(self, config, seed: Optional[int]) -> SizingOptimizer:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def build_search(
        self, budget: Optional[int] = None, seed: Optional[int] = None
    ) -> SizingOptimizer:
        """Instantiate the underlying :class:`SizingOptimizer` for one run."""
        config = self._make_config(**self.overrides)
        self._apply_budget(config, budget if budget is not None else self.budget)
        return self._make_search(config, seed if seed is not None else self.seed)

    def optimize(
        self,
        env: CircuitDesignEnv,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
        callbacks: Callbacks = (),
        target_specs: Optional[Mapping[str, float]] = None,
    ) -> OptimizationResult:
        env, _ = _unwrap_env(env)
        budget = budget if budget is not None else self.budget
        seed = seed if seed is not None else self.seed
        target = resolve_target(env, target_specs, seed)
        simulator, cache = _resolve_simulator(env, self.vectorize, self.cache_size)
        prescreener = resolve_prescreener(self.prescreen)
        problem = build_problem(env, target, simulator=simulator, prescreener=prescreener)
        problem.trace = NotifyingTrace(callbacks)
        notify(callbacks, "on_start", self.id, env, budget)
        search = self.build_search(budget, seed)
        result = search.optimize(problem)
        result.method = self.id
        result.seed = seed
        result.budget = budget
        if target is not None:
            result.metadata.setdefault("target_specs", dict(target))
        if cache is not None:
            result.metadata["simulation_cache"] = cache.stats
        if prescreener is not None:
            result.metadata["prescreen"] = prescreener.describe()
        notify(callbacks, "on_result", result)
        return result


class GeneticOptimizer(_SearchOptimizer):
    """Genetic-algorithm search.

    ``budget`` is a simulator-call target rounded down to whole populations:
    the initial population costs one population of calls, each generation
    another.  Budgets below two populations are floored at one generation,
    so very small budgets overshoot — shrink ``population_size`` to match.
    """

    id = "genetic"

    def _make_config(self, **overrides: Any) -> GeneticAlgorithmConfig:
        return GeneticAlgorithmConfig(**overrides)

    def _apply_budget(self, config: GeneticAlgorithmConfig, budget: Optional[int]) -> None:
        if budget is not None:
            # One population of calls goes to the initial evaluation.
            config.num_generations = max(1, budget // config.population_size - 1)

    def _make_search(self, config, seed):
        return GeneticAlgorithm(config, seed=seed)


class BayesianOptimizer(_SearchOptimizer):
    """Gaussian-process Bayesian optimization; ``budget`` caps simulator calls."""

    id = "bayesian"

    def _make_config(self, **overrides: Any) -> BayesianOptimizationConfig:
        return BayesianOptimizationConfig(**overrides)

    def _apply_budget(self, config: BayesianOptimizationConfig, budget: Optional[int]) -> None:
        if budget is not None:
            config.num_iterations = max(2, budget - config.num_initial)

    def _make_search(self, config, seed):
        return BayesianOptimization(config, seed=seed)


class RandomSearchOptimizer(_SearchOptimizer):
    """Uniform random search; ``budget`` is the number of samples."""

    id = "random"

    def _make_config(self, **overrides: Any) -> RandomSearchConfig:
        return RandomSearchConfig(**overrides)

    def _apply_budget(self, config: RandomSearchConfig, budget: Optional[int]) -> None:
        if budget is not None:
            config.num_samples = budget

    def _make_search(self, config, seed):
        return RandomSearch(config, seed=seed)


class PPOOptimizer:
    """PPO-trained RL policy behind the common protocol.

    ``budget`` is the *training-episode* budget (the paper uses 35 000 for
    the op-amp and 3 500 for the RF PA; the default here is a bench-friendly
    200).  ``num_simulations`` of the returned result counts only the
    deployment steps, matching the paper's accounting where the one-off
    training cost is amortized over every future target group.  The trained
    policy and full training history ride along in ``result.metadata``.

    ``vectorize`` sets the training rollout width: with ``vectorize=k > 1``
    episodes are collected from a ``k``-wide
    :class:`repro.parallel.VectorCircuitEnv` (shared simulation cache,
    batched policy forward); ``vectorize=1`` is the sequential path.

    ``checkpoint_dir`` (a plain path string, so it serializes through
    :class:`repro.OptimizerConfig` and sweep documents) makes the underlying
    :class:`~repro.agents.ppo.PPOTrainer` emit on-disk policy checkpoints
    every ``checkpoint_interval`` updates plus a final ``latest.npz`` — the
    train-once half of the ``repro.serve`` deployment workflow.  Each run
    writes into a ``<policy>-seed<seed>-<digest>`` subdirectory (digest over
    the optimizer's serializable knobs), so sweep units sharing one
    configured directory — other seeds, or a differently-tuned PPO with the
    same policy — never clobber each other's files.
    """

    id = "ppo"
    DEFAULT_BUDGET = 200

    def __init__(
        self,
        policy: str = "gcn_fc",
        seed: Optional[int] = None,
        budget: Optional[int] = None,
        episodes_per_update: int = 10,
        deployment_max_steps: Optional[int] = None,
        fom_episodes: int = 3,
        ppo: Optional[Mapping[str, Any]] = None,
        policy_overrides: Optional[Mapping[str, Any]] = None,
        vectorize: int = 1,
        cache_size: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 10,
        env_id: Optional[str] = None,
    ) -> None:
        from repro.agents.ppo import PPOConfig

        self.policy_id = policy
        self.seed = seed
        self.budget = budget
        self.episodes_per_update = episodes_per_update
        self.deployment_max_steps = deployment_max_steps
        self.fom_episodes = fom_episodes
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = int(checkpoint_interval)
        self.env_id = env_id
        if isinstance(ppo, PPOConfig):
            self.ppo_config = ppo
        else:
            self.ppo_config = PPOConfig(**dict(ppo)) if ppo else PPOConfig(learning_rate=1e-3)
        self.policy_overrides = dict(policy_overrides or {})
        self.vectorize = int(vectorize)
        self.cache_size = cache_size
        if self.vectorize < 1:
            raise ValueError("vectorize must be >= 1")

    # ------------------------------------------------------------------
    def optimize(
        self,
        env: CircuitDesignEnv,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
        callbacks: Callbacks = (),
        target_specs: Optional[Mapping[str, float]] = None,
    ) -> OptimizationResult:
        """Train a policy for ``budget`` episodes, then deploy it greedily.

        Unlike the search baselines, ``budget`` counts *training episodes*
        (the paper's budget semantics for RL); ``result.num_simulations``
        counts only the deployment steps against the resolved target group.
        """
        from repro.agents.deployment import deploy_policy
        from repro.agents.ppo import PPOTrainer
        from repro.api.catalog import make_policy

        env, provided_vector_env = _unwrap_env(env)
        budget = budget if budget is not None else (self.budget or self.DEFAULT_BUDGET)
        seed = seed if seed is not None else self.seed
        target = resolve_target(env, target_specs, seed)

        notify(callbacks, "on_start", self.id, env, budget)
        policy = make_policy(
            self.policy_id, env, np.random.default_rng(seed), **self.policy_overrides
        )
        train_env: Any = env
        train_cache = None
        if provided_vector_env is not None:
            # make_env(id, num_envs=k) front door: collect rollouts from the
            # vector env the caller already built.
            train_env = provided_vector_env
            train_cache = provided_vector_env.cache
        elif self.vectorize > 1:
            train_env = VectorCircuitEnv.from_env(
                env,
                num_envs=self.vectorize,
                seed=seed,
                cache_size=self.cache_size if self.cache_size is not None else DEFAULT_CACHE_SIZE,
            )
            train_cache = train_env.cache
        checkpoint_dir = None
        if self.checkpoint_dir is not None:
            # Per-run subdirectory: parallel sweep units sharing one
            # configured directory must not overwrite each other, including
            # same-policy same-seed units that differ only in hyperparameters
            # — hence the digest over the run-defining knobs.
            fingerprint = json.dumps(
                {
                    "policy": self.policy_id,
                    "ppo": dataclasses.asdict(self.ppo_config),
                    "overrides": self.policy_overrides,
                    "episodes_per_update": self.episodes_per_update,
                    "budget": budget,
                    "env": env.benchmark.name,
                },
                sort_keys=True, default=str,
            )
            digest = hashlib.sha256(fingerprint.encode()).hexdigest()[:8]
            checkpoint_dir = (
                Path(self.checkpoint_dir) / f"{self.policy_id}-seed{seed}-{digest}"
            )
        trainer = PPOTrainer(
            train_env, policy, config=self.ppo_config, seed=seed, method_name=self.policy_id,
            checkpoint_dir=checkpoint_dir, checkpoint_interval=self.checkpoint_interval,
            env_id=self.env_id,
        )
        history = trainer.train(
            total_episodes=budget,
            episodes_per_update=min(self.episodes_per_update, budget),
            eval_interval=None,
        )
        best_reward = -np.inf
        for index, record in enumerate(history.records):
            best_reward = max(best_reward, record.mean_episode_reward)
            notify(callbacks, "on_evaluation", index + 1, record.mean_episode_reward, best_reward)

        if env.is_fom_mode:
            result = self._fom_result(env, policy, seed)
        else:
            assert target is not None
            deployment = deploy_policy(
                env,
                policy,
                target,
                deterministic=True,
                rng=np.random.default_rng(seed),
                max_steps=self.deployment_max_steps,
            )
            trace = OptimizationTrace()
            for record in deployment.trajectory.records:
                trace.record(record.reward)
            best_index = int(np.argmax([r.reward for r in deployment.trajectory.records]))
            best_record = deployment.trajectory.records[best_index]
            result = OptimizationResult(
                best_parameters=best_record.parameters.copy(),
                best_objective=float(best_record.reward),
                best_specs=dict(best_record.specs),
                success=deployment.success,
                num_simulations=deployment.steps,
                trace=trace,
                metadata={"deployment": deployment, "target_specs": dict(target)},
            )
        result.method = self.id
        result.seed = seed
        result.budget = budget
        num_envs = train_env.num_envs if isinstance(train_env, VectorCircuitEnv) else 1
        result.metadata.update(
            {"policy": policy, "policy_id": self.policy_id, "training_history": history,
             "training_episodes": budget, "num_envs": num_envs}
        )
        if train_cache is not None:
            result.metadata["simulation_cache"] = train_cache.stats
        notify(callbacks, "on_result", result)
        return result

    def _fom_result(self, env: CircuitDesignEnv, policy, seed: Optional[int]) -> OptimizationResult:
        """Greedy roll-outs on the FoM environment; keep the best FoM seen."""
        from repro.agents.deployment import greedy_fom_rollouts

        rollouts = greedy_fom_rollouts(env, policy, self.fom_episodes, np.random.default_rng(seed))
        assert rollouts.best_parameters is not None
        trace = OptimizationTrace()
        for fom in rollouts.foms:
            trace.record(fom)
        return OptimizationResult(
            best_parameters=rollouts.best_parameters,
            best_objective=float(rollouts.best_fom),
            best_specs=rollouts.best_specs,
            success=True,
            num_simulations=len(rollouts.foms),
            trace=trace,
            metadata={"fom_episodes": self.fom_episodes},
        )


class SupervisedOptimizer:
    """Supervised inverse-regression sizer behind the common protocol.

    ``budget`` is the number of random designs simulated for the training
    dataset; the one-shot design itself costs a single simulator call, which
    is what ``num_simulations`` reports ("1 design step" in Table 2).
    """

    id = "supervised"

    def __init__(
        self,
        seed: Optional[int] = None,
        budget: Optional[int] = None,
        vectorize: int = 1,
        cache_size: Optional[int] = None,
        **overrides: Any,
    ) -> None:
        self.seed = seed
        self.budget = budget
        self.vectorize = int(vectorize)
        self.cache_size = cache_size
        self.overrides = overrides
        if self.vectorize < 1:
            raise ValueError("vectorize must be >= 1")
        SupervisedSizerConfig(**overrides)  # fail fast on bad hyper-parameters

    def optimize(
        self,
        env: CircuitDesignEnv,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
        callbacks: Callbacks = (),
        target_specs: Optional[Mapping[str, float]] = None,
    ) -> OptimizationResult:
        """Fit the supervised sizer on ``budget`` simulated samples, then
        regress device parameters for the resolved target group (P2S only:
        FoM-mode environments raise ``ValueError``)."""
        env, _ = _unwrap_env(env)
        if env.is_fom_mode:
            raise ValueError(
                "the supervised sizer regresses parameters from a target specification "
                "group and does not support FoM-mode environments"
            )
        budget = budget if budget is not None else self.budget
        seed = seed if seed is not None else self.seed
        target = resolve_target(env, target_specs, seed)
        assert target is not None

        config = SupervisedSizerConfig(**self.overrides)
        if budget is not None:
            config.num_training_samples = max(10, budget)
        notify(callbacks, "on_start", self.id, env, budget)
        simulator, cache = _resolve_simulator(env, self.vectorize, self.cache_size)
        sizer = SupervisedSizer(env.benchmark, simulator, config, seed=seed)
        sizer.fit()
        design = sizer.design(target)

        objective = float(
            env.benchmark.spec_space.normalized_errors(design.predicted_specs, target).sum()
        )
        trace = NotifyingTrace(callbacks)
        trace.record(objective)
        result = OptimizationResult(
            best_parameters=design.parameters,
            best_objective=objective,
            best_specs=dict(design.predicted_specs),
            success=design.success,
            num_simulations=design.num_simulations,
            trace=trace,
            method=self.id,
            seed=seed,
            budget=budget,
            metadata={
                "sizer": sizer,
                "target_specs": dict(target),
                "training_simulations": config.num_training_samples,
            },
        )
        if cache is not None:
            result.metadata["simulation_cache"] = cache.stats
        notify(callbacks, "on_result", result)
        return result
