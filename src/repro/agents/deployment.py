"""Policy deployment: using a trained policy to design circuits.

"Policy deployment applies a trained policy to automatically find the device
parameters for given specifications" (Sec. 4).  This module implements

* :func:`deploy_policy_batch` — run many specification-group episodes
  lock-step on the lanes of a batched environment, paying one batched
  policy forward and one ``step_selected`` call over the still-active lanes
  per step;
* :func:`deploy_policy` — one deployment episode for one specification
  group, returning its trajectory (the data behind Fig. 5 and Fig. 6): the
  batched deployment on the environment as one lane;
* :func:`evaluate_deployment` — deploy over a batch of sampled specification
  groups and report the two headline Table 2 metrics: *design accuracy*
  (fraction of groups for which all specs are met within the step budget)
  and *mean number of design steps*;
* :func:`greedy_fom_rollouts` — greedy episodes on a FoM environment,
  keeping the best figure of merit seen (Fig. 7).

Deployment never back-propagates, so it uses the policy's grad-free
``select_action_batch`` — a pure-numpy actor forward with no critic, no
log-probabilities and no autograd graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.agents.policy import ActorCriticPolicy
from repro.env.circuit_env import BatchedCircuitEnv, CircuitDesignEnv, EpisodeTrajectory
from repro.parallel.vector_env import VectorCircuitEnv


@dataclass
class DeploymentResult:
    """Outcome of deploying the policy for one specification group."""

    target_specs: Dict[str, float]
    success: bool
    steps: int
    final_specs: Dict[str, float]
    trajectory: EpisodeTrajectory


@dataclass
class DeploymentEvaluation:
    """Aggregate deployment statistics over a batch of specification groups."""

    results: List[DeploymentResult] = field(default_factory=list)

    @property
    def num_targets(self) -> int:
        return len(self.results)

    @property
    def accuracy(self) -> float:
        """Design accuracy: fraction of target groups fully satisfied."""
        if not self.results:
            return 0.0
        return float(np.mean([r.success for r in self.results]))

    @property
    def mean_steps(self) -> float:
        """Mean number of design (simulation) steps per deployment episode."""
        if not self.results:
            return 0.0
        return float(np.mean([r.steps for r in self.results]))


@contextmanager
def _max_steps_override(
    envs: Sequence[CircuitDesignEnv], max_steps: Optional[int]
) -> Iterator[None]:
    """Temporarily override the step budget of every given environment."""
    originals = [env.max_steps for env in envs]
    if max_steps is not None:
        for env in envs:
            env.max_steps = int(max_steps)
    try:
        yield
    finally:
        for env, original in zip(envs, originals):
            env.max_steps = original


def deploy_policy(
    env: CircuitDesignEnv,
    policy: ActorCriticPolicy,
    target_specs: Mapping[str, float],
    deterministic: bool = True,
    rng: Optional[np.random.Generator] = None,
    max_steps: Optional[int] = None,
) -> DeploymentResult:
    """Run one deployment episode toward ``target_specs``.

    This is :func:`deploy_policy_batch` with ``env`` as its one lane
    (``env.engine``), so the episode runs on ``env`` itself.

    Parameters
    ----------
    env:
        The design environment (its simulator defines the fidelity level —
        for the RF PA this should be the *fine* simulator, per the paper's
        transfer-learning protocol).
    policy:
        A trained actor-critic policy.
    target_specs:
        The desired specification group.
    deterministic:
        Greedy (mode) actions when True, sampled actions otherwise.
    rng:
        Random generator for stochastic deployment.
    max_steps:
        Optional per-deployment step budget overriding the environment's
        default (Fig. 6 uses a longer budget for out-of-distribution specs).
    """
    return deploy_policy_batch(
        env.engine,
        policy,
        [target_specs],
        deterministic=deterministic,
        rng=rng,
        max_steps=max_steps,
    )[0]


def deploy_policy_batch(
    vector_env: BatchedCircuitEnv,
    policy: ActorCriticPolicy,
    targets: Sequence[Mapping[str, float]],
    deterministic: bool = True,
    rng: Optional[np.random.Generator] = None,
    max_steps: Optional[int] = None,
) -> List[DeploymentResult]:
    """Deploy one episode per target group, micro-batched over the lanes.

    ``vector_env`` is a :class:`~repro.parallel.VectorCircuitEnv` (or an
    environment's one-lane ``engine``).  Targets are processed in chunks of
    ``vector_env.num_envs``: each chunk's lanes reset in one
    :meth:`~repro.env.circuit_env.BatchedCircuitEnv.reset_selected` call and
    run lock-step — one batched grad-free policy forward and one
    ``step_selected`` call over the still-active lanes per step — with
    finished episodes dropping out of the batch, so every episode is exactly
    the step sequence a one-lane deployment would have produced
    (deterministic deployment results are episode-level identical; the
    shared simulation cache changes cost, never values).

    ``rng`` is only consulted for ``deterministic=False``; sampled actions
    then draw per lock-step batch, so with several lanes the stochastic
    stream differs from the one-lane call order (seed accounting, not result
    quality).  The episode-identity guarantee likewise assumes deterministic
    episode starts (the default ``"center"`` initial sizing) — ``"random"``
    starts draw from each lane's own RNG stream.
    """
    if not isinstance(vector_env, BatchedCircuitEnv):
        raise TypeError(
            f"deploy_policy_batch needs a VectorCircuitEnv, got {type(vector_env).__name__}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    results: List[DeploymentResult] = []
    targets = list(targets)
    with _max_steps_override(vector_env.envs, max_steps):
        for start in range(0, len(targets), vector_env.num_envs):
            chunk = targets[start : start + vector_env.num_envs]
            results.extend(
                _deploy_chunk(vector_env, policy, chunk, deterministic=deterministic, rng=rng)
            )
    return results


def _deploy_chunk(
    vector_env: BatchedCircuitEnv,
    policy: ActorCriticPolicy,
    targets: Sequence[Mapping[str, float]],
    deterministic: bool,
    rng: np.random.Generator,
) -> List[DeploymentResult]:
    """Run one lock-step micro-batch (at most ``num_envs`` episodes)."""
    envs = vector_env.envs[: len(targets)]
    batch = vector_env.reset_selected(range(len(targets)), targets)
    results: List[Optional[DeploymentResult]] = [None] * len(targets)
    active = list(range(len(targets)))
    while active:
        actions = policy.select_action_batch(batch, rng, deterministic=deterministic)
        batch, _, dones, _ = vector_env.step_selected(active, actions)
        if not dones.any():
            continue
        for row in np.flatnonzero(dones):
            index = active[row]
            trajectory = envs[index].trajectory
            assert trajectory is not None
            results[index] = DeploymentResult(
                target_specs=dict(targets[index]),
                success=trajectory.success,
                steps=trajectory.length,
                final_specs=dict(envs[index].measured_specs),
                trajectory=trajectory,
            )
        still_active = np.flatnonzero(~dones)
        active = [active[row] for row in still_active]
        if active:
            batch = batch.take(still_active)
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def evaluate_deployment(
    env: CircuitDesignEnv,
    policy: ActorCriticPolicy,
    num_targets: int = 200,
    seed: Optional[int] = None,
    targets: Optional[Sequence[Mapping[str, float]]] = None,
    deterministic: bool = True,
    batch_size: Optional[int] = None,
) -> DeploymentEvaluation:
    """Deploy the policy over a batch of specification groups.

    The paper evaluates each point of the Fig. 3 accuracy curves on 200
    randomly sampled groups; ``num_targets`` controls that batch size here.
    Pass an explicit ``targets`` sequence to evaluate every method on the
    identical batch (as done by the Table 2 harness).

    Episodes run on ``env`` itself, one after another, unless
    ``batch_size > 1``: then they are micro-batched over a
    :class:`~repro.parallel.VectorCircuitEnv` sharing one simulation cache
    (see :func:`deploy_policy_batch`); deterministic evaluations report
    exactly the same metrics, just faster.
    """
    rng = np.random.default_rng(seed)
    if targets is None:
        targets = env.benchmark.spec_space.sample_batch(rng, num_targets)
    lanes: BatchedCircuitEnv = env.engine
    if batch_size is not None and batch_size > 1 and len(targets) > 1:
        # Seed the sub-environments from this function's seed so stochastic
        # episode starts (initial_sizing="random") stay reproducible run to
        # run; an unseeded call stays unseeded, like the sequential path.
        lanes = VectorCircuitEnv.from_env(
            env,
            num_envs=min(int(batch_size), len(targets)),
            seed=seed,
            autoreset=False,
        )
    return DeploymentEvaluation(
        results=deploy_policy_batch(lanes, policy, targets, deterministic=deterministic, rng=rng)
    )


@dataclass
class FomRollouts:
    """Greedy FoM episodes: every step's figure of merit and the best step."""

    foms: List[float] = field(default_factory=list)
    best_fom: float = -np.inf
    best_specs: Dict[str, float] = field(default_factory=dict)
    best_parameters: Optional[np.ndarray] = None


def greedy_fom_rollouts(
    env: CircuitDesignEnv,
    policy: ActorCriticPolicy,
    episodes: int,
    rng: np.random.Generator,
) -> FomRollouts:
    """Greedy roll-outs on a FoM environment; keep the best FoM seen.

    FoM episodes have no goal, so each runs its full step budget; the first
    step reaching the highest figure of merit is the best one.
    """
    rollouts = FomRollouts()
    for _ in range(episodes):
        observation = env.reset()
        done = False
        while not done:
            action = policy.select_action(observation, rng, deterministic=True)
            observation, _, done, info = env.step(action)
            fom = float(info["figure_of_merit"])
            rollouts.foms.append(fom)
            if fom > rollouts.best_fom:
                rollouts.best_fom = fom
                rollouts.best_specs = dict(info["specs"])
                rollouts.best_parameters = env.parameter_values
    return rollouts
