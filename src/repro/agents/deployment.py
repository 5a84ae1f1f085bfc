"""Policy deployment: using a trained policy to design circuits.

"Policy deployment applies a trained policy to automatically find the device
parameters for given specifications" (Sec. 4).  This module implements

* :func:`deploy_policy` — run one deployment episode for one specification
  group and return its trajectory (the data behind Fig. 5 and Fig. 6),
* :func:`deploy_policy_batch` — run many specification-group episodes
  lock-step on a :class:`~repro.parallel.VectorCircuitEnv`, paying one
  batched policy forward and one ``step_selected`` call over the
  still-active lanes per step instead of one of each per episode (on a
  ``compile=True`` vector env that step runs the compiled episode plan;
  episode-level results identical to sequential :func:`deploy_policy`), and
* :func:`evaluate_deployment` — deploy over a batch of sampled specification
  groups and report the two headline Table 2 metrics: *design accuracy*
  (fraction of groups for which all specs are met within the step budget)
  and *mean number of design steps*.

Deployment never back-propagates, so by default both entry points use the
policy's grad-free fast paths (:meth:`ActorCriticPolicy.select_action` /
``select_action_batch``) — pure-numpy actor forwards with no critic, no
log-probabilities, and no autograd graph.  Pass ``inference=False`` to run
the legacy grad-recording path (``benchmarks/bench_serve.py`` measures the
two against each other); the chosen actions are identical either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.agents.policy import ActorCriticPolicy
from repro.env.circuit_env import CircuitDesignEnv, EpisodeTrajectory
from repro.env.spaces import BatchedObservation

if TYPE_CHECKING:  # pragma: no cover - typing only
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

    @property
    def mean_successful_steps(self) -> float:
        """Mean steps counting only successful deployments (paper's metric)."""
        steps = [r.steps for r in self.results if r.success]
        return float(np.mean(steps)) if steps else float("nan")


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
    inference: bool = True,
) -> DeploymentResult:
    """Run one deployment episode toward ``target_specs``.

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
    inference:
        Use the grad-free pure-numpy action-selection fast path (default).
        ``False`` runs the legacy grad-recording ``policy.act`` path; the
        actions — and therefore the whole episode — are identical.
    """
    rng = rng if rng is not None else np.random.default_rng()
    with _max_steps_override([env], max_steps):
        observation = env.reset(target_specs=target_specs)
        done = False
        while not done:
            if inference:
                action = policy.select_action(observation, rng, deterministic=deterministic)
            else:
                action, _, _ = policy.act(
                    observation, rng, deterministic=deterministic, inference=False
                )
            observation, _, done, info = env.step(action)
        trajectory = env.trajectory
        assert trajectory is not None
        return DeploymentResult(
            target_specs=dict(target_specs),
            success=trajectory.success,
            steps=trajectory.length,
            final_specs=dict(env.measured_specs),
            trajectory=trajectory,
        )


def deploy_policy_batch(
    vector_env: "VectorCircuitEnv",
    policy: ActorCriticPolicy,
    targets: Sequence[Mapping[str, float]],
    deterministic: bool = True,
    rng: Optional[np.random.Generator] = None,
    max_steps: Optional[int] = None,
) -> List[DeploymentResult]:
    """Deploy one episode per target group, micro-batched over a vector env.

    Targets are processed in chunks of ``vector_env.num_envs``: each chunk's
    episodes run lock-step — one batched grad-free policy forward and one
    :meth:`~repro.parallel.VectorCircuitEnv.step_selected` call over the
    still-active lanes per step — with finished episodes dropping out of the
    batch, so every episode is exactly the step sequence the sequential
    :func:`deploy_policy` would have produced (deterministic deployment
    results are episode-level identical; the shared simulation cache changes
    cost, never values).  Built with ``compile=True``, the vector env runs
    those subset steps on its compiled episode plan when the topology has
    one, with bitwise-identical results.

    ``rng`` is only consulted for ``deterministic=False``; sampled actions
    then draw per lock-step batch, so the stochastic stream differs from the
    sequential call order (seed accounting, not result quality).  The
    episode-identity guarantee likewise assumes deterministic episode starts
    (the default ``"center"`` initial sizing) — ``"random"`` starts draw from
    each sub-environment's own RNG stream.
    """
    from repro.parallel.vector_env import VectorCircuitEnv  # local: avoid import cycle

    if not isinstance(vector_env, VectorCircuitEnv):
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
    vector_env: "VectorCircuitEnv",
    policy: ActorCriticPolicy,
    targets: Sequence[Mapping[str, float]],
    deterministic: bool,
    rng: np.random.Generator,
) -> List[DeploymentResult]:
    """Run one lock-step micro-batch (at most ``num_envs`` episodes)."""
    envs = vector_env.envs[: len(targets)]
    batch = BatchedObservation.stack(
        [env.reset(target_specs=target) for env, target in zip(envs, targets)]
    )
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
    inference: bool = True,
) -> DeploymentEvaluation:
    """Deploy the policy over a batch of specification groups.

    The paper evaluates each point of the Fig. 3 accuracy curves on 200
    randomly sampled groups; ``num_targets`` controls that batch size here.
    Pass an explicit ``targets`` sequence to evaluate every method on the
    identical batch (as done by the Table 2 harness).

    ``batch_size > 1`` micro-batches the episodes over a ``compile=True``
    :class:`~repro.parallel.VectorCircuitEnv` sharing one simulation cache
    (see :func:`deploy_policy_batch`); deterministic evaluations report
    exactly the sequential metrics, just faster.  The batched path is
    always grad-free, so it cannot be combined with ``inference=False``.
    """
    if batch_size is not None and batch_size > 1 and not inference:
        raise ValueError(
            "batched evaluation always uses the grad-free fast path; "
            "use batch_size=None (or 1) to exercise inference=False"
        )
    rng = np.random.default_rng(seed)
    if targets is None:
        targets = env.benchmark.spec_space.sample_batch(rng, num_targets)
    evaluation = DeploymentEvaluation()
    if batch_size is not None and batch_size > 1 and len(targets) > 1:
        from repro.parallel.vector_env import VectorCircuitEnv  # local: avoid import cycle

        # Seed the sub-environments from this function's seed so stochastic
        # episode starts (initial_sizing="random") stay reproducible run to
        # run; an unseeded call stays unseeded, like the sequential path.
        vector_env = VectorCircuitEnv.from_env(
            env,
            num_envs=min(int(batch_size), len(targets)),
            seed=seed,
            autoreset=False,
            compile=True,
        )
        evaluation.results.extend(
            deploy_policy_batch(
                vector_env, policy, targets, deterministic=deterministic, rng=rng
            )
        )
        return evaluation
    for target in targets:
        result = deploy_policy(
            env, policy, target, deterministic=deterministic, rng=rng, inference=inference
        )
        evaluation.results.append(result)
    return evaluation
