"""Figure-of-merit optimization experiments (Fig. 7 and the last Table 2 column).

For the RF PA the paper additionally maximizes the figure of merit
``FoM = P + 3·E`` (output power plus three times power efficiency).  The RL
methods are retrained with the FoM reward; the GA and BO baselines maximize
the FoM directly.  The paper reports final FoM values of 3.25 (GAT-FC),
3.18 (GCN-FC), ~2.9 / ~2.8 for the RL baselines, 2.61 (BO) and 2.53 (GA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.agents.deployment import greedy_fom_rollouts
from repro.agents.policy import ActorCriticPolicy
from repro.agents.ppo import PPOTrainer, TrainingHistory
from repro.api.catalog import make_env, make_optimizer, make_policy
from repro.experiments.configs import ExperimentScale, bench_scale, rl_hyperparameters


@dataclass
class FomTrainingResult:
    """FoM-optimization outcome of one RL method."""

    method: str
    history: TrainingHistory
    policy: ActorCriticPolicy
    best_fom: float
    final_specs: Dict[str, float]


def _best_fom_from_policy(
    policy: ActorCriticPolicy, seed: int = 0, episodes: int = 3
) -> tuple[float, Dict[str, float]]:
    """Greedy roll-outs on the fine FoM environment; return the best FoM seen."""
    rollouts = greedy_fom_rollouts(
        make_env("rf_pa-fom-v0", seed=seed), policy, episodes, np.random.default_rng(seed)
    )
    return float(rollouts.best_fom), rollouts.best_specs


def run_fom_training(
    method: str,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    total_episodes: Optional[int] = None,
) -> FomTrainingResult:
    """Train one RL method with the FoM reward (coarse simulator, per the
    transfer-learning protocol) and measure the best FoM on the fine simulator."""
    scale = scale or bench_scale()
    env = make_env("rf_pa-fom-coarse-v0", seed=seed)
    rng = np.random.default_rng(seed)
    policy = make_policy(method, env, rng)
    hyper = rl_hyperparameters("rf_pa")
    trainer = PPOTrainer(env, policy, config=hyper["ppo"], seed=seed, method_name=f"{method}_fom")
    episodes = total_episodes or scale.rf_pa_training_episodes
    history = trainer.train(
        total_episodes=episodes,
        episodes_per_update=scale.episodes_per_update,
        eval_interval=None,
    )
    best_fom, best_specs = _best_fom_from_policy(policy, seed=seed)
    return FomTrainingResult(
        method=method, history=history, policy=policy, best_fom=best_fom, final_specs=best_specs
    )


@dataclass
class FomOptimizerResult:
    """FoM achieved by an optimization baseline (GA / BO)."""

    method: str
    best_fom: float
    num_simulations: int
    curve: np.ndarray


def run_fom_optimizer(
    method: str, seed: int = 0, budget: Optional[int] = None
) -> FomOptimizerResult:
    """Maximize the PA figure of merit with GA or BO on the fine simulator."""
    env = make_env("rf_pa-fom-v0", seed=seed)
    optimizer = make_optimizer(method)
    result = optimizer.optimize(env, budget=budget, seed=seed)
    return FomOptimizerResult(
        method=method,
        best_fom=float(result.best_objective),
        num_simulations=result.num_simulations,
        curve=result.trace.best_curve(),
    )
