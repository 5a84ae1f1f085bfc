"""Training-curve experiments (Fig. 3, first three columns).

For each RL method (GAT-FC, GCN-FC, Baseline A, Baseline B) and each circuit
(two-stage op-amp, RF PA) the paper plots mean episode reward, mean episode
length and deployment accuracy against the number of trained episodes,
averaged over random seeds.  :func:`run_training_experiment` reproduces one
(method, circuit) cell and :func:`run_fig3_training` sweeps a whole figure
row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.agents.policy import ActorCriticPolicy
from repro.agents.ppo import PPOConfig, PPOTrainer, TrainingHistory
from repro.api.catalog import ENVS, list_envs, make_env, make_policy
from repro.env.circuit_env import CircuitDesignEnv
from repro.experiments.configs import ExperimentScale, RL_METHODS, bench_scale, rl_hyperparameters

#: Training env registry IDs per (circuit, fidelity) — the paper's protocol:
#: RF PA agents train on the coarse simulator, every analytic circuit (the
#: op-amp and the three topology-zoo circuits) has a single fast evaluator
#: serving both fidelities.
CIRCUIT_ENV_IDS = {
    "two_stage_opamp": {"coarse": "opamp-p2s-v0", "fine": "opamp-p2s-v0"},
    "folded_cascode": {
        "coarse": "folded_cascode-p2s-v0", "fine": "folded_cascode-p2s-v0",
    },
    "current_mirror_ota": {
        "coarse": "current_mirror_ota-p2s-v0", "fine": "current_mirror_ota-p2s-v0",
    },
    "common_source_lna": {
        "coarse": "common_source_lna-p2s-v0", "fine": "common_source_lna-p2s-v0",
    },
    "rf_pa": {"coarse": "rf_pa-coarse-v0", "fine": "rf_pa-fine-v0"},
}

#: Circuits recognized by the training harness.
CIRCUITS = tuple(CIRCUIT_ENV_IDS)


def make_environment(
    circuit: str, seed: Optional[int] = None, fidelity: Optional[str] = None
) -> CircuitDesignEnv:
    """Build the training environment for a circuit (or registry env ID).

    ``circuit`` may be a paper circuit name (``"two_stage_opamp"``,
    ``"rf_pa"``) — resolved through :data:`CIRCUIT_ENV_IDS` with the
    paper's per-circuit episode lengths — or any registered environment ID
    (see ``repro.list_envs()``), built with the registry defaults.

    ``fidelity`` defaults to ``"coarse"`` for circuit names (the paper's
    transfer-learning protocol); an env ID already encodes its fidelity, so
    combining one with an explicit ``fidelity`` is rejected rather than
    silently ignored.
    """
    if circuit in CIRCUIT_ENV_IDS:
        fidelities = CIRCUIT_ENV_IDS[circuit]
        fidelity = fidelity or "coarse"
        if fidelity not in fidelities:
            raise ValueError(
                f"unknown fidelity '{fidelity}' for circuit '{circuit}', "
                f"expected one of {sorted(fidelities)}"
            )
        hyper = rl_hyperparameters(circuit)
        return make_env(fidelities[fidelity], seed=seed, max_steps=hyper["max_steps"])
    if circuit in ENVS:
        if fidelity is not None:
            raise ValueError(
                f"'{circuit}' is an environment id, which already encodes its fidelity; "
                f"drop the fidelity argument or pick the matching id from repro.list_envs()"
            )
        return make_env(circuit, seed=seed)
    raise ValueError(
        f"unknown circuit '{circuit}': expected a circuit name from {CIRCUITS} "
        f"or an environment id from repro.list_envs() = {list_envs()}"
    )


@dataclass
class MethodTrainingResult:
    """Training outcome of one (method, circuit, seed) run."""

    method: str
    circuit: str
    seed: int
    history: TrainingHistory
    policy: ActorCriticPolicy
    env: CircuitDesignEnv


@dataclass
class TrainingCurves:
    """Per-method training curves aggregated over seeds (one Fig. 3 line)."""

    method: str
    circuit: str
    runs: List[MethodTrainingResult] = field(default_factory=list)

    def episodes_axis(self) -> np.ndarray:
        return self.runs[0].history.episodes_axis()

    @property
    def final_mean_reward(self) -> float:
        return float(np.mean([run.history.final_mean_reward for run in self.runs]))

    @property
    def final_mean_length(self) -> float:
        return float(np.mean([run.history.final_mean_length for run in self.runs]))

    @property
    def final_deployment_accuracy(self) -> float:
        values = [
            run.history.final_deployment_accuracy
            for run in self.runs
            if run.history.final_deployment_accuracy is not None
        ]
        return float(np.mean(values)) if values else float("nan")


def run_training_experiment(
    circuit: str,
    method: str,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    total_episodes: Optional[int] = None,
    track_accuracy: bool = True,
) -> MethodTrainingResult:
    """Train one method on one circuit for one seed and return the history."""
    scale = scale or bench_scale()
    env = make_environment(circuit, seed=seed)
    rng = np.random.default_rng(seed)
    policy = make_policy(method, env, rng)
    hyper = rl_hyperparameters(circuit)
    ppo_config: PPOConfig = hyper["ppo"]
    trainer = PPOTrainer(env, policy, config=ppo_config, seed=seed, method_name=method)
    if total_episodes is None:
        total_episodes = (
            scale.opamp_training_episodes
            if circuit == "two_stage_opamp"
            else scale.rf_pa_training_episodes
        )
    history = trainer.train(
        total_episodes=total_episodes,
        episodes_per_update=scale.episodes_per_update,
        eval_interval=scale.eval_interval if track_accuracy else None,
        eval_specs=scale.eval_specs,
    )
    return MethodTrainingResult(
        method=method, circuit=circuit, seed=seed, history=history, policy=policy, env=env
    )


def run_fig3_training(
    circuit: str,
    methods: Sequence[str] = RL_METHODS,
    scale: Optional[ExperimentScale] = None,
    seeds: Optional[Sequence[int]] = None,
    track_accuracy: bool = True,
) -> Dict[str, TrainingCurves]:
    """Reproduce one row of Fig. 3 (all RL methods on one circuit)."""
    scale = scale or bench_scale()
    if seeds is None:
        seeds = tuple(range(scale.num_seeds))
    curves: Dict[str, TrainingCurves] = {}
    for method in methods:
        method_curves = TrainingCurves(method=method, circuit=circuit)
        for seed in seeds:
            method_curves.runs.append(
                run_training_experiment(
                    circuit, method, scale=scale, seed=seed, track_accuracy=track_accuracy
                )
            )
        curves[method] = method_curves
    return curves
