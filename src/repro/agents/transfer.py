"""Transfer learning: across simulator fidelities and across topologies.

Section 3 ("Transfer Learning") of the paper: harmonic-balance simulation of
the RF PA is too slow to sit inside the RL training loop, so the agent is
trained against a fast-but-rough DC characterization whose rewards track the
HB rewards within roughly ±10 %, and the *learned policy* is then deployed
against the accurate HB simulator.  This module packages that workflow:

* :func:`reward_fidelity_report` quantifies the coarse-vs-fine reward error
  over random designs (the paper's ±10 % claim);
* :class:`TransferLearningWorkflow` trains a policy on the coarse
  environment, optionally fine-tunes it briefly on the fine environment, and
  evaluates deployment accuracy on the fine environment;
* :func:`transfer_policy_parameters` is the *cross-topology* primitive: the
  GNN branch of the paper's policy operates on per-node features whose
  dimension is topology-independent, so its weights — the "underlying
  physics" extractor — carry over between circuits even when the action and
  specification heads must be re-initialized.  The topology-zoo transfer
  matrix (:mod:`repro.experiments.transfer_matrix`) is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.agents.deployment import DeploymentEvaluation, evaluate_deployment
from repro.agents.policy import ActorCriticPolicy
from repro.agents.ppo import PPOConfig, PPOTrainer, TrainingHistory
from repro.env.circuit_env import CircuitDesignEnv
from repro.env.reward import P2SReward
from repro.nn.module import Module


def transfer_policy_parameters(source: Module, target: Module) -> List[str]:
    """Copy every parameter whose dotted name *and* shape match.

    Between two :class:`ActorCriticPolicy` instances built for different
    circuit topologies this transfers the full GNN branch (its layer shapes
    depend only on the topology-independent node-feature dimension) and any
    hidden layers whose widths coincide, while the input-size-dependent
    layers (spec encoder input, action/value heads) keep their fresh
    initialization.  Returns the names of the copied parameters, so callers
    can report how much of the network transferred.
    """
    source_state = source.state_dict()
    copied: List[str] = []
    for name, parameter in target.named_parameters():
        value = source_state.get(name)
        if value is not None and value.shape == parameter.data.shape:
            parameter.data = value.copy()
            copied.append(name)
    return copied


@dataclass
class RewardFidelityReport:
    """Statistics of the coarse-simulator reward error versus the fine one."""

    mean_abs_error: float
    p90_abs_error: float
    max_abs_error: float
    mean_abs_relative_error: float
    num_samples: int


def reward_fidelity_report(
    coarse_env: CircuitDesignEnv,
    fine_env: CircuitDesignEnv,
    num_samples: int = 200,
    seed: Optional[int] = None,
) -> RewardFidelityReport:
    """Compare Eq. (1) rewards computed from coarse vs fine simulations.

    Random designs and random targets are sampled; for each pair the reward
    is evaluated under both simulators and the absolute and relative errors
    are aggregated.  Relative errors are measured on the raw (pre-bonus)
    normalized-difference reward, mirroring the paper's "approximated rewards
    are often in ±10 % error range" statement.
    """
    if coarse_env.benchmark.name != fine_env.benchmark.name:
        raise ValueError("coarse and fine environments must wrap the same circuit")
    rng = np.random.default_rng(seed)
    benchmark = fine_env.benchmark
    spec_space = benchmark.spec_space
    reward_fn = P2SReward(spec_space)

    abs_errors = []
    rel_errors = []
    for _ in range(num_samples):
        parameters = benchmark.design_space.sample(rng)
        target = spec_space.sample(rng)
        netlist = benchmark.fresh_netlist()
        benchmark.design_space.apply_to_netlist(netlist, parameters)
        fine_result = fine_env.simulator.simulate(netlist)
        coarse_result = coarse_env.simulator.simulate(netlist)
        fine_reward = float(spec_space.normalized_errors(fine_result.specs, target).sum())
        coarse_reward = float(spec_space.normalized_errors(coarse_result.specs, target).sum())
        error = abs(fine_reward - coarse_reward)
        abs_errors.append(error)
        if abs(fine_reward) > 1e-6:
            rel_errors.append(error / abs(fine_reward))
    abs_errors = np.array(abs_errors)
    rel_errors = np.array(rel_errors) if rel_errors else np.array([0.0])
    return RewardFidelityReport(
        mean_abs_error=float(abs_errors.mean()),
        p90_abs_error=float(np.percentile(abs_errors, 90)),
        max_abs_error=float(abs_errors.max()),
        mean_abs_relative_error=float(rel_errors.mean()),
        num_samples=num_samples,
    )


@dataclass
class TransferLearningResult:
    """Outcome of the coarse-train / fine-deploy workflow."""

    coarse_history: TrainingHistory
    fine_tune_history: Optional[TrainingHistory]
    coarse_accuracy: float
    fine_accuracy: float
    fine_evaluation: DeploymentEvaluation


class TransferLearningWorkflow:
    """Train on the coarse environment, deploy (and evaluate) on the fine one.

    Parameters
    ----------
    coarse_env, fine_env:
        Two environments wrapping the *same* benchmark with different
        simulator fidelities.
    policy:
        The actor-critic policy to train; the same parameter set is reused on
        the fine environment (the networks only see specs and netlist state,
        so they transfer directly).
    config:
        PPO hyper-parameters shared by both phases.
    """

    def __init__(
        self,
        coarse_env: CircuitDesignEnv,
        fine_env: CircuitDesignEnv,
        policy: ActorCriticPolicy,
        config: Optional[PPOConfig] = None,
        seed: Optional[int] = None,
        method_name: str = "gnn_fc_transfer",
    ) -> None:
        if coarse_env.benchmark.name != fine_env.benchmark.name:
            raise ValueError("coarse and fine environments must wrap the same circuit")
        self.coarse_env = coarse_env
        self.fine_env = fine_env
        self.policy = policy
        self.config = config or PPOConfig()
        self.seed = seed
        self.method_name = method_name

    def run(
        self,
        coarse_episodes: int,
        fine_tune_episodes: int = 0,
        episodes_per_update: int = 8,
        eval_targets: int = 50,
        eval_seed: int = 2024,
    ) -> TransferLearningResult:
        """Execute the full workflow and return accuracies on both fidelities."""
        coarse_trainer = PPOTrainer(
            self.coarse_env, self.policy, config=self.config, seed=self.seed,
            method_name=f"{self.method_name}_coarse",
        )
        coarse_history = coarse_trainer.train(
            total_episodes=coarse_episodes, episodes_per_update=episodes_per_update
        )

        fine_history: Optional[TrainingHistory] = None
        if fine_tune_episodes > 0:
            fine_trainer = PPOTrainer(
                self.fine_env, self.policy, config=self.config, seed=self.seed,
                method_name=f"{self.method_name}_fine_tune",
            )
            fine_history = fine_trainer.train(
                total_episodes=fine_tune_episodes, episodes_per_update=episodes_per_update
            )

        coarse_eval = evaluate_deployment(
            self.coarse_env, self.policy, num_targets=eval_targets, seed=eval_seed
        )
        fine_eval = evaluate_deployment(
            self.fine_env, self.policy, num_targets=eval_targets, seed=eval_seed
        )
        return TransferLearningResult(
            coarse_history=coarse_history,
            fine_tune_history=fine_history,
            coarse_accuracy=coarse_eval.accuracy,
            fine_accuracy=fine_eval.accuracy,
            fine_evaluation=fine_eval,
        )
