"""RL agents: the GNN-FC multimodal policy, prior-art policies, PPO, deployment."""

from repro.agents.checkpoint import (
    CheckpointError,
    PolicyCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.agents.deployment import (
    DeploymentEvaluation,
    DeploymentResult,
    deploy_policy,
    deploy_policy_batch,
    evaluate_deployment,
)
from repro.agents.policy import (
    POLICY_FACTORIES,
    ActorCriticPolicy,
    PolicyConfig,
)
from repro.agents.ppo import PPOConfig, PPOTrainer, TrainingHistory, TrainingRecord
from repro.agents.rollout import RolloutBuffer, Transition
from repro.agents.transfer import (
    RewardFidelityReport,
    TransferLearningResult,
    TransferLearningWorkflow,
    reward_fidelity_report,
    transfer_policy_parameters,
)

__all__ = [
    "ActorCriticPolicy",
    "CheckpointError",
    "DeploymentEvaluation",
    "DeploymentResult",
    "POLICY_FACTORIES",
    "PolicyCheckpoint",
    "PPOConfig",
    "PPOTrainer",
    "PolicyConfig",
    "RewardFidelityReport",
    "RolloutBuffer",
    "TrainingHistory",
    "TrainingRecord",
    "Transition",
    "TransferLearningResult",
    "TransferLearningWorkflow",
    "deploy_policy",
    "deploy_policy_batch",
    "evaluate_deployment",
    "load_checkpoint",
    "reward_fidelity_report",
    "save_checkpoint",
    "transfer_policy_parameters",
]
