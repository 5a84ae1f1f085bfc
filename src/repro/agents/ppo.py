"""Proximal Policy Optimization trainer (Algorithm 1 of the paper).

The trainer alternates between

1. collecting a batch of episodes from the circuit design environment with
   the current stochastic policy,
2. computing rewards-to-go and GAE(λ) advantage estimates, and
3. several epochs of minibatch updates maximizing the clipped surrogate
   objective (Eq. 3) with Adam, plus a value-regression loss and an entropy
   bonus.  Each minibatch is stacked into one
   :class:`~repro.env.spaces.BatchedObservation` and evaluated by a single
   batched :meth:`~repro.agents.policy.ActorCriticPolicy.evaluate_actions`
   call, so the loss is one vector expression and one autograd graph per
   minibatch.

Training progress is recorded as the three curves the paper plots in Fig. 3:
mean episode reward, mean episode length, and (optionally, every
``eval_interval`` updates) deployment accuracy over a batch of freshly
sampled specification groups.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.agents.deployment import evaluate_deployment
from repro.agents.policy import ActorCriticPolicy
from repro.agents.rollout import RolloutBuffer
from repro.env.circuit_env import CircuitDesignEnv
from repro.env.spaces import BatchedObservation
from repro.nn.functional import explained_variance
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, minimum
from repro.parallel.vector_env import VectorCircuitEnv


@dataclass
class PPOConfig:
    """Hyper-parameters of the PPO loop."""

    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    update_epochs: int = 4
    minibatch_size: int = 64
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must be in (0, 1)")
        if self.update_epochs <= 0 or self.minibatch_size <= 0:
            raise ValueError("update_epochs and minibatch_size must be positive")


@dataclass
class TrainingRecord:
    """One row of the training curves (one policy update)."""

    update: int
    episodes_seen: int
    mean_episode_reward: float
    mean_episode_length: float
    policy_loss: float
    value_loss: float
    entropy: float
    explained_variance: float
    deployment_accuracy: Optional[float] = None


@dataclass
class TrainingHistory:
    """Full training log: the data behind the Fig. 3 / Fig. 7 curves."""

    method: str
    circuit: str
    records: List[TrainingRecord] = field(default_factory=list)

    def episodes_axis(self) -> np.ndarray:
        return np.array([r.episodes_seen for r in self.records])

    def series(self, name: str) -> np.ndarray:
        values = [getattr(r, name) for r in self.records]
        return np.array([np.nan if v is None else v for v in values], dtype=np.float64)

    @property
    def final_mean_reward(self) -> float:
        return self.records[-1].mean_episode_reward if self.records else float("nan")

    @property
    def final_mean_length(self) -> float:
        return self.records[-1].mean_episode_length if self.records else float("nan")

    @property
    def final_deployment_accuracy(self) -> Optional[float]:
        accuracies = [
            r.deployment_accuracy for r in self.records if r.deployment_accuracy is not None
        ]
        return accuracies[-1] if accuracies else None


class PPOTrainer:
    """PPO training loop binding a policy to a circuit design environment.

    ``env`` may be a sequential :class:`CircuitDesignEnv` or a
    :class:`~repro.parallel.VectorCircuitEnv`; with a vector env, rollouts
    are collected from all sub-environments at once through the policy's
    batched forward pass while deployment evaluations keep using the first
    sub-environment (they are single-trajectory by definition).

    With ``checkpoint_dir`` set, the trainer persists the policy as an
    on-disk checkpoint (:func:`repro.agents.checkpoint.save_checkpoint`)
    every ``checkpoint_interval`` updates — ``update_00004.npz``, ... — plus
    a ``latest.npz`` refreshed at each emission and once more when
    :meth:`train` returns, so an interrupted training run always leaves a
    servable policy behind.
    """

    def __init__(
        self,
        env: Union[CircuitDesignEnv, VectorCircuitEnv],
        policy: ActorCriticPolicy,
        config: Optional[PPOConfig] = None,
        seed: Optional[int] = None,
        method_name: str = "gnn_fc",
        checkpoint_dir: Optional[Union[str, "Path"]] = None,
        checkpoint_interval: int = 10,
        env_id: Optional[str] = None,
    ) -> None:
        if isinstance(env, VectorCircuitEnv):
            if not env.autoreset:
                raise ValueError(
                    "PPOTrainer needs a VectorCircuitEnv with autoreset=True "
                    "(episodes are collected continuously across the batch)"
                )
            self.vector_env: Optional[VectorCircuitEnv] = env
            self.env = env.envs[0]
        else:
            self.vector_env = None
            self.env = env
        self.policy = policy
        self.config = config or PPOConfig()
        self.rng = np.random.default_rng(seed)
        self.method_name = method_name
        self.optimizer = Adam(policy.parameters(), lr=self.config.learning_rate)
        self.history = TrainingHistory(method=method_name, circuit=env.benchmark.name)
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.checkpoint_interval = int(checkpoint_interval)
        self.env_id = env_id
        self._episodes_seen = 0
        self._updates_done = 0
        self._last_checkpoint_update = -1

    # ------------------------------------------------------------------
    # Checkpoint emission
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: Optional[Union[str, "Path"]] = None) -> "Path":
        """Persist the current policy; default path is under ``checkpoint_dir``."""
        from repro.agents.checkpoint import save_checkpoint

        if path is None:
            if self.checkpoint_dir is None:
                raise ValueError("no path given and the trainer has no checkpoint_dir")
            path = self.checkpoint_dir / f"update_{self._updates_done:05d}.npz"
        return save_checkpoint(
            path,
            self.policy,
            policy_id=self.method_name,
            env_id=self.env_id,
            extra={
                "update": self._updates_done,
                "episodes_seen": self._episodes_seen,
                "circuit": self.env.benchmark.name,
            },
        )

    def _emit_checkpoints(self, final: bool = False) -> None:
        if self.checkpoint_dir is None:
            return
        if self._last_checkpoint_update == self._updates_done:
            return  # this update's checkpoint is already on disk
        latest = self.checkpoint_dir / "latest.npz"
        # The numbered periodic file is only written for a *completed*
        # update; an interruption before the first update still refreshes
        # latest.npz (extra["update"] == 0 marks it untrained) via `final`.
        if self._updates_done > 0 and self._updates_done % self.checkpoint_interval == 0:
            # Serialize once; latest.npz is a byte-for-byte copy, swapped in
            # atomically so a concurrent reader never sees a partial file.
            scratch = latest.with_name(latest.name + ".tmp")
            shutil.copyfile(self.save_checkpoint(), scratch)
            scratch.replace(latest)
            self._last_checkpoint_update = self._updates_done
        elif final:
            self.save_checkpoint(latest)  # atomic (temp + replace) internally
            self._last_checkpoint_update = self._updates_done

    # ------------------------------------------------------------------
    # Rollout collection
    # ------------------------------------------------------------------
    def collect_episodes(self, num_episodes: int) -> RolloutBuffer:
        """Run ``num_episodes`` full episodes with the stochastic policy."""
        if num_episodes <= 0:
            raise ValueError("num_episodes must be positive")
        if self.vector_env is not None:
            return self._collect_episodes_vector(num_episodes)
        buffer = RolloutBuffer(gamma=self.config.gamma, gae_lambda=self.config.gae_lambda)
        for _ in range(num_episodes):
            observation = self.env.reset()
            done = False
            while not done:
                action, log_prob, value = self.policy.act(observation, self.rng)
                next_observation, reward, done, _ = self.env.step(action)
                buffer.add(observation, action, log_prob, value, reward, done)
                observation = next_observation
            self._episodes_seen += 1
        return buffer

    def _collect_episodes_vector(self, num_episodes: int) -> RolloutBuffer:
        """Collect episodes from all sub-environments of the vector env.

        Sub-environments run continuously (autoreset); whole episodes are
        flushed into the buffer as they complete, keeping each episode's
        transitions contiguous with ``done=True`` on the last one — exactly
        the layout :meth:`RolloutBuffer.compute_returns_and_advantages`
        expects.  Partial episodes still in flight once the budget is reached
        are discarded (they would be off-policy by the next update anyway).
        """
        vector_env = self.vector_env
        assert vector_env is not None
        buffer = RolloutBuffer(gamma=self.config.gamma, gae_lambda=self.config.gae_lambda)
        pending: List[List[tuple]] = [[] for _ in range(vector_env.num_envs)]
        flushed = 0
        observations = vector_env.reset()
        while flushed < num_episodes:
            actions, log_probs, values = self.policy.act_batch(observations, self.rng)
            next_observations, rewards, dones, _ = vector_env.step(actions)
            for index in range(vector_env.num_envs):
                pending[index].append(
                    (
                        observations[index],
                        actions[index],
                        log_probs[index],
                        values[index],
                        rewards[index],
                        dones[index],
                    )
                )
                if dones[index]:
                    if flushed < num_episodes:
                        for transition in pending[index]:
                            buffer.add(*transition)
                        flushed += 1
                        self._episodes_seen += 1
                    pending[index] = []
            observations = next_observations
        return buffer

    # ------------------------------------------------------------------
    # PPO update
    # ------------------------------------------------------------------
    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """Run the clipped-objective update epochs over one rollout buffer."""
        config = self.config
        buffer.compute_returns_and_advantages(normalize=config.normalize_advantages)
        assert buffer.advantages is not None and buffer.returns is not None

        policy_losses: List[np.ndarray] = []
        value_losses: List[np.ndarray] = []
        entropies: List[np.ndarray] = []
        value_predictions = np.zeros(len(buffer))

        for _ in range(config.update_epochs):
            for indices in buffer.minibatch_indices(self.rng, config.minibatch_size):
                loss, policy_loss, value_loss, entropy, values = self._minibatch_loss(
                    buffer, indices
                )
                value_predictions[indices] = values
                policy_losses.append(policy_loss)
                value_losses.append(value_loss)
                entropies.append(entropy)
                self.optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(self.policy.parameters(), config.max_grad_norm)
                self.optimizer.step()

        return {
            "policy_loss": float(np.mean(np.concatenate(policy_losses))),
            "value_loss": float(np.mean(np.concatenate(value_losses))),
            "entropy": float(np.mean(np.concatenate(entropies))),
            "explained_variance": explained_variance(value_predictions, buffer.returns),
        }

    def _minibatch_loss(
        self, buffer: RolloutBuffer, indices: np.ndarray
    ) -> Tuple[Tensor, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The clipped-surrogate loss of one minibatch, from one batched forward.

        Returns the scalar loss (the mean of the per-transition losses) and
        the per-transition policy losses, value losses, entropies and value
        predictions as arrays.
        """
        config = self.config
        transitions = [buffer.transitions[index] for index in indices]
        batch = BatchedObservation.stack([t.observation for t in transitions])
        actions = np.stack([t.action for t in transitions])
        old_log_probs = np.array([t.log_prob for t in transitions])
        advantages = buffer.advantages[indices]
        log_probs, values, entropies = self.policy.evaluate_actions(batch, actions)
        ratio = (log_probs - old_log_probs).exp()
        unclipped = ratio * advantages
        clipped = ratio.clip(1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * advantages
        policy_loss = -minimum(unclipped, clipped)
        value_error = values - buffer.returns[indices]
        value_loss = value_error * value_error
        loss = (
            policy_loss + config.value_coef * value_loss - config.entropy_coef * entropies
        ).mean()
        return loss, policy_loss.numpy(), value_loss.numpy(), entropies.numpy(), values.numpy()

    # ------------------------------------------------------------------
    # Full training loop
    # ------------------------------------------------------------------
    def train(
        self,
        total_episodes: int,
        episodes_per_update: int = 8,
        eval_interval: Optional[int] = None,
        eval_specs: int = 20,
        eval_seed: int = 12345,
    ) -> TrainingHistory:
        """Train until ``total_episodes`` episodes have been collected.

        Parameters
        ----------
        total_episodes:
            Episode budget (3.5e4 / 3.5e3 in the paper; reduced in benches).
        episodes_per_update:
            Episodes collected per PPO update (the trajectory set D_k).
        eval_interval:
            Evaluate deployment accuracy every this many updates (None
            disables evaluation inside the loop).
        eval_specs:
            Number of freshly sampled specification groups per evaluation.
        eval_seed:
            Seed for the evaluation spec sampler, fixed so every method is
            evaluated on the same target groups.
        """
        if total_episodes <= 0:
            raise ValueError("total_episodes must be positive")
        try:
            self._train_loop(total_episodes, episodes_per_update, eval_interval,
                             eval_specs, eval_seed)
        except BaseException:
            # Best-effort emission on interruption, so a checkpoint_dir ends
            # up with a servable latest.npz reflecting the newest completed
            # update — without a failed write masking the real exception.
            try:
                self._emit_checkpoints(final=True)
            except OSError:
                pass
            raise
        self._emit_checkpoints(final=True)
        return self.history

    def _train_loop(
        self,
        total_episodes: int,
        episodes_per_update: int,
        eval_interval: Optional[int],
        eval_specs: int,
        eval_seed: int,
    ) -> None:
        while self._episodes_seen < total_episodes:
            remaining = total_episodes - self._episodes_seen
            batch = min(episodes_per_update, remaining)
            buffer = self.collect_episodes(batch)
            stats = self.update(buffer)
            self._updates_done += 1
            self._emit_checkpoints()

            accuracy: Optional[float] = None
            if eval_interval is not None and self._updates_done % eval_interval == 0:
                evaluation = evaluate_deployment(
                    self.env, self.policy, num_targets=eval_specs, seed=eval_seed
                )
                accuracy = evaluation.accuracy

            rewards = buffer.episode_rewards()
            lengths = buffer.episode_lengths()
            self.history.records.append(
                TrainingRecord(
                    update=self._updates_done,
                    episodes_seen=self._episodes_seen,
                    mean_episode_reward=float(np.mean(rewards)) if rewards else float("nan"),
                    mean_episode_length=float(np.mean(lengths)) if lengths else float("nan"),
                    policy_loss=stats["policy_loss"],
                    value_loss=stats["value_loss"],
                    entropy=stats["entropy"],
                    explained_variance=stats["explained_variance"],
                    deployment_accuracy=accuracy,
                )
            )
