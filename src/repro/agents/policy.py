"""Actor-critic policy networks: the paper's GNN-FC multimodal policy and the
prior-art baselines it is compared against.

The proposed policy (Fig. 2, "Agent") has two input branches:

* a **GNN branch** (GCN or GAT) over the full circuit graph whose node
  features contain the *dynamic* device parameters — this distills the
  circuit's "underlying physics" into a graph embedding;
* an **FCNN branch** over the specification context (desired and intermediate
  specifications) — this extracts the couplings / trade-offs between
  specifications;

whose embeddings are concatenated and processed by final FC layers into an
``M × 3`` matrix of action logits (decrease / keep / increase per tunable
parameter).  The critic shares the same structure but ends in a scalar value
head.

The baselines reproduce the prior RL methods as the paper describes them
(Sec. 4, "conservative comparisons"):

* **Baseline A** (AutoCkt [10]) — a plain FCNN over the vectorized
  specification context and normalized device parameters; no circuit graph.
* **Baseline B** (GCN-RL [11]) — a GNN over the circuit graph but *without*
  the specification-coupling FCNN branch; the raw specification vector is
  appended to the graph embedding just before the output layers.  Flags allow
  the original paper's weaker variants (partial topology, static technology
  node features) to be reproduced for the ablation benches.

Every forward is batch-first: the trunks, heads and action distribution run
over a :class:`~repro.env.spaces.BatchedObservation`, with one autograd path
(PPO's minibatch :meth:`ActorCriticPolicy.evaluate_actions`) and one
bitwise-equal pure-numpy path for everything that needs no gradient (PPO
rollouts through :meth:`ActorCriticPolicy.act_batch`, deployment through
:meth:`ActorCriticPolicy.select_action_batch`).  The single-observation
:meth:`ActorCriticPolicy.act` and :meth:`ActorCriticPolicy.select_action` are
row 0 of a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.env.spaces import NUM_ACTION_CHOICES, BatchedObservation, Observation
from repro.nn.distributions import BatchedMultiCategorical, sample_from_probs
from repro.nn.graph_layers import GraphEncoder
from repro.nn.layers import MLP, log_softmax_array
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concatenate


@dataclass
class PolicyConfig:
    """Hyper-parameters describing one actor-critic architecture.

    Parameters mirror the knobs compared in the paper:

    * ``use_graph`` / ``graph_kind`` — whether a GNN branch is present and
      whether it is a GCN or a GAT (GCN-FC vs GAT-FC vs Baseline A).
    * ``use_spec_encoder`` — whether the specification context is embedded by
      a dedicated FCNN branch (ours) or appended raw (Baseline B).
    * ``use_dynamic_node_features`` — dynamic device parameters (ours /
      upgraded Baseline B) versus static technology constants (original
      Baseline B).
    * ``include_parameters`` — whether the normalized parameter vector is part
      of the flat input (AutoCkt-style observation).
    """

    num_parameters: int
    spec_feature_dim: int
    node_feature_dim: int = 0
    num_graph_nodes: int = 0
    use_graph: bool = True
    graph_kind: str = "gcn"
    use_spec_encoder: bool = True
    use_dynamic_node_features: bool = True
    include_parameters: bool = True
    graph_hidden: Tuple[int, ...] = (32, 16)
    graph_readout: str = "concat"
    spec_hidden: Tuple[int, ...] = (32, 32)
    head_hidden: Tuple[int, ...] = (64,)
    gat_heads: int = 2
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.num_parameters <= 0:
            raise ValueError("num_parameters must be positive")
        if self.spec_feature_dim <= 0:
            raise ValueError("spec_feature_dim must be positive")
        if self.use_graph and self.node_feature_dim <= 0:
            raise ValueError("node_feature_dim must be positive when use_graph=True")
        if self.use_graph and self.graph_readout == "concat" and self.num_graph_nodes <= 0:
            raise ValueError("num_graph_nodes must be positive for the concat readout")
        if self.graph_kind not in {"gcn", "gat"}:
            raise ValueError("graph_kind must be 'gcn' or 'gat'")


class _FeatureTrunk(Module):
    """Shared feature-extraction trunk (graph branch + spec branch + merge)."""

    def __init__(self, config: PolicyConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        merged_dim = 0

        if config.use_graph:
            self.graph_encoder = GraphEncoder(
                layer_sizes=(config.node_feature_dim, *config.graph_hidden),
                rng=rng,
                kind=config.graph_kind,
                num_heads=config.gat_heads,
                activation=config.activation,
                readout=config.graph_readout,
                num_nodes=config.num_graph_nodes or None,
            )
            merged_dim += self.graph_encoder.out_features

        flat_dim = config.spec_feature_dim
        if config.include_parameters:
            flat_dim += config.num_parameters
        self.flat_input_dim = flat_dim

        if config.use_spec_encoder:
            self.spec_encoder = MLP(
                (flat_dim, *config.spec_hidden),
                rng=rng,
                hidden_activation=config.activation,
                output_activation=config.activation,
            )
            merged_dim += config.spec_hidden[-1]
        else:
            merged_dim += flat_dim

        self.output_dim = merged_dim

    def _node_features(self, batch: BatchedObservation) -> np.ndarray:
        if self.config.use_dynamic_node_features:
            return batch.node_features
        return batch.static_node_features

    def _flat_features(self, batch: BatchedObservation) -> np.ndarray:
        if self.config.include_parameters:
            return batch.flat_matrix()
        return batch.spec_features

    def forward(self, batch: BatchedObservation) -> Tensor:
        """Batched trunk features, shape ``(B, output_dim)``.

        One autograd graph covers the whole batch — the GNN branch runs a
        stacked ``(B, n, d)`` forward over the shared adjacency and the flat
        branch a single ``(B, flat)`` matmul — so the Python and
        graph-construction overhead is paid once per *batch*.
        """
        pieces = []
        if self.config.use_graph:
            pieces.append(self.graph_encoder(Tensor(self._node_features(batch)), batch.adjacency))
        flat = Tensor(self._flat_features(batch))
        if self.config.use_spec_encoder:
            pieces.append(self.spec_encoder(flat))
        else:
            pieces.append(flat)
        if len(pieces) == 1:
            return pieces[0]
        return concatenate(pieces, axis=-1)

    def forward_array(self, batch: BatchedObservation) -> np.ndarray:
        """Pure-numpy twin of :meth:`forward` (the grad-free forward).

        Mirrors :meth:`forward` operation-for-operation, so the returned
        ``(B, output_dim)`` features are bitwise identical to
        ``forward(batch).numpy()`` — without building any tensors.
        """
        pieces = []
        if self.config.use_graph:
            pieces.append(
                self.graph_encoder.forward_array(self._node_features(batch), batch.adjacency)
            )
        flat = self._flat_features(batch)
        if self.config.use_spec_encoder:
            pieces.append(self.spec_encoder.forward_array(flat))
        else:
            pieces.append(flat)
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces, axis=-1)


class ActorCriticPolicy(Module):
    """Actor-critic with independent actor and critic trunks.

    The actor ends in an ``M × 3`` logits head; the critic "preserves the
    same structure as the policy network except of the last layer" (paper,
    Sec. 3) and ends in a scalar state-value head.
    """

    def __init__(self, config: PolicyConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.actor_trunk = _FeatureTrunk(config, rng)
        self.critic_trunk = _FeatureTrunk(config, rng)
        action_dim = config.num_parameters * NUM_ACTION_CHOICES
        self.actor_head = MLP(
            (self.actor_trunk.output_dim, *config.head_hidden, action_dim),
            rng=rng,
            hidden_activation=config.activation,
            output_gain=0.1,
        )
        self.critic_head = MLP(
            (self.critic_trunk.output_dim, *config.head_hidden, 1),
            rng=rng,
            hidden_activation=config.activation,
        )

    # ------------------------------------------------------------------
    # Forward passes (batch-first: one observation is a batch of one)
    # ------------------------------------------------------------------
    def action_distribution_batch(self, batch: BatchedObservation) -> BatchedMultiCategorical:
        """Batched ``(B, M, 3)`` action distribution over stacked observations."""
        features = self.actor_trunk(batch)
        logits = self.actor_head(features).reshape(
            len(batch), self.config.num_parameters, NUM_ACTION_CHOICES
        )
        return BatchedMultiCategorical(logits)

    def value_batch(self, batch: BatchedObservation) -> Tensor:
        """Batched state-value estimates, shape ``(B,)``."""
        features = self.critic_trunk(batch)
        return self.critic_head(features).reshape(len(batch))

    def actor_logits_array_batch(self, batch: BatchedObservation) -> np.ndarray:
        """Batched actor logits ``(B, M, 3)`` via the pure-numpy forward.

        Bitwise identical to ``action_distribution_batch(batch).logits`` —
        every layer mirrors its graded arithmetic exactly — at a fraction of
        the cost: no critic, no graph bookkeeping, no tensor wrappers.
        """
        features = self.actor_trunk.forward_array(batch)
        return self.actor_head.forward_array(features).reshape(
            len(batch), self.config.num_parameters, NUM_ACTION_CHOICES
        )

    # ------------------------------------------------------------------
    # Acting / evaluating
    # ------------------------------------------------------------------
    def act_batch(
        self,
        batch: BatchedObservation,
        rng: np.random.Generator,
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Select actions: ``(actions (B, M), log_probs (B,), values (B,))``.

        The rollout step of PPO, on the pure-numpy forward: the actions are
        :meth:`select_action_batch`'s (same draws from ``rng``), and the
        log-probabilities and values are bitwise equal to the graded
        ``action_distribution_batch(batch).log_prob(actions)`` and
        ``value_batch(batch)`` that :meth:`evaluate_actions` recomputes.
        """
        log_softmax = log_softmax_array(self.actor_logits_array_batch(batch))
        actions = _choose_actions(np.exp(log_softmax), rng, deterministic)
        batch_index = np.arange(len(batch))[:, None]
        param_index = np.arange(self.config.num_parameters)[None, :]
        log_probs = log_softmax[batch_index, param_index, actions].sum(axis=-1)
        features = self.critic_trunk.forward_array(batch)
        values = self.critic_head.forward_array(features).reshape(len(batch))
        return actions, log_probs, values

    def act(
        self,
        observation: Observation,
        rng: np.random.Generator,
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, float, float]:
        """:meth:`act_batch` on a batch of one: ``(action, log_prob, value)``."""
        actions, log_probs, values = self.act_batch(
            BatchedObservation.stack([observation]), rng, deterministic
        )
        return actions[0], float(log_probs[0]), float(values[0])

    def evaluate_actions(
        self, batch: BatchedObservation, actions: np.ndarray
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Differentiable ``(log_probs, values, entropies)``, each ``(B,)``, for PPO."""
        distribution = self.action_distribution_batch(batch)
        log_probs = distribution.log_prob(actions)
        entropies = distribution.entropy()
        values = self.value_batch(batch)
        return log_probs, values, entropies

    # ------------------------------------------------------------------
    # Action selection without log-probs or values (deployment)
    # ------------------------------------------------------------------
    def select_action_batch(
        self,
        batch: BatchedObservation,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = True,
    ) -> np.ndarray:
        """Action selection without log-prob/value bookkeeping or any graph.

        This is what deployment actually needs: the greedy (or sampled)
        ``(B, M)`` actions, nothing else — no critic forward.  They are
        identical to ``act_batch(..., deterministic=...)[0]`` and consume the
        same draws from ``rng``; the probabilities are exactly
        :attr:`BatchedMultiCategorical.probs` (exp of the log-softmax), so
        greedy tie-breaking matches the graded distribution too.
        """
        probs = np.exp(log_softmax_array(self.actor_logits_array_batch(batch)))
        return _choose_actions(probs, rng, deterministic)

    def select_action(
        self,
        observation: Observation,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = True,
    ) -> np.ndarray:
        """:meth:`select_action_batch` on a batch of one: an ``(M,)`` action."""
        return self.select_action_batch(
            BatchedObservation.stack([observation]), rng, deterministic
        )[0]


def _choose_actions(
    probs: np.ndarray, rng: Optional[np.random.Generator], deterministic: bool
) -> np.ndarray:
    """Greedy (argmax) or sampled ``(B, M)`` actions from ``(B, M, 3)`` probabilities.

    Sampling draws one ``(B, M, 1)`` block from ``rng`` in batch order.
    """
    if deterministic:
        return np.argmax(probs, axis=-1).astype(np.int64)
    if rng is None:
        raise ValueError("stochastic action selection requires an rng")
    return sample_from_probs(probs, rng)


# ----------------------------------------------------------------------
# Named constructors for the four compared methods
# ----------------------------------------------------------------------
def _base_config(env, **overrides) -> PolicyConfig:
    config = PolicyConfig(
        num_parameters=env.num_parameters,
        spec_feature_dim=env.spec_feature_dimension,
        node_feature_dim=env.node_feature_dimension,
        num_graph_nodes=env.num_graph_nodes,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    config.__post_init__()
    return config


def _gcn_fc_policy(
    env, rng: Optional[np.random.Generator] = None, **overrides
) -> ActorCriticPolicy:
    """The paper's GCN-FC multimodal policy."""
    config = _base_config(env, use_graph=True, graph_kind="gcn", use_spec_encoder=True, **overrides)
    return ActorCriticPolicy(config, rng)


def _gat_fc_policy(
    env, rng: Optional[np.random.Generator] = None, **overrides
) -> ActorCriticPolicy:
    """The paper's GAT-FC multimodal policy (best-performing variant)."""
    config = _base_config(env, use_graph=True, graph_kind="gat", use_spec_encoder=True, **overrides)
    return ActorCriticPolicy(config, rng)


def _baseline_a_policy(
    env, rng: Optional[np.random.Generator] = None, **overrides
) -> ActorCriticPolicy:
    """Baseline A (AutoCkt [10]): FCNN over spec vector + parameters, no graph."""
    config = _base_config(env, use_graph=False, use_spec_encoder=True, **overrides)
    return ActorCriticPolicy(config, rng)


def _baseline_b_policy(
    env,
    rng: Optional[np.random.Generator] = None,
    graph_kind: str = "gcn",
    use_dynamic_node_features: bool = True,
    **overrides,
) -> ActorCriticPolicy:
    """Baseline B (GCN-RL [11]): graph branch only, no spec-coupling FCNN.

    By default this is the paper's "conservative" upgraded implementation
    (full topology, dynamic node features); pass
    ``use_dynamic_node_features=False`` to reproduce the original
    static-technology-feature variant used in the ablation bench.
    """
    config = _base_config(
        env,
        use_graph=True,
        graph_kind=graph_kind,
        use_spec_encoder=False,
        use_dynamic_node_features=use_dynamic_node_features,
        **overrides,
    )
    return ActorCriticPolicy(config, rng)


#: Mapping of method name (as used in figures/tables) to constructor.  The
#: :mod:`repro.api` catalog registers exactly these builders under the same
#: IDs; prefer ``repro.make_policy("gcn_fc", env)`` in new code.
POLICY_FACTORIES = {
    "gcn_fc": _gcn_fc_policy,
    "gat_fc": _gat_fc_policy,
    "baseline_a": _baseline_a_policy,
    "baseline_b": _baseline_b_policy,
}
