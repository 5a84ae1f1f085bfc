"""Graph neural network layers operating on circuit-topology graphs.

The paper infuses circuit domain knowledge into the policy by processing the
full circuit graph (devices + supply/ground/bias nodes, dynamic device
parameters as node features) with either of two GNNs:

* :class:`GCNLayer` — graph convolution per Eq. (2) of the paper
  (Kipf & Welling, 2017): ``H^{l+1} = sigma(A* H^l W^l)`` with the
  symmetrically normalized adjacency ``A* = D^{-1/2} (A + I) D^{-1/2}``.
* :class:`GATLayer` — multi-head graph attention (Veličković et al., 2018),
  which the paper reports as modelling circuit-node interactions better than
  GCN (GAT-FC beats GCN-FC in Fig. 3 / Table 2).

Both operate on dense ``(..., n_nodes, features)`` tensors since analog circuit
graphs are tiny (tens of nodes), and both are differentiated end-to-end by the
autograd engine in :mod:`repro.nn.tensor`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.initializers import get_initializer, zeros
from repro.nn.layers import get_activation, get_array_activation, softmax_array
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concatenate


def normalized_adjacency(adjacency: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """Return ``A* = D^{-1/2} (A + I) D^{-1/2}`` used by GCN aggregation.

    Parameters
    ----------
    adjacency:
        Symmetric ``(n, n)`` adjacency matrix of the circuit graph (binary or
        weighted).
    add_self_loops:
        Whether to add the identity before normalizing, per Eq. (2).
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adjacency.shape}")
    if not np.allclose(adjacency, adjacency.T):
        raise ValueError("adjacency must be symmetric for an undirected circuit graph")
    a_hat = adjacency + np.eye(adjacency.shape[0]) if add_self_loops else adjacency.copy()
    degrees = a_hat.sum(axis=1)
    if np.any(degrees <= 0):
        raise ValueError("graph contains an isolated node with zero degree after self-loops")
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


class GCNLayer(Module):
    """A single graph-convolution layer implementing Eq. (2) of the paper."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: str = "tanh",
        init: str = "xavier",
        bias: bool = True,
    ) -> None:
        super().__init__()
        initializer = get_initializer(init)
        if init == "he":
            self.weight = initializer(in_features, out_features, rng)
        else:
            self.weight = initializer(in_features, out_features, rng, gain=1.0)
        self.use_bias = bias
        if bias:
            self.bias = zeros(out_features)
        self.activation = get_activation(activation)
        self._activation_array = get_array_activation(activation)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, node_features: Tensor, norm_adjacency: np.ndarray) -> Tensor:
        """Apply ``sigma(A* H W)``.

        ``norm_adjacency`` is a constant (already-normalized) numpy matrix —
        the circuit topology does not change during an episode, so it carries
        no gradient.
        """
        aggregated = Tensor(norm_adjacency) @ node_features
        out = aggregated @ self.weight
        if self.use_bias:
            out = out + self.bias
        return self.activation(out)

    def forward_array(self, node_features: np.ndarray, norm_adjacency: np.ndarray) -> np.ndarray:
        """Grad-free forward over plain arrays (same arithmetic as ``forward``)."""
        out = (norm_adjacency @ node_features) @ self.weight.data
        if self.use_bias:
            out = out + self.bias.data
        return self._activation_array(out)


class GATLayer(Module):
    """Multi-head graph attention layer (GAT, Veličković et al. 2018).

    Attention coefficients between connected nodes *i* and *j* are computed
    as ``softmax_j(LeakyReLU(a^T [W h_i || W h_j]))`` per head, restricted to
    the 1-hop neighbourhood (including a self loop).  Head outputs are
    concatenated (hidden layers) or averaged (output layers).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        num_heads: int = 2,
        concat_heads: bool = True,
        activation: str = "tanh",
        negative_slope: float = 0.2,
        init: str = "xavier",
    ) -> None:
        super().__init__()
        if out_features % num_heads != 0 and concat_heads:
            raise ValueError(
                f"out_features ({out_features}) must be divisible by num_heads ({num_heads}) "
                "when heads are concatenated"
            )
        self.num_heads = num_heads
        self.concat_heads = concat_heads
        self.head_dim = out_features // num_heads if concat_heads else out_features
        self.negative_slope = negative_slope
        self.activation = get_activation(activation)
        self._activation_array = get_array_activation(activation)
        self.in_features = in_features
        self.out_features = out_features

        initializer = get_initializer(init)
        self.head_weights: list[Tensor] = []
        self.attn_src: list[Tensor] = []
        self.attn_dst: list[Tensor] = []
        for head in range(num_heads):
            weight = initializer(in_features, self.head_dim, rng, gain=1.0)
            attn_src = initializer(self.head_dim, 1, rng, gain=1.0)
            attn_dst = initializer(self.head_dim, 1, rng, gain=1.0)
            # Register each parameter via attribute assignment so Module
            # traversal finds them.
            setattr(self, f"weight_head_{head}", weight)
            setattr(self, f"attn_src_head_{head}", attn_src)
            setattr(self, f"attn_dst_head_{head}", attn_dst)
            self.head_weights.append(weight)
            self.attn_src.append(attn_src)
            self.attn_dst.append(attn_dst)

    @staticmethod
    def attention_mask(adjacency: np.ndarray) -> np.ndarray:
        """Binary attention mask (adjacency + self-loops) used by every head.

        Both forwards derive it through this helper, so they mask
        identically by construction.
        """
        adjacency = np.asarray(adjacency, dtype=np.float64)
        return ((adjacency + np.eye(adjacency.shape[0])) > 0).astype(np.float64)

    def _head_forward(self, node_features: Tensor, mask: np.ndarray, head: int) -> Tensor:
        transformed = node_features @ self.head_weights[head]  # (..., n, d)
        # e_ij = LeakyReLU(a_src . h_i + a_dst . h_j), dense (..., n, n) matrix.
        src_scores = transformed @ self.attn_src[head]  # (..., n, 1)
        dst_scores = transformed @ self.attn_dst[head]  # (..., n, 1)
        scores = (src_scores + dst_scores.swapaxes(-1, -2)).leaky_relu(self.negative_slope)
        # Mask non-edges with a large negative constant before the softmax.
        neg_inf = Tensor(np.full(mask.shape, -1e9))
        masked = scores * Tensor(mask) + neg_inf * Tensor(1.0 - mask)
        attention = masked.softmax(axis=-1)
        return Tensor(mask) * attention @ transformed

    def _head_forward_array(
        self, node_features: np.ndarray, mask: np.ndarray, head: int
    ) -> np.ndarray:
        """Pure-numpy twin of :meth:`_head_forward` (bitwise-equal arithmetic)."""
        transformed = node_features @ self.head_weights[head].data
        src_scores = transformed @ self.attn_src[head].data
        dst_scores = transformed @ self.attn_dst[head].data
        scores = src_scores + np.swapaxes(dst_scores, -1, -2)
        scores = scores * np.where(scores > 0, 1.0, self.negative_slope)
        masked = scores * mask + np.full(mask.shape, -1e9) * (1.0 - mask)
        attention = softmax_array(masked, axis=-1)
        return mask * attention @ transformed

    def forward(self, node_features: Tensor, adjacency: np.ndarray) -> Tensor:
        """Apply multi-head attention over the (unnormalized) adjacency.

        Self-loops are added so every node attends to itself, matching the
        usual GAT formulation.
        """
        mask = self.attention_mask(adjacency)
        head_outputs = [self._head_forward(node_features, mask, h) for h in range(self.num_heads)]
        if self.concat_heads:
            combined = concatenate(head_outputs, axis=-1)
        else:
            combined = head_outputs[0]
            for other in head_outputs[1:]:
                combined = combined + other
            combined = combined * (1.0 / self.num_heads)
        return self.activation(combined)

    def forward_array(self, node_features: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
        """Grad-free forward over plain arrays (same arithmetic as ``forward``)."""
        mask = self.attention_mask(adjacency)
        head_outputs = [
            self._head_forward_array(node_features, mask, h) for h in range(self.num_heads)
        ]
        if self.concat_heads:
            combined = np.concatenate(head_outputs, axis=-1)
        else:
            combined = head_outputs[0]
            for other in head_outputs[1:]:
                combined = combined + other
            combined = combined * (1.0 / self.num_heads)
        return self._activation_array(combined)


class GraphReadout(Module):
    """Pool node embeddings into a fixed-size graph embedding.

    Four modes are supported:

    * ``mean`` / ``sum`` / ``max`` — permutation-invariant pooling; the
      embedding size is independent of the number of circuit nodes.
    * ``concat`` — concatenate the node embeddings in netlist order.  A
      circuit topology is *fixed* during training and deployment, so the
      ordering is well defined; this readout preserves per-device identity
      (which device's parameters produced which embedding), which speeds up
      credit assignment for the per-parameter action head.
    """

    def __init__(self, mode: str = "mean") -> None:
        super().__init__()
        if mode not in {"mean", "sum", "max", "concat"}:
            raise ValueError(f"unknown readout mode '{mode}'")
        self.mode = mode

    def forward(self, node_embeddings: Tensor) -> Tensor:
        """Pool batched ``(B, n, f)`` node embeddings into ``(B, n_out)``."""
        self._check_batched(node_embeddings.shape)
        if self.mode == "mean":
            return node_embeddings.mean(axis=1)
        if self.mode == "sum":
            return node_embeddings.sum(axis=1)
        if self.mode == "max":
            return node_embeddings.max(axis=1)
        return node_embeddings.reshape(node_embeddings.shape[0], -1)

    def forward_array(self, node_embeddings: np.ndarray) -> np.ndarray:
        """Grad-free pooling over a plain array (same arithmetic as ``forward``).

        ``mean`` mirrors ``Tensor.mean`` — ``sum * (1 / count)`` — rather than
        ``ndarray.mean`` so the result is bitwise equal to the graded path.
        """
        self._check_batched(node_embeddings.shape)
        if self.mode == "mean":
            return node_embeddings.sum(axis=1) * (1.0 / node_embeddings.shape[1])
        if self.mode == "sum":
            return node_embeddings.sum(axis=1)
        if self.mode == "max":
            return node_embeddings.max(axis=1)
        return node_embeddings.reshape(node_embeddings.shape[0], -1)

    @staticmethod
    def _check_batched(shape: tuple) -> None:
        if len(shape) != 3:
            raise ValueError(f"readout expects (B, n, f) node embeddings, got shape {shape}")


class GraphEncoder(Module):
    """Stack of GCN or GAT layers followed by a readout.

    This is the "Graph Embedding" branch of the multimodal policy network in
    Fig. 2 of the paper.

    Parameters
    ----------
    layer_sizes:
        Node-feature widths, ``[in, h1, ..., out]``.
    kind:
        ``"gcn"`` or ``"gat"``.
    num_heads:
        Attention heads for the GAT variant.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        kind: str = "gcn",
        num_heads: int = 2,
        activation: str = "tanh",
        readout: str = "mean",
        num_nodes: Optional[int] = None,
    ) -> None:
        super().__init__()
        kind = kind.lower()
        if kind not in {"gcn", "gat"}:
            raise ValueError(f"unknown graph encoder kind '{kind}', expected 'gcn' or 'gat'")
        if len(layer_sizes) < 2:
            raise ValueError("GraphEncoder requires at least input and output sizes")
        if readout == "concat" and (num_nodes is None or num_nodes <= 0):
            raise ValueError("concat readout requires num_nodes")
        self.kind = kind
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.num_nodes = num_nodes
        # One-entry operator cache: policies are driven by one environment
        # whose adjacency array is a stable object, so re-deriving the
        # normalized operator (GCN) every forward is pure overhead.  The
        # source reference is held strongly, which also guards against a
        # recycled ``id``.
        self._operator_source: Optional[np.ndarray] = None
        self._operator: Optional[np.ndarray] = None
        self.layers: list[Module] = []
        for index, (fan_in, fan_out) in enumerate(zip(self.layer_sizes[:-1], self.layer_sizes[1:])):
            if kind == "gcn":
                layer: Module = GCNLayer(fan_in, fan_out, rng, activation=activation)
            else:
                layer = GATLayer(fan_in, fan_out, rng, num_heads=num_heads, activation=activation)
            self.layers.append(layer)
            self.register_module(f"graph_layer_{index}", layer)
        self.readout = GraphReadout(readout)

    @property
    def out_features(self) -> int:
        if self.readout.mode == "concat":
            assert self.num_nodes is not None
            return self.layer_sizes[-1] * self.num_nodes
        return self.layer_sizes[-1]

    def _resolve_operator(self, adjacency: np.ndarray) -> np.ndarray:
        """The layer-ready operator for ``adjacency``, via the one-entry cache.

        GCN layers consume the symmetrically normalized adjacency, GAT layers
        the raw float adjacency.  Shared by the graded and grad-free forwards
        so both always derive (and cache) the operator identically.
        """
        if self._operator_source is not adjacency or self._operator is None:
            if self.kind == "gcn":
                operator = normalized_adjacency(adjacency)
            else:
                operator = np.asarray(adjacency, dtype=np.float64)
            self._operator_source = adjacency if isinstance(adjacency, np.ndarray) else None
            self._operator = operator
        return self._operator

    def forward(self, node_features: Tensor, adjacency: np.ndarray) -> Tensor:
        """Map ``(B, n, features)`` node features to ``(B, out_features)``.

        ``adjacency`` is the raw symmetric ``(n, n)`` adjacency matrix, shared
        by the whole batch (one topology, exactly the
        :class:`~repro.parallel.VectorCircuitEnv` situation); normalization
        (GCN) or masking (GAT) is handled internally.
        """
        operator = self._resolve_operator(adjacency)
        hidden = node_features
        for layer in self.layers:
            hidden = layer(hidden, operator)
        return self.readout(hidden)

    def forward_array(self, node_features: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
        """Grad-free encoder forward over plain arrays (inference fast path).

        Shares the one-entry normalized-operator cache with :meth:`forward`,
        and produces bitwise-identical embeddings (every layer mirrors its
        graded arithmetic exactly).
        """
        operator = self._resolve_operator(adjacency)
        hidden = np.asarray(node_features, dtype=np.float64)
        for layer in self.layers:
            hidden = layer.forward_array(hidden, operator)
        return self.readout.forward_array(hidden)
