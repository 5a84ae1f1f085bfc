"""Tests for the GCN / GAT layers and the graph encoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.graph_layers import (
    GATLayer,
    GCNLayer,
    GraphEncoder,
    GraphReadout,
    normalized_adjacency,
)
from repro.nn.tensor import Tensor


def ring_adjacency(n: int) -> np.ndarray:
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = 1.0
        adjacency[(i + 1) % n, i] = 1.0
    return adjacency


class TestNormalizedAdjacency:
    def test_symmetric_and_self_loops(self):
        adjacency = ring_adjacency(5)
        norm = normalized_adjacency(adjacency)
        assert norm.shape == (5, 5)
        np.testing.assert_allclose(norm, norm.T)
        assert np.all(np.diag(norm) > 0.0)

    def test_row_values_for_known_graph(self):
        # Two connected nodes: A_hat = [[1,1],[1,1]], degrees 2 -> entries 0.5.
        norm = normalized_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(norm, np.full((2, 2), 0.5))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            normalized_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            normalized_adjacency(np.zeros((2, 3)))

    def test_rejects_isolated_node_without_self_loop(self):
        adjacency = np.zeros((3, 3))
        with pytest.raises(ValueError):
            normalized_adjacency(adjacency, add_self_loops=False)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=8))
    def test_property_spectral_radius_bounded(self, n):
        """Eigenvalues of the symmetric-normalized adjacency lie in [-1, 1]."""
        norm = normalized_adjacency(ring_adjacency(n))
        eigenvalues = np.linalg.eigvalsh(norm)
        assert np.all(eigenvalues <= 1.0 + 1e-9)
        assert np.all(eigenvalues >= -1.0 - 1e-9)


class TestGCNLayer:
    def test_output_shape(self, rng):
        layer = GCNLayer(4, 6, rng)
        features = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        norm = normalized_adjacency(ring_adjacency(5))
        assert layer(features, norm).shape == (5, 6)

    def test_isolated_node_with_self_loop_keeps_own_features(self, rng):
        # Star graph where node 2 only connects to itself: its output depends
        # only on its own features.
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        layer = GCNLayer(2, 2, rng, activation="identity", bias=False)
        norm = normalized_adjacency(adjacency)
        features = np.zeros((3, 2))
        features[2] = [1.0, -1.0]
        out = layer(Tensor(features), norm)
        expected_row_2 = features[2] @ layer.weight.data
        np.testing.assert_allclose(out.data[2], expected_row_2, atol=1e-12)
        np.testing.assert_allclose(out.data[1], np.zeros(2), atol=1e-12)

    def test_gradients_reach_weights(self, rng):
        layer = GCNLayer(3, 3, rng)
        norm = normalized_adjacency(ring_adjacency(4))
        loss = (layer(Tensor(np.ones((4, 3))), norm) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert np.any(layer.weight.grad != 0.0)


class TestGATLayer:
    def test_output_shape_concat_heads(self, rng):
        layer = GATLayer(4, 8, rng, num_heads=2)
        out = layer(Tensor(np.random.default_rng(1).normal(size=(6, 4))), ring_adjacency(6))
        assert out.shape == (6, 8)

    def test_head_divisibility_check(self, rng):
        with pytest.raises(ValueError):
            GATLayer(4, 7, rng, num_heads=2)

    def test_attention_respects_adjacency(self, rng):
        """Changing a non-neighbour's features must not change a node's output."""
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[2, 3] = adjacency[3, 2] = 1.0
        layer = GATLayer(3, 4, rng, num_heads=1)
        base = np.random.default_rng(2).normal(size=(4, 3))
        out_a = layer(Tensor(base.copy()), adjacency).data
        modified = base.copy()
        modified[3] += 10.0  # node 3 is not connected to node 0 or 1
        out_b = layer(Tensor(modified), adjacency).data
        np.testing.assert_allclose(out_a[0], out_b[0], atol=1e-9)
        np.testing.assert_allclose(out_a[1], out_b[1], atol=1e-9)
        assert not np.allclose(out_a[2], out_b[2])

    def test_gradients_reach_attention_parameters(self, rng):
        layer = GATLayer(3, 4, rng, num_heads=2)
        loss = (layer(Tensor(np.ones((5, 3))), ring_adjacency(5)) ** 2).sum()
        loss.backward()
        for head in range(2):
            assert getattr(layer, f"attn_src_head_{head}").grad is not None
            assert getattr(layer, f"weight_head_{head}").grad is not None


class TestGraphReadout:
    def test_modes(self):
        embeddings = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_allclose(GraphReadout("mean")(embeddings).data, [[2.0, 3.0]])
        np.testing.assert_allclose(GraphReadout("sum")(embeddings).data, [[4.0, 6.0]])
        np.testing.assert_allclose(GraphReadout("max")(embeddings).data, [[3.0, 4.0]])
        np.testing.assert_allclose(
            GraphReadout("concat")(embeddings).data, [[1.0, 2.0, 3.0, 4.0]]
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            GraphReadout("median")

    def test_rejects_unbatched_embeddings(self):
        unbatched = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            GraphReadout("mean")(Tensor(unbatched))
        with pytest.raises(ValueError):
            GraphReadout("mean").forward_array(unbatched)


class TestGraphEncoder:
    @pytest.mark.parametrize("kind", ["gcn", "gat"])
    def test_embedding_shape(self, rng, kind):
        encoder = GraphEncoder((4, 8, 6), rng, kind=kind)
        out = encoder(Tensor(np.random.default_rng(0).normal(size=(1, 7, 4))), ring_adjacency(7))
        assert out.shape == (1, 6)
        assert encoder.out_features == 6

    def test_concat_readout_out_features(self, rng):
        encoder = GraphEncoder((4, 8), rng, readout="concat", num_nodes=7)
        assert encoder.out_features == 56
        out = encoder(Tensor(np.zeros((1, 7, 4))), ring_adjacency(7))
        assert out.shape == (1, 56)

    def test_concat_requires_num_nodes(self, rng):
        with pytest.raises(ValueError):
            GraphEncoder((4, 8), rng, readout="concat")

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            GraphEncoder((4, 8), rng, kind="transformer")

    def test_parameters_registered(self, rng):
        encoder = GraphEncoder((4, 8, 6), rng, kind="gat", num_heads=2)
        assert encoder.num_parameters() > 0
        names = [name for name, _ in encoder.named_parameters()]
        assert any("graph_layer_0" in name for name in names)
        assert any("graph_layer_1" in name for name in names)
