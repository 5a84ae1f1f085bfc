"""Tests for dense layers, activations and initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.initializers import get_initializer, he_normal, orthogonal, xavier_uniform, zeros
from repro.nn.layers import MLP, Linear, Sequential, get_activation
from repro.nn.tensor import Tensor


class TestInitializers:
    def test_xavier_bounds(self, rng):
        weight = xavier_uniform(100, 50, rng)
        limit = np.sqrt(6.0 / 150)
        assert weight.data.shape == (100, 50)
        assert np.all(np.abs(weight.data) <= limit + 1e-12)
        assert weight.requires_grad

    def test_he_scale(self, rng):
        weight = he_normal(1000, 10, rng)
        assert abs(weight.data.std() - np.sqrt(2.0 / 1000)) < 0.005

    def test_orthogonal_columns(self, rng):
        weight = orthogonal(16, 8, rng)
        gram = weight.data.T @ weight.data
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_zeros(self):
        bias = zeros(7)
        assert bias.data.shape == (7,)
        assert np.all(bias.data == 0.0)
        assert bias.requires_grad

    def test_unknown_initializer(self):
        with pytest.raises(ValueError):
            get_initializer("not_a_real_scheme")


class TestActivations:
    def test_lookup(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(get_activation("relu")(x).data, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(get_activation("tanh")(x).data, np.tanh([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(get_activation("identity")(x).data, x.data)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            get_activation("swishish")


class TestLinear:
    def test_forward_shape_and_bias(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)
        expected = np.ones((2, 4)) @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert not hasattr(layer, "bias")
        assert len(layer.parameters()) == 1

    def test_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3, rng)

    def test_gradients_flow(self, rng):
        layer = Linear(3, 2, rng)
        loss = (layer(Tensor(np.ones((1, 3)))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestMLP:
    def test_shapes_and_parameter_count(self, rng):
        mlp = MLP((5, 8, 8, 3), rng)
        out = mlp(Tensor(np.zeros((4, 5))))
        assert out.shape == (4, 3)
        expected_params = (5 * 8 + 8) + (8 * 8 + 8) + (8 * 3 + 3)
        assert mlp.num_parameters() == expected_params
        assert mlp.in_features == 5
        assert mlp.out_features == 3

    def test_requires_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP((5,), rng)

    def test_output_activation(self, rng):
        mlp = MLP((3, 4, 2), rng, output_activation="sigmoid")
        out = mlp(Tensor(np.random.default_rng(0).normal(size=(6, 3))))
        assert np.all((out.data > 0.0) & (out.data < 1.0))

    def test_deterministic_given_seed(self):
        a = MLP((3, 4, 2), np.random.default_rng(7))
        b = MLP((3, 4, 2), np.random.default_rng(7))
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_forward_array_matches_tensor_forward(self):
        rng = np.random.default_rng(1)
        mlp = MLP((4, 12, 2), rng=rng, hidden_activation="relu",
                  output_activation="sigmoid")
        x = rng.normal(size=(7, 4))
        np.testing.assert_array_equal(mlp(Tensor(x)).numpy(), mlp.forward_array(x))


class TestSequential:
    def test_composition(self, rng):
        seq = Sequential(Linear(4, 6, rng), Linear(6, 2, rng))
        out = seq(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert len(seq.parameters()) == 4
