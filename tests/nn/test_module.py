"""Tests for the Module base class (parameter traversal, state dicts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import MLP, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class TinyNet(Module):
    def __init__(self, rng):
        super().__init__()
        self.first = Linear(3, 4, rng)
        self.second = Linear(4, 2, rng)
        self.scale = Tensor(np.ones(1), requires_grad=True)

    def forward(self, x):
        return self.second(self.first(x).tanh()) * self.scale


class TestParameterTraversal:
    def test_named_parameters_include_children(self, rng):
        net = TinyNet(rng)
        names = dict(net.named_parameters())
        assert "scale" in names
        assert "first.weight" in names
        assert "second.bias" in names
        assert len(names) == 5

    def test_num_parameters(self, rng):
        net = TinyNet(rng)
        assert net.num_parameters() == (3 * 4 + 4) + (4 * 2 + 2) + 1

    def test_zero_grad_clears_all(self, rng):
        net = TinyNet(rng)
        (net(Tensor(np.ones((1, 3)))) ** 2).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self, rng):
        net_a = TinyNet(np.random.default_rng(0))
        net_b = TinyNet(np.random.default_rng(1))
        x = Tensor(np.ones((1, 3)))
        assert not np.allclose(net_a(x).data, net_b(x).data)
        net_b.load_state_dict(net_a.state_dict())
        np.testing.assert_allclose(net_a(x).data, net_b(x).data)

    def test_state_dict_is_a_copy(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        state["scale"][0] = 99.0
        assert net.scale.data[0] == 1.0

    def test_strict_mismatch_raises(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)
        net.load_state_dict(state, strict=False)  # tolerated when not strict

    def test_shape_mismatch_raises(self, rng):
        net = TinyNet(rng)
        state = net.state_dict()
        state["first.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(state)
