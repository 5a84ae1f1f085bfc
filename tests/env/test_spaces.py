"""Tests for the action space and observation container."""

from __future__ import annotations

import numpy as np

from repro.env.spaces import (
    ACTION_DECREASE,
    ACTION_INCREASE,
    ACTION_KEEP,
    NUM_ACTION_CHOICES,
    ActionSpace,
    Observation,
)


class TestActionSpace:
    def test_shape(self):
        space = ActionSpace(15)
        assert space.shape == (15, 3)
        assert NUM_ACTION_CHOICES == 3

    def test_sample_and_contains(self, rng):
        space = ActionSpace(14)
        for _ in range(20):
            action = space.sample(rng)
            assert space.contains(action)

    def test_no_op(self):
        space = ActionSpace(5)
        np.testing.assert_array_equal(space.no_op(), np.full(5, ACTION_KEEP))

    def test_contains_rejects_bad_shapes_and_values(self):
        space = ActionSpace(4)
        assert not space.contains(np.zeros(3, dtype=np.int64))
        assert not space.contains(np.full(4, 3, dtype=np.int64))
        assert not space.contains(np.full(4, -1, dtype=np.int64))
        assert not space.contains(np.zeros(4))  # floats rejected

    def test_action_index_constants(self):
        assert (ACTION_DECREASE, ACTION_KEEP, ACTION_INCREASE) == (0, 1, 2)


class TestObservation:
    def test_counts_nodes_and_parameters(self):
        observation = Observation(
            node_features=np.zeros((5, 12)),
            static_node_features=np.zeros((5, 12)),
            adjacency=np.eye(5),
            spec_features=np.array([0.1, 0.2, 0.3]),
            normalized_parameters=np.array([0.5, 0.6]),
            measured_specs={"gain": 100.0},
            target_specs={"gain": 400.0},
        )
        assert observation.num_nodes == 5
        assert observation.num_parameters == 2
