"""Tests for the circuit design environment."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_env
from repro.env import GOAL_BONUS
from repro.env.circuit_env import CircuitDesignEnv
from repro.graph import CircuitGraph


class TestReset:
    def test_reset_samples_target_from_table1_space(self, opamp_env):
        opamp_env.reset()
        targets = opamp_env.target_specs
        assert 300.0 <= targets["gain"] <= 500.0
        assert 1e6 <= targets["bandwidth"] <= 2.5e7
        assert 55.0 <= targets["phase_margin"] <= 60.0
        assert 1e-4 <= targets["power"] <= 1e-2

    def test_reset_with_explicit_target(self, opamp_env):
        target = {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
        opamp_env.reset(target_specs=target)
        assert opamp_env.target_specs == target

    def test_reset_writes_and_reads_back_the_start_sizing(self, opamp_env, opamp_benchmark):
        center = opamp_benchmark.design_space.center()
        opamp_env.reset(initial_parameters=center)
        np.testing.assert_allclose(opamp_env.parameter_values, center)
        np.testing.assert_allclose(
            opamp_benchmark.design_space.vector_from_netlist(opamp_env.netlist), center
        )

    def test_reset_returns_observation_with_initial_specs(self, opamp_env):
        observation = opamp_env.reset()
        assert set(observation.measured_specs) == {"gain", "bandwidth", "phase_margin", "power"}
        assert observation.num_parameters == 15

    def test_center_initialization_is_reproducible(self, opamp_env):
        first = opamp_env.reset().normalized_parameters
        second = opamp_env.reset().normalized_parameters
        np.testing.assert_allclose(first, second)

    def test_reset_with_initial_parameters(self, opamp_env, opamp_benchmark):
        start = opamp_benchmark.design_space.lower_bounds
        observation = opamp_env.reset(initial_parameters=start)
        np.testing.assert_allclose(observation.normalized_parameters, np.zeros(15), atol=1e-9)


class TestStep:
    def test_step_before_reset_raises(self, opamp_env):
        with pytest.raises(RuntimeError):
            opamp_env.step(opamp_env.action_space.no_op())

    def test_invalid_action_rejected(self, opamp_env):
        opamp_env.reset()
        with pytest.raises(ValueError):
            opamp_env.step(np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            opamp_env.step(np.full(15, 7, dtype=np.int64))

    def test_step_returns_reward_and_info(self, opamp_env, rng):
        opamp_env.reset()
        observation, reward, done, info = opamp_env.step(opamp_env.action_space.sample(rng))
        assert isinstance(reward, float)
        assert reward <= GOAL_BONUS
        assert info["step"] == 1
        assert "specs" in info and "met_fraction" in info
        assert isinstance(done, bool)

    def test_keep_action_leaves_parameters_unchanged(self, opamp_env):
        observation = opamp_env.reset()
        before = observation.normalized_parameters.copy()
        after, _, _, _ = opamp_env.step(opamp_env.action_space.no_op())
        np.testing.assert_allclose(before, after.normalized_parameters)

    def test_episode_terminates_at_max_steps(self):
        env = make_env("opamp-p2s-v0", seed=0, max_steps=5)
        env.reset(
            target_specs={"gain": 1e9, "bandwidth": 1e12, "phase_margin": 90.0, "power": 1e-12}
        )
        done = False
        steps = 0
        while not done:
            _, _, done, _ = env.step(env.action_space.no_op())
            steps += 1
        assert steps == 5

    def test_episode_terminates_with_bonus_when_goal_reached(self, opamp_env):
        # A trivially easy target: the initial center sizing already meets it.
        easy_target = {"gain": 1.1, "bandwidth": 1.0, "phase_margin": 0.0, "power": 10.0}
        opamp_env.reset(target_specs=easy_target)
        _, reward, done, info = opamp_env.step(opamp_env.action_space.no_op())
        assert done
        assert info["goal_reached"]
        assert reward == GOAL_BONUS

    def test_trajectory_recorded(self, opamp_env, rng):
        opamp_env.reset()
        for _ in range(3):
            _, _, done, _ = opamp_env.step(opamp_env.action_space.sample(rng))
            if done:
                break
        trajectory = opamp_env.trajectory
        assert trajectory is not None
        assert trajectory.length >= 1
        assert trajectory.spec_series("gain").shape == (trajectory.length,)
        assert isinstance(trajectory.total_reward, float)


class TestActionRewrite:
    """The engine's step rewrites the netlist by one grid step per action."""

    def test_actions_move_by_one_step(self, opamp_env, opamp_benchmark):
        space = opamp_benchmark.design_space
        opamp_env.reset(initial_parameters=space.center())
        before = opamp_env.parameter_values
        opamp_env.step(np.full(len(space), 2, dtype=np.int64))
        np.testing.assert_allclose(opamp_env.parameter_values, before + space.steps)

    def test_actions_rewrite_netlist(self, opamp_env):
        opamp_env.reset()
        netlist = opamp_env.netlist
        before_width = netlist.get_parameter("M1", "width")
        action = np.full(15, 1, dtype=np.int64)
        action[0] = 2  # increase M1.width only
        opamp_env.step(action)
        assert netlist.get_parameter("M1", "width") == pytest.approx(before_width + 1e-6)


class TestObservationAssembly:
    """The engine's observation rows, seen through one lane."""

    TARGETS = {"gain": 350.0, "bandwidth": 2e7, "phase_margin": 58.0, "power": 5e-3}

    def test_spec_features_layout(self, opamp_env, opamp_benchmark):
        observation = opamp_env.reset(target_specs=self.TARGETS)
        assert observation.spec_features.shape == (opamp_env.spec_feature_dimension,)
        assert opamp_env.spec_feature_dimension == 3 * len(opamp_benchmark.spec_space)
        # Last block holds the clipped normalized errors, all in [-1, 0].
        errors = observation.spec_features[-len(opamp_benchmark.spec_space):]
        assert np.all(errors <= 0.0) and np.all(errors >= -1.0)

    def test_observation_fields_consistent(self, opamp_env, opamp_benchmark):
        observation = opamp_env.reset(target_specs=self.TARGETS)
        assert observation.node_features.shape == (
            opamp_env.num_graph_nodes, opamp_env.node_feature_dimension
        )
        assert observation.adjacency.shape == (
            opamp_env.num_graph_nodes, opamp_env.num_graph_nodes
        )
        assert observation.normalized_parameters.shape == (len(opamp_benchmark.design_space),)
        normalized = observation.normalized_parameters
        assert np.all((normalized >= 0) & (normalized <= 1))
        assert observation.measured_specs == opamp_env.measured_specs
        assert observation.target_specs == self.TARGETS

    def test_observation_tracks_parameter_changes(self, opamp_env):
        first = opamp_env.reset(target_specs=self.TARGETS)
        second, _, _, _ = opamp_env.step(np.full(15, 2, dtype=np.int64))
        assert not np.allclose(first.node_features, second.node_features)
        assert not np.allclose(first.normalized_parameters, second.normalized_parameters)
        # Static features and topology do not change with sizing.
        np.testing.assert_allclose(first.static_node_features, second.static_node_features)
        np.testing.assert_allclose(first.adjacency, second.adjacency)

    def test_dynamic_node_features_track_the_sizing(self, opamp_env, opamp_benchmark):
        space = opamp_benchmark.design_space
        center = space.center()
        before = opamp_env.reset(initial_parameters=center).node_features.copy()
        wider = center.copy()
        wider[space.names.index("M1.width")] = 99e-6
        after = opamp_env.reset(initial_parameters=wider).node_features
        row = CircuitGraph(opamp_env.netlist).node_index("M1")
        assert not np.allclose(before[row], after[row])
        other_rows = [i for i in range(opamp_env.num_graph_nodes) if i != row]
        np.testing.assert_allclose(before[other_rows], after[other_rows])

    def test_node_feature_shape(self, rf_pa_env):
        features = rf_pa_env.reset().node_features
        graph = CircuitGraph(rf_pa_env.netlist)
        assert features.shape == (graph.num_nodes, graph.feature_dimension)


class TestConfiguration:
    def test_max_steps_default_from_metadata(self, opamp_env, rf_pa_env):
        assert opamp_env.max_steps == 50
        assert rf_pa_env.max_steps == 30

    def test_invalid_initial_sizing(self, opamp_benchmark, opamp_simulator):
        with pytest.raises(ValueError):
            CircuitDesignEnv(opamp_benchmark, opamp_simulator, initial_sizing="warm")

    def test_invalid_max_steps(self, opamp_benchmark, opamp_simulator):
        with pytest.raises(ValueError):
            CircuitDesignEnv(opamp_benchmark, opamp_simulator, max_steps=0)

    def test_random_initial_sizing_differs_between_episodes(self):
        env = make_env("opamp-p2s-v0", seed=3, initial_sizing="random")
        first = env.reset().normalized_parameters.copy()
        second = env.reset().normalized_parameters.copy()
        assert not np.allclose(first, second)

    def test_dimensions_exposed(self, opamp_env, rf_pa_env):
        assert opamp_env.num_parameters == 15
        assert rf_pa_env.num_parameters == 14
        assert opamp_env.spec_feature_dimension == 12
        assert rf_pa_env.spec_feature_dimension == 6
        assert opamp_env.num_graph_nodes == 12
        assert opamp_env.node_feature_dimension > 0


class TestFomMode:
    def test_fom_env_never_terminates_early(self):
        env = make_env("rf_pa-fom-v0", seed=0, max_steps=4)
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done, info = env.step(env.action_space.no_op())
            steps += 1
            assert "figure_of_merit" in info
        assert steps == 4

    def test_fom_mode_flag(self):
        assert make_env("rf_pa-fom-v0", seed=0).is_fom_mode
        assert not make_env("opamp-p2s-v0", seed=0).is_fom_mode


class TestRegistry:
    def test_fidelity_selection(self):
        assert make_env("rf_pa-fine-v0").simulator.name == "rf_pa_fine"
        assert make_env("rf_pa-coarse-v0").simulator.name == "rf_pa_coarse"
        with pytest.raises(ValueError):
            make_env("rf_pa-medium-v0")

    def test_seeded_environments_sample_same_targets(self):
        env_a = make_env("opamp-p2s-v0", seed=11)
        env_b = make_env("opamp-p2s-v0", seed=11)
        env_a.reset(), env_b.reset()
        assert env_a.target_specs == env_b.target_specs
