"""Tests for the multimodal policy and the baseline policy variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_policy
from repro.agents.policy import ActorCriticPolicy, PolicyConfig
from repro.env.spaces import NUM_ACTION_CHOICES, BatchedObservation


@pytest.fixture
def observation(opamp_env):
    return opamp_env.reset(
        target_specs={"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
    )


@pytest.fixture
def batch(observation):
    """The observation as a batch of one."""
    return BatchedObservation.stack([observation])


class TestConfigValidation:
    def test_requires_positive_dims(self):
        with pytest.raises(ValueError):
            PolicyConfig(num_parameters=0, spec_feature_dim=4)
        with pytest.raises(ValueError):
            PolicyConfig(num_parameters=3, spec_feature_dim=0)
        with pytest.raises(ValueError):
            PolicyConfig(num_parameters=3, spec_feature_dim=4, use_graph=True, node_feature_dim=0)

    def test_concat_readout_needs_num_nodes(self):
        with pytest.raises(ValueError):
            PolicyConfig(
                num_parameters=3, spec_feature_dim=4, node_feature_dim=5,
                num_graph_nodes=0, graph_readout="concat",
            )

    def test_unknown_graph_kind(self):
        with pytest.raises(ValueError):
            PolicyConfig(
                num_parameters=3, spec_feature_dim=4, node_feature_dim=5,
                num_graph_nodes=6, graph_kind="sage",
            )


class TestForwardPasses:
    @pytest.mark.parametrize("policy_id", ["gcn_fc", "gat_fc", "baseline_a", "baseline_b"])
    def test_distribution_shape(self, opamp_env, batch, policy_id, rng):
        policy = make_policy(policy_id, opamp_env, rng)
        distribution = policy.action_distribution_batch(batch)
        assert distribution.probs.shape == (1, opamp_env.num_parameters, NUM_ACTION_CHOICES)
        np.testing.assert_allclose(distribution.probs.sum(axis=-1), 1.0)

    def test_value_is_scalar(self, opamp_env, batch, rng):
        policy = make_policy("gcn_fc", opamp_env, rng)
        value = policy.value_batch(batch)
        assert value.shape == (1,)
        assert np.isfinite(value.item())

    def test_act_returns_valid_action(self, opamp_env, observation, rng):
        policy = make_policy("gat_fc", opamp_env, rng)
        action, log_prob, value = policy.act(observation, rng)
        assert opamp_env.action_space.contains(action)
        assert np.isfinite(log_prob) and np.isfinite(value)

    def test_deterministic_act_is_mode(self, opamp_env, observation, rng):
        policy = make_policy("gcn_fc", opamp_env, rng)
        action_a, _, _ = policy.act(observation, rng, deterministic=True)
        action_b, _, _ = policy.act(observation, np.random.default_rng(999), deterministic=True)
        np.testing.assert_array_equal(action_a, action_b)

    def test_evaluate_actions_consistent_with_act(self, opamp_env, observation, batch, rng):
        policy = make_policy("gcn_fc", opamp_env, rng)
        action, log_prob, value = policy.act(observation, rng)
        log_prob_eval, value_eval, entropy = policy.evaluate_actions(batch, action[None])
        assert float(log_prob_eval.item()) == pytest.approx(log_prob)
        assert float(value_eval.item()) == pytest.approx(value)
        assert float(entropy.item()) >= 0.0

    def test_gradients_reach_both_branches(self, opamp_env, observation, batch, rng):
        policy = make_policy("gcn_fc", opamp_env, rng)
        action, _, _ = policy.act(observation, rng)
        log_prob, value, entropy = policy.evaluate_actions(batch, action[None])
        (log_prob + value + entropy).sum().backward()
        grads = [name for name, p in policy.named_parameters() if p.grad is not None]
        assert any("graph_encoder" in name for name in grads)
        assert any("spec_encoder" in name for name in grads)
        assert any("actor_head" in name for name in grads)
        assert any("critic_head" in name for name in grads)


class TestArchitectureDifferences:
    def test_baseline_a_has_no_graph_branch(self, opamp_env, rng):
        policy = make_policy("baseline_a", opamp_env, rng)
        names = [name for name, _ in policy.named_parameters()]
        assert not any("graph_encoder" in name for name in names)

    def test_baseline_b_has_no_spec_encoder(self, opamp_env, rng):
        policy = make_policy("baseline_b", opamp_env, rng)
        names = [name for name, _ in policy.named_parameters()]
        assert any("graph_encoder" in name for name in names)
        assert not any("spec_encoder" in name for name in names)

    def test_gat_uses_attention_parameters(self, opamp_env, rng):
        policy = make_policy("gat_fc", opamp_env, rng)
        names = [name for name, _ in policy.named_parameters()]
        assert any("attn_src" in name for name in names)

    def test_baseline_b_static_features_ignore_sizing(self, opamp_env, rng):
        """With static node features, only the raw spec block reacts to sizing."""
        policy = make_policy("baseline_b", opamp_env, rng, use_dynamic_node_features=False,
                             include_parameters=False)
        observation = opamp_env.reset(
            target_specs={"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
        )
        before = policy.action_distribution_batch(BatchedObservation.stack([observation])).probs
        # Change only the netlist-derived dynamic features.
        modified = observation
        modified.node_features[:, -2:] += 0.3
        after = policy.action_distribution_batch(BatchedObservation.stack([modified])).probs
        np.testing.assert_allclose(before, after)

    def test_make_policy_by_name(self, opamp_env, rng):
        for name in ("gcn_fc", "gat_fc", "baseline_a", "baseline_b"):
            assert isinstance(make_policy(name, opamp_env, rng), ActorCriticPolicy)
        with pytest.raises(ValueError):
            make_policy("alphazero", opamp_env, rng)


class TestTransferability:
    def test_state_dict_roundtrip_preserves_behaviour(self, opamp_env, batch, rng):
        source = make_policy("gcn_fc", opamp_env, np.random.default_rng(0))
        target = make_policy("gcn_fc", opamp_env, np.random.default_rng(1))
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(
            source.action_distribution_batch(batch).probs,
            target.action_distribution_batch(batch).probs,
        )

    def test_policy_works_on_rf_pa_env(self, rf_pa_env, rng):
        policy = make_policy("gcn_fc", rf_pa_env, rng)
        observation = rf_pa_env.reset()
        action, _, _ = policy.act(observation, rng)
        assert action.shape == (14,)
