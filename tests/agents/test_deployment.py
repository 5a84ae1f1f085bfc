"""Tests for policy deployment and design-accuracy evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.deployment import deploy_policy, deploy_policy_batch, evaluate_deployment
from repro.env.spaces import BatchedObservation
from repro.nn.distributions import sample_from_probs
from repro.parallel import VectorCircuitEnv
from repro import make_env, make_policy


@pytest.fixture
def env():
    return make_env("opamp-p2s-v0", seed=0, max_steps=10)


@pytest.fixture
def policy(env):
    return make_policy("gcn_fc", env, np.random.default_rng(0))


class TestDeployPolicy:
    def test_returns_trajectory_and_final_specs(self, env, policy):
        target = {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
        result = deploy_policy(env, policy, target, rng=np.random.default_rng(0))
        assert result.target_specs == target
        assert 1 <= result.steps <= env.max_steps
        assert result.trajectory.length == result.steps
        assert set(result.final_specs) == {"gain", "bandwidth", "phase_margin", "power"}

    def test_success_on_trivial_target(self, env, policy):
        trivial = {"gain": 1.1, "bandwidth": 1.0, "phase_margin": 0.0, "power": 10.0}
        result = deploy_policy(env, policy, trivial, rng=np.random.default_rng(0))
        assert result.success
        assert result.steps == 1

    def test_max_steps_override_is_restored(self, env, policy):
        target = {"gain": 1e9, "bandwidth": 1e12, "phase_margin": 90.0, "power": 1e-12}
        result = deploy_policy(env, policy, target, max_steps=3, rng=np.random.default_rng(0))
        assert result.steps == 3
        assert env.max_steps == 10

    def test_deterministic_deployment_is_reproducible(self, env, policy):
        target = {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
        first = deploy_policy(env, policy, target, deterministic=True)
        second = deploy_policy(env, policy, target, deterministic=True)
        assert first.steps == second.steps
        assert first.final_specs == second.final_specs


def _grad_recording_episode(env, policy, target, deterministic=True, rng=None):
    """One episode acting through the graded (autograd) action distribution."""
    rng = rng if rng is not None else np.random.default_rng(0)
    observation = env.reset(target_specs=target)
    done = False
    while not done:
        probs = policy.action_distribution_batch(BatchedObservation.stack([observation])).probs
        actions = np.argmax(probs, axis=-1) if deterministic else sample_from_probs(probs, rng)
        observation, _, done, _ = env.step(actions[0])
    return env.trajectory


class TestInferenceFastPath:
    def test_grad_recording_loop_deploys_identically(self, env, policy):
        targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(9), 3)
        for target in targets:
            grad = _grad_recording_episode(env, policy, target)
            fast = deploy_policy(env, policy, target)
            assert grad.length == fast.steps
            assert grad.success == fast.success
            assert grad.records[-1].specs == fast.final_specs
            for record_a, record_b in zip(grad.records, fast.trajectory.records):
                np.testing.assert_array_equal(record_a.parameters, record_b.parameters)

    def test_stochastic_paths_share_the_rng_stream(self, env, policy):
        target = {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
        grad = _grad_recording_episode(
            env, policy, target, deterministic=False, rng=np.random.default_rng(4)
        )
        fast = deploy_policy(
            env, policy, target, deterministic=False, rng=np.random.default_rng(4)
        )
        assert grad.length == fast.steps
        for record_a, record_b in zip(grad.records, fast.trajectory.records):
            np.testing.assert_array_equal(record_a.parameters, record_b.parameters)


class TestDeployPolicyBatch:
    @pytest.mark.parametrize("policy_id", ["gcn_fc", "gat_fc", "baseline_a", "baseline_b"])
    def test_batched_results_identical_to_sequential(self, env, policy_id):
        policy = make_policy(policy_id, env, np.random.default_rng(1))
        targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(2), 5)
        sequential = [deploy_policy(env, policy, target) for target in targets]
        vector_env = VectorCircuitEnv.from_env(env, num_envs=3, autoreset=False)
        batched = deploy_policy_batch(vector_env, policy, targets)
        assert len(batched) == len(sequential)
        for a, b in zip(sequential, batched):
            assert a.steps == b.steps
            assert a.success == b.success
            assert a.final_specs == b.final_specs
            assert a.target_specs == b.target_specs
            for record_a, record_b in zip(a.trajectory.records, b.trajectory.records):
                np.testing.assert_array_equal(record_a.parameters, record_b.parameters)
                assert record_a.specs == record_b.specs

    def test_batch_wider_than_targets(self, env, policy):
        targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(2), 2)
        vector_env = VectorCircuitEnv.from_env(env, num_envs=6, autoreset=False)
        results = deploy_policy_batch(vector_env, policy, targets)
        assert [r.steps for r in results] == [
            deploy_policy(env, policy, t).steps for t in targets
        ]

    def test_max_steps_override_restored(self, env, policy):
        vector_env = VectorCircuitEnv.from_env(env, num_envs=2, autoreset=False)
        target = {"gain": 1e9, "bandwidth": 1e12, "phase_margin": 90.0, "power": 1e-12}
        results = deploy_policy_batch(vector_env, policy, [target, target], max_steps=3)
        assert [r.steps for r in results] == [3, 3]
        assert all(sub.max_steps == env.max_steps for sub in vector_env.envs)

    def test_rejects_non_vector_env(self, env, policy):
        with pytest.raises(TypeError, match="VectorCircuitEnv"):
            deploy_policy_batch(env, policy, [{"gain": 1.0}])


class TestEvaluateDeployment:
    def test_accuracy_and_steps_statistics(self, env, policy):
        evaluation = evaluate_deployment(env, policy, num_targets=5, seed=42)
        assert evaluation.num_targets == 5
        assert 0.0 <= evaluation.accuracy <= 1.0
        assert 1.0 <= evaluation.mean_steps <= env.max_steps

    def test_same_seed_gives_same_targets(self, env, policy):
        first = evaluate_deployment(env, policy, num_targets=4, seed=7)
        second = evaluate_deployment(env, policy, num_targets=4, seed=7)
        assert [r.target_specs for r in first.results] == [r.target_specs for r in second.results]

    def test_explicit_target_list(self, env, policy):
        targets = [
            {"gain": 1.1, "bandwidth": 1.0, "phase_margin": 0.0, "power": 10.0},
            {"gain": 1e9, "bandwidth": 1e12, "phase_margin": 90.0, "power": 1e-12},
        ]
        evaluation = evaluate_deployment(env, policy, targets=targets)
        assert evaluation.num_targets == 2
        assert evaluation.results[0].success
        assert not evaluation.results[1].success
        assert evaluation.accuracy == pytest.approx(0.5)

    def test_batched_evaluation_matches_sequential(self, env, policy):
        sequential = evaluate_deployment(env, policy, num_targets=6, seed=11)
        batched = evaluate_deployment(env, policy, num_targets=6, seed=11, batch_size=4)
        assert batched.accuracy == sequential.accuracy
        assert batched.mean_steps == sequential.mean_steps
        assert [r.steps for r in batched.results] == [r.steps for r in sequential.results]
        assert [r.target_specs for r in batched.results] == [
            r.target_specs for r in sequential.results
        ]

    def test_batched_evaluation_is_seed_reproducible_for_random_starts(self):
        env = make_env("opamp-p2s-v0", seed=0, max_steps=6, initial_sizing="random")
        policy = make_policy("baseline_a", env, np.random.default_rng(0))
        first = evaluate_deployment(env, policy, num_targets=5, seed=13, batch_size=3)
        second = evaluate_deployment(env, policy, num_targets=5, seed=13, batch_size=3)
        assert [r.steps for r in first.results] == [r.steps for r in second.results]
        assert [r.final_specs for r in first.results] == [
            r.final_specs for r in second.results
        ]

    def test_empty_evaluation_degenerate_values(self):
        from repro.agents.deployment import DeploymentEvaluation

        empty = DeploymentEvaluation()
        assert empty.accuracy == 0.0
        assert empty.mean_steps == 0.0


class TestGreedyFomRollouts:
    @pytest.mark.parametrize("episodes", [1, 2])
    def test_best_step_is_the_first_maximum(self, episodes):
        from repro.agents.deployment import greedy_fom_rollouts

        env = make_env("rf_pa-fom-v0", seed=0, max_steps=4)
        policy = make_policy("gcn_fc", env, np.random.default_rng(0))
        rollouts = greedy_fom_rollouts(env, policy, episodes, np.random.default_rng(0))
        assert len(rollouts.foms) == episodes * env.max_steps
        best = int(np.argmax(rollouts.foms))
        assert rollouts.best_fom == rollouts.foms[best] == max(rollouts.foms)
        if episodes == 1:
            record = env.trajectory.records[best]
            np.testing.assert_array_equal(rollouts.best_parameters, record.parameters)
            assert rollouts.best_specs == record.specs
