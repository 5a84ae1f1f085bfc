"""Batched policy inference and vectorized optimizer determinism.

The batched forward pass must agree with the per-environment forward for all
four compared architectures, and switching an optimizer onto the vector path
(``vectorize`` / shared cache) must not change its results — only its speed.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.env.spaces import BatchedObservation
from repro.nn.distributions import BatchedMultiCategorical
from repro.nn.tensor import Tensor
from repro.parallel import VectorCircuitEnv

POLICY_IDS = ("gcn_fc", "gat_fc", "baseline_a", "baseline_b")


@pytest.fixture(scope="module")
def batch():
    venv = repro.make_env("opamp-p2s-v0", seed=0, num_envs=5)
    observations = venv.reset()
    # Step twice with distinct random actions so rows genuinely differ.
    rng = np.random.default_rng(3)
    for _ in range(2):
        actions = np.stack([venv.action_space.sample(rng) for _ in range(5)])
        observations, _, _, _ = venv.step(actions)
    return venv, observations


class TestBatchedForward:
    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_distribution_matches_per_env(self, batch, policy_id):
        venv, observations = batch
        policy = repro.make_policy(policy_id, venv.envs[0], np.random.default_rng(11))
        batched = policy.action_distribution_batch(observations)
        for i in range(len(observations)):
            single = policy.action_distribution_batch(BatchedObservation.stack([observations[i]]))
            np.testing.assert_allclose(
                batched.probs[i], single.probs[0], rtol=1e-12, atol=1e-14
            )

    @pytest.mark.parametrize("policy_id", POLICY_IDS)
    def test_values_match_per_env(self, batch, policy_id):
        venv, observations = batch
        policy = repro.make_policy(policy_id, venv.envs[0], np.random.default_rng(11))
        values = policy.value_batch(observations).numpy()
        for i in range(len(observations)):
            single = policy.value_batch(BatchedObservation.stack([observations[i]]))
            np.testing.assert_allclose(values[i], single.item(), rtol=1e-12, atol=1e-14)

    def test_deterministic_actions_match_per_env(self, batch):
        venv, observations = batch
        policy = repro.make_policy("gcn_fc", venv.envs[0], np.random.default_rng(11))
        actions, log_probs, values = policy.act_batch(
            observations, np.random.default_rng(0), deterministic=True
        )
        for i in range(len(observations)):
            action, log_prob, value = policy.act(
                observations[i], np.random.default_rng(0), deterministic=True
            )
            assert np.array_equal(actions[i], action)
            np.testing.assert_allclose(log_probs[i], log_prob, rtol=1e-12)
            np.testing.assert_allclose(values[i], value, rtol=1e-12)

    def test_sampled_actions_are_valid_and_shaped(self, batch):
        venv, observations = batch
        policy = repro.make_policy("gat_fc", venv.envs[0], np.random.default_rng(11))
        actions, log_probs, values = policy.act_batch(observations, np.random.default_rng(5))
        assert actions.shape == (5, venv.num_parameters)
        assert log_probs.shape == values.shape == (5,)
        assert np.all((actions >= 0) & (actions < 3))


class TestBatchedMultiCategorical:
    def test_log_prob_and_entropy_match_rows(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(4, 6, 3)))
        batched = BatchedMultiCategorical(logits)
        actions = batched.sample(rng)
        joint = batched.log_prob(actions).numpy()
        entropies = batched.entropy().numpy()
        for i in range(4):
            row = BatchedMultiCategorical(logits[i:i + 1])
            np.testing.assert_allclose(joint[i], row.log_prob(actions[i:i + 1]).item(), rtol=1e-12)
            np.testing.assert_allclose(entropies[i], row.entropy().item(), rtol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BatchedMultiCategorical(Tensor(np.zeros((4, 3))))
        batched = BatchedMultiCategorical(Tensor(np.zeros((2, 5, 3))))
        with pytest.raises(ValueError):
            batched.log_prob(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            batched.log_prob(np.full((2, 5), 3, dtype=np.int64))

    def test_log_prob_gradients_flow(self):
        logits = Tensor(np.zeros((2, 3, 3)), requires_grad=True)
        batched = BatchedMultiCategorical(logits)
        actions = np.zeros((2, 3), dtype=np.int64)
        batched.log_prob(actions).sum().backward()
        assert logits.grad is not None
        assert logits.grad.shape == (2, 3, 3)


class TestVectorizedTrainingAndOptimizers:
    def test_ppo_trains_on_vector_env(self):
        env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=8)
        venv = VectorCircuitEnv.from_env(env, num_envs=4, seed=0)
        policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
        from repro.agents.ppo import PPOConfig, PPOTrainer

        trainer = PPOTrainer(venv, policy, config=PPOConfig(learning_rate=1e-3), seed=0)
        history = trainer.train(total_episodes=8, episodes_per_update=4, eval_interval=None)
        assert len(history.records) == 2
        assert np.isfinite(history.final_mean_reward)
        assert venv.cache is not None and venv.cache.stats.hits > 0

    def test_ppo_trainer_rejects_non_autoreset_vector_env(self):
        env = repro.make_env("opamp-p2s-v0", seed=0)
        venv = VectorCircuitEnv.from_env(env, num_envs=2, seed=0, autoreset=False)
        policy = repro.make_policy("baseline_a", env, np.random.default_rng(0))
        from repro.agents.ppo import PPOTrainer

        with pytest.raises(ValueError):
            PPOTrainer(venv, policy)

    def test_objective_batch_matches_sequential(self):
        """Raw-parameter population scoring equals per-candidate scoring."""
        from repro.api.optimizers import build_problem
        from repro.parallel import SimulationCache

        env = repro.make_env("opamp-p2s-v0", seed=0)
        target = env.sample_target()
        space = env.benchmark.design_space
        rng = np.random.default_rng(8)
        population = np.stack([space.sample(rng) for _ in range(6)])
        population[3] = population[0]  # duplicate candidate for the cache

        reference = build_problem(env, target)
        expected = np.array([reference.objective(row) for row in population])

        cached = build_problem(env, target, simulator=SimulationCache(env.simulator))
        values = cached.objective_batch(population)
        assert np.array_equal(values, expected)
        assert cached.trace.objective_values == reference.trace.objective_values
        assert cached.simulator.stats.hits == 1

    def test_optimizers_accept_front_door_vector_env(self):
        """make_env(num_envs=k) output works directly with every optimizer."""
        venv = repro.make_env("opamp-p2s-v0", seed=0, num_envs=4)
        target = venv.envs[0].sample_target()
        result = repro.make_optimizer("random").optimize(
            venv, budget=10, seed=2, target_specs=target
        )
        sequential = repro.make_optimizer("random").optimize(
            repro.make_env("opamp-p2s-v0", seed=0), budget=10, seed=2, target_specs=target
        )
        assert result.best_objective == sequential.best_objective
        ppo = repro.make_optimizer("ppo", episodes_per_update=4).optimize(
            venv, budget=4, seed=0, target_specs=target
        )
        assert ppo.metadata["num_envs"] == 4

    @pytest.mark.parametrize("method,params", [
        ("genetic", {"population_size": 8}),
        ("random", {}),
        ("bayesian", {}),
    ])
    def test_vectorized_search_matches_sequential(self, method, params):
        env = repro.make_env("opamp-p2s-v0", seed=0)
        sequential = repro.make_optimizer(method, **params).optimize(env, budget=30, seed=4)
        vectorized = repro.make_optimizer(method, vectorize=8, **params).optimize(
            env, budget=30, seed=4
        )
        assert np.array_equal(sequential.best_parameters, vectorized.best_parameters)
        assert sequential.best_objective == vectorized.best_objective
        assert sequential.num_simulations == vectorized.num_simulations
        assert "simulation_cache" in vectorized.metadata

    def test_optimizer_config_vectorize_round_trip(self):
        config = repro.OptimizerConfig(id="genetic", vectorize=8)
        clone = repro.OptimizerConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.build().vectorize == 8

    def test_optimizer_config_vectorize_conflict(self):
        with pytest.raises(ValueError):
            repro.OptimizerConfig(id="genetic", params={"vectorize": 4}, vectorize=8)

    def test_optimizer_config_default_omits_vectorize(self):
        config = repro.OptimizerConfig(id="random")
        assert "vectorize" not in config.to_dict()

    def test_run_config_with_vectorize_reproduces(self):
        config = repro.RunConfig(
            env={"id": "opamp-p2s-v0", "params": {"seed": 0}},
            optimizer=repro.OptimizerConfig(id="random", vectorize=4),
            budget=20,
            seed=9,
        )
        clone = repro.RunConfig.from_json(config.to_json())
        assert clone == config
        assert clone.run().best_objective == config.run().best_objective
