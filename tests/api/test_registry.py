"""Tests for the string-ID component registry and the catalog contents."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.agents.policy import ActorCriticPolicy
from repro.api import Optimizer, UnknownComponentError
from repro.api.registry import Registry
from repro.env.circuit_env import CircuitDesignEnv
from repro.env.spaces import BatchedObservation


class TestCatalogRoundTrips:
    def test_every_listed_env_constructs(self):
        assert len(repro.list_envs()) >= 5
        for env_id in repro.list_envs():
            env = repro.make_env(env_id, seed=0)
            assert isinstance(env, CircuitDesignEnv)

    def test_every_listed_policy_constructs(self, opamp_env, rng):
        assert set(repro.list_policies()) == {"gcn_fc", "gat_fc", "baseline_a", "baseline_b"}
        for policy_id in repro.list_policies():
            policy = repro.make_policy(policy_id, opamp_env, rng)
            assert isinstance(policy, ActorCriticPolicy)

    def test_every_listed_optimizer_constructs(self):
        assert set(repro.list_optimizers()) == {
            "ppo", "genetic", "bayesian", "random", "supervised",
        }
        for optimizer_id in repro.list_optimizers():
            optimizer = repro.make_optimizer(optimizer_id)
            assert isinstance(optimizer, Optimizer)
            assert optimizer.id == optimizer_id

    def test_env_ids_cover_both_circuits_and_tasks(self):
        ids = repro.list_envs()
        assert "opamp-p2s-v0" in ids
        assert "rf_pa-coarse-v0" in ids and "rf_pa-fine-v0" in ids
        assert "rf_pa-fom-v0" in ids and "rf_pa-fom-coarse-v0" in ids

    def test_legacy_aliases_resolve(self):
        from repro.api import ENVS, OPTIMIZERS

        assert ENVS.resolve("rf_pa-p2s-v0") == "rf_pa-fine-v0"
        assert OPTIMIZERS.resolve("genetic_algorithm") == "genetic"
        assert OPTIMIZERS.resolve("bayesian_optimization") == "bayesian"
        assert OPTIMIZERS.resolve("random_search") == "random"
        assert OPTIMIZERS.resolve("supervised_learning") == "supervised"

    def test_describe_components_lists_all_kinds(self):
        catalog = repro.describe_components()
        assert set(catalog) == {"environments", "policies", "optimizers"}
        for entries in catalog.values():
            assert entries  # every kind is populated
            assert all(isinstance(text, str) for text in entries.values())


class TestUnknownIds:
    def test_unknown_env_error_is_helpful(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            repro.make_env("opamp-p2s-v1")
        message = str(excinfo.value)
        assert "opamp-p2s-v1" in message
        assert "Did you mean" in message
        assert "opamp-p2s-v0" in message

    def test_unknown_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            repro.make_optimizer("simulated_annealing")

    def test_unknown_error_lists_available_ids(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            repro.make_policy("resnet", None)
        for policy_id in repro.list_policies():
            assert policy_id in str(excinfo.value)


class TestRegistryMechanics:
    def test_decorator_registration_and_defaults(self):
        registry = Registry("widget")

        @registry.register("w-v0", description="a widget", defaults={"size": 3}, aliases=("w",))
        def _make(size: int = 1, color: str = "red"):
            return (size, color)

        assert registry.ids() == ["w-v0"]
        assert "w" in registry and "w-v0" in registry
        assert registry.make("w-v0") == (3, "red")          # defaults applied
        assert registry.make("w", size=5, color="blue") == (5, "blue")  # caller wins

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("w-v0", lambda: 1)
        with pytest.raises(ValueError):
            registry.register("w-v0", lambda: 2)
        registry.register("w-v0", lambda: 2, overwrite=True)
        assert registry.make("w-v0") == 2

    def test_alias_collision_rejected(self):
        registry = Registry("widget")
        registry.register("w-v0", lambda: 1, aliases=("w",))
        with pytest.raises(ValueError):
            registry.register("w", lambda: 2)

    def test_overwrite_repoints_canonical_id_via_alias(self):
        registry = Registry("widget")
        registry.register("w-v0", lambda: "old", aliases=("w",))
        registry.register("w-v1", lambda: "new", aliases=("w-v0",), overwrite=True)
        assert registry.make("w-v0") == "new"     # old canonical ID repointed
        assert registry.ids() == ["w-v1"]
        assert "w" not in registry                # stale alias of the old entry dropped

    def test_overwrite_drops_stale_aliases_of_replaced_entry(self):
        registry = Registry("widget")
        registry.register("w-v0", lambda: "old", aliases=("w", "widget"))
        registry.register("w-v0", lambda: "new", aliases=("w",), overwrite=True)
        assert registry.make("w") == "new"
        assert "widget" not in registry

    def test_unregister_removes_aliases(self):
        registry = Registry("widget")
        registry.register("w-v0", lambda: 1, aliases=("w",))
        registry.unregister("w")
        assert len(registry) == 0
        assert "w" not in registry

    def test_user_extension_via_register_env(self, opamp_env):
        from repro.api import ENVS

        @repro.register_env("custom-opamp-v0", description="test extension")
        def _custom(seed=None):
            return repro.make_env("opamp-p2s-v0", seed=seed, max_steps=7)

        try:
            env = repro.make_env("custom-opamp-v0", seed=1)
            assert env.max_steps == 7
            assert "custom-opamp-v0" in repro.list_envs()
        finally:
            ENVS.unregister("custom-opamp-v0")


class TestPolicyEquivalence:
    def test_registry_policy_matches_legacy_builder(self, opamp_env):
        """The registry path builds the exact same network as the old factory."""
        from repro.agents.policy import POLICY_FACTORIES

        target = {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
        batch = BatchedObservation.stack([opamp_env.reset(target_specs=target)])
        new = repro.make_policy("gcn_fc", opamp_env, np.random.default_rng(4))
        old = POLICY_FACTORIES["gcn_fc"](opamp_env, np.random.default_rng(4))
        np.testing.assert_allclose(
            new.action_distribution_batch(batch).probs,
            old.action_distribution_batch(batch).probs,
        )
