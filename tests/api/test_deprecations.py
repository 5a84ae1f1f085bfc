"""The legacy factories: still importable, still working, but warning.

This is the one place the deprecated entry points are exercised on purpose —
the CI deprecation job runs the suite with ``-W error::DeprecationWarning``
and these tests stay green because ``pytest.warns`` captures the warnings
before the filter escalates them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.circuit_env import CircuitDesignEnv


def test_legacy_env_factories_warn_but_work():
    from repro.env import make_opamp_env, make_rf_pa_env, make_rf_pa_fom_env

    with pytest.warns(DeprecationWarning, match="make_opamp_env"):
        env = make_opamp_env(seed=0, max_steps=9)
    assert isinstance(env, CircuitDesignEnv)
    assert env.max_steps == 9

    with pytest.warns(DeprecationWarning, match="make_rf_pa_env"):
        env = make_rf_pa_env(seed=0, fidelity="coarse")
    assert env.simulator.name == "rf_pa_coarse"

    with pytest.warns(DeprecationWarning, match="make_rf_pa_fom_env"):
        env = make_rf_pa_fom_env(seed=0)
    assert env.is_fom_mode


def test_legacy_rf_pa_factory_still_validates_fidelity():
    from repro.env import make_rf_pa_env

    with pytest.warns(DeprecationWarning):
        with pytest.raises(ValueError, match="fidelity"):
            make_rf_pa_env(fidelity="medium")


def test_legacy_env_factory_matches_registry(opamp_env):
    from repro.env import make_opamp_env

    with pytest.warns(DeprecationWarning):
        legacy = make_opamp_env(seed=11)
    import repro

    registry_env = repro.make_env("opamp-p2s-v0", seed=11)
    legacy.reset(), registry_env.reset()
    assert legacy.target_specs == registry_env.target_specs


def test_legacy_policy_factories_warn_but_work(opamp_env, rng):
    from repro.agents import (
        make_baseline_a_policy,
        make_baseline_b_policy,
        make_gat_fc_policy,
        make_gcn_fc_policy,
    )
    from repro.agents.policy import ActorCriticPolicy

    for factory in (make_gcn_fc_policy, make_gat_fc_policy,
                    make_baseline_a_policy, make_baseline_b_policy):
        with pytest.warns(DeprecationWarning, match=factory.__name__):
            policy = factory(opamp_env, rng)
        assert isinstance(policy, ActorCriticPolicy)


def test_legacy_make_policy_dispatch_warns_and_matches_registry(opamp_env):
    import repro
    from repro.agents.policy import ActorCriticPolicy, make_policy
    from repro.env.spaces import BatchedObservation

    target = {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
    batch = BatchedObservation.stack([opamp_env.reset(target_specs=target)])
    with pytest.warns(DeprecationWarning, match="make_policy"):
        legacy = make_policy("gat_fc", opamp_env, np.random.default_rng(5))
    assert isinstance(legacy, ActorCriticPolicy)
    registry = repro.make_policy("gat_fc", opamp_env, np.random.default_rng(5))
    np.testing.assert_allclose(
        legacy.action_distribution_batch(batch).probs,
        registry.action_distribution_batch(batch).probs,
    )


def test_legacy_make_policy_unknown_name_raises_value_error(opamp_env):
    from repro.agents.policy import make_policy

    with pytest.warns(DeprecationWarning):
        with pytest.raises(ValueError):
            make_policy("alphazero", opamp_env)


def test_legacy_experiments_make_optimizer_warns_but_works():
    from repro.baselines import GeneticAlgorithm, RandomSearch
    from repro.experiments import make_optimizer

    with pytest.warns(DeprecationWarning, match="make_optimizer"):
        ga = make_optimizer("genetic_algorithm", seed=0, budget=60)
    assert isinstance(ga, GeneticAlgorithm)
    # budget 60 = initial population (20) + 2 generations of 20
    assert ga.config.num_generations == 2

    with pytest.warns(DeprecationWarning):
        rs = make_optimizer("random_search", seed=0, budget=15)
    assert isinstance(rs, RandomSearch)
    assert rs.config.num_samples == 15

    with pytest.warns(DeprecationWarning):
        with pytest.raises(ValueError):
            make_optimizer("ppo")  # not a direct-search method


def test_legacy_names_remain_importable_from_repro():
    import repro

    for name in (
        "make_opamp_env",
        "make_rf_pa_env",
        "make_rf_pa_fom_env",
        "make_gcn_fc_policy",
        "make_gat_fc_policy",
        "make_baseline_a_policy",
        "make_baseline_b_policy",
    ):
        assert callable(getattr(repro, name))
