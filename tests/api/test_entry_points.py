"""One way in: each job is built through ``repro.make_env`` / ``make_policy`` /
``make_optimizer``, and the pre-registry factories are gone for good.

The first half pins that the catalog builds every configuration the removed
per-circuit and per-policy factories used to build; the second half pins that
those factories (and their modules) do not come back through a re-export.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
from repro.agents.policy import POLICY_FACTORIES, ActorCriticPolicy
from repro.api import UnknownComponentError
from repro.baselines import GeneticAlgorithm, RandomSearch
from repro.env.circuit_env import CircuitDesignEnv
from repro.env.spaces import BatchedObservation


@pytest.mark.parametrize(
    "env_id,kwargs,check",
    [
        ("opamp-p2s-v0", {"max_steps": 9}, lambda env: env.max_steps == 9),
        ("rf_pa-coarse-v0", {}, lambda env: env.simulator.name == "rf_pa_coarse"),
        ("rf_pa-fom-v0", {}, lambda env: env.is_fom_mode),
    ],
)
def test_make_env_builds_each_circuit_configuration(env_id, kwargs, check):
    env = repro.make_env(env_id, seed=0, **kwargs)
    assert isinstance(env, CircuitDesignEnv)
    assert check(env)


def test_unknown_rf_pa_fidelity_is_an_unknown_id():
    with pytest.raises(UnknownComponentError, match="rf_pa-medium-v0") as excinfo:
        repro.make_env("rf_pa-medium-v0")
    assert "rf_pa-coarse-v0" in str(excinfo.value)
    assert "rf_pa-fine-v0" in str(excinfo.value)


def test_seeded_make_env_reproduces_targets():
    first = repro.make_env("opamp-p2s-v0", seed=11)
    second = repro.make_env("opamp-p2s-v0", seed=11)
    first.reset(), second.reset()
    assert first.target_specs == second.target_specs


@pytest.mark.parametrize("policy_id", sorted(POLICY_FACTORIES))
def test_make_policy_matches_the_factory_table(policy_id, opamp_env):
    target = {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 57.0, "power": 2e-3}
    batch = BatchedObservation.stack([opamp_env.reset(target_specs=target)])
    registry = repro.make_policy(policy_id, opamp_env, np.random.default_rng(5))
    direct = POLICY_FACTORIES[policy_id](opamp_env, np.random.default_rng(5))
    assert isinstance(registry, ActorCriticPolicy)
    np.testing.assert_array_equal(
        registry.action_distribution_batch(batch).probs,
        direct.action_distribution_batch(batch).probs,
    )


@pytest.mark.parametrize(
    "optimizer_id,budget,search_type,sized",
    [
        # budget 60 = initial population (20) + 2 generations of 20
        ("genetic_algorithm", 60, GeneticAlgorithm, lambda c: c.num_generations == 2),
        ("random_search", 15, RandomSearch, lambda c: c.num_samples == 15),
    ],
)
def test_make_optimizer_sizes_the_search_from_the_budget(optimizer_id, budget,
                                                         search_type, sized):
    search = repro.make_optimizer(optimizer_id, seed=0, budget=budget).build_search()
    assert isinstance(search, search_type)
    assert sized(search.config)


@pytest.mark.parametrize(
    "module", ["repro.env.registry", "repro.serve.specs", "repro.api.deprecation"]
)
def test_removed_modules_stay_removed(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


# Every public builder, seeder and loader each package exposes: one per job.
ENTRY_POINTS = {
    "repro": {"make_env", "make_policy", "make_optimizer", "seed_everything",
              "load_checkpoint", "load_surrogate"},
    "repro.api": {"make_env", "make_policy", "make_optimizer", "seed_everything"},
    "repro.env": set(),
    "repro.agents": {"load_checkpoint"},
    "repro.experiments": {"make_environment"},
    "repro.serve": {"parse_requests_document", "load_requests_document"},
}


@pytest.mark.parametrize("package", sorted(ENTRY_POINTS))
def test_packages_export_one_entry_point_per_job(package):
    module = importlib.import_module(package)
    exported = {
        name for name in dir(module)
        if name.startswith(("make_", "seed_", "warn_", "parse_", "load_"))
    }
    assert exported == ENTRY_POINTS[package]
