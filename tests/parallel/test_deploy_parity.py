"""Lock-step deployment on the single vector step: bitwise parity.

``deploy_policy_batch`` resets each micro-batch's lanes in one
``reset_selected`` call and steps the still-active lanes through
``VectorCircuitEnv.step_selected``.  The CI ``parity`` job runs this file as
its ``deploy`` leg: on every circuit family, a deployment on the single step
and one on ``ReferenceVectorEnv`` (the per-environment loop) must agree on
every trajectory record, the final specs, step counts and success flags, and
the shared cache's counters and LRU order — with lanes that finish at
different steps, a ragged last chunk and a ``max_steps`` override.
``deploy_policy`` (the same loop with the environment as its one lane) must
match a deployment on one ``ReferenceCircuitEnv``.  A surrogate-tier service
must serve the same results as a plain one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.agents.deployment import deploy_policy, deploy_policy_batch
from repro.parallel import SimulationCache, VectorCircuitEnv
from repro.serve import DeploymentService
from step_reference import ReferenceCircuitEnv, ReferenceVectorEnv
from test_vector_step_goldens import deploy_targets

#: The surrogate-tier variant of ``opamp-p2s-v0`` (a ``TieredSimulator``).
TIERED = "opamp-p2s-v0+surrogate_dir"

DEPLOY_ENV_IDS = [
    "opamp-p2s-v0",
    "opamp-mna-v0",
    "current_mirror_ota-p2s-v0",
    "current_mirror_ota-mna-v0",
    "folded_cascode-p2s-v0",
    "common_source_lna-p2s-v0",
    "rf_pa-fom-v0",
    "opamp-corners-v0",
    TIERED,
]

#: 13 targets at batch 8: one full chunk, then a ragged chunk of 5 lanes.
BATCH_SIZE = 8

#: Small enough that the deployments evict cache entries.
CACHE_SIZE = 24


def _env(env_id, directory=None):
    if env_id == TIERED:
        return repro.make_env(
            "opamp-p2s-v0", seed=0, cache_size=CACHE_SIZE, surrogate_dir=str(directory)
        )
    return repro.make_env(env_id, seed=0)


def _deploy(cls, env_id, policy, targets, directory, max_steps=None):
    vector_env = cls.from_env(
        _env(env_id, directory), num_envs=BATCH_SIZE, cache_size=CACHE_SIZE, autoreset=False
    )
    results = deploy_policy_batch(vector_env, policy, targets, max_steps=max_steps)
    return results, vector_env


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.target_specs == right.target_specs
        assert left.steps == right.steps
        assert left.success == right.success
        assert left.final_specs == right.final_specs
        assert left.trajectory.target_specs == right.trajectory.target_specs
        assert len(left.trajectory.records) == len(right.trajectory.records)
        for x, y in zip(left.trajectory.records, right.trajectory.records):
            assert x.step == y.step
            assert x.parameters.tobytes() == y.parameters.tobytes()
            assert x.specs == y.specs
            assert np.float64(x.reward).tobytes() == np.float64(y.reward).tobytes()
            assert x.goal_reached == y.goal_reached


def _assert_caches_equal(single, reference):
    cache_s, cache_r = single.envs[0].simulator, reference.envs[0].simulator
    assert isinstance(cache_s, SimulationCache)
    assert cache_s.stats == cache_r.stats
    assert list(cache_s._entries) == list(cache_r._entries)


@pytest.fixture(scope="module", params=DEPLOY_ENV_IDS)
def setup(request, tmp_path_factory):
    env_id = request.param
    env = _env(env_id, tmp_path_factory.mktemp("targets"))
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    return env_id, policy, deploy_targets(env, policy)


def test_targets_finish_at_different_steps(setup, tmp_path):
    env_id, policy, targets = setup
    env = _env(env_id, tmp_path)
    steps = [deploy_policy(env, policy, target).steps for target in targets]
    assert len(targets) == 13
    if env.is_fom_mode:
        # FoM episodes have no goal: every one runs its full budget.
        assert set(steps) == {env.max_steps}
    else:
        assert 1 in steps
        assert len(set(steps)) >= 3


@pytest.mark.parametrize("max_steps", [None, 12])
def test_deployment_matches_reference(setup, max_steps, tmp_path):
    env_id, policy, targets = setup
    single, single_env = _deploy(
        VectorCircuitEnv, env_id, policy, targets, tmp_path / "single", max_steps
    )
    reference, reference_env = _deploy(
        ReferenceVectorEnv, env_id, policy, targets, tmp_path / "reference", max_steps
    )
    assert_results_equal(single, reference)
    _assert_caches_equal(single_env, reference_env)
    assert single_env.envs[0].simulator.stats.evictions > 0
    if max_steps is not None:
        assert max(result.steps for result in single) == max_steps


@pytest.mark.parametrize("max_steps", [None, 12])
def test_one_lane_deployment_matches_reference(setup, max_steps, tmp_path):
    env_id, policy, targets = setup
    env = _env(env_id, tmp_path / "single")
    reference = ReferenceCircuitEnv.like(_env(env_id, tmp_path / "reference"))
    single = [deploy_policy(env, policy, target, max_steps=max_steps) for target in targets]
    looped = deploy_policy_batch(
        ReferenceVectorEnv([reference], autoreset=False), policy, targets, max_steps=max_steps
    )
    assert_results_equal(single, looped)
    assert env.max_steps == reference.max_steps
    if isinstance(env.simulator, SimulationCache):
        assert env.simulator.stats == reference.simulator.stats
        assert list(env.simulator._entries) == list(reference.simulator._entries)


def test_surrogate_tier_service(tmp_path):
    env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=6)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(2), 5)
    plain = DeploymentService(batch_size=4)
    plain.register_policy("opamp-p2s-v0", policy)
    tiered = DeploymentService(batch_size=4)
    tiered.register_policy("opamp-p2s-v0", policy, surrogate_dir=tmp_path / "corpus")
    served_plain = plain.serve([dict(target) for target in targets])
    served_tiered = tiered.serve([dict(target) for target in targets])
    assert_results_equal(
        [response.result for response in served_tiered],
        [response.result for response in served_plain],
    )
