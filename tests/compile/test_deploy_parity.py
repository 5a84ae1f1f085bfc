"""Lock-step deployment on the compiled episode plan: bitwise parity.

``deploy_policy_batch`` steps the still-active lanes of each micro-batch
through ``VectorCircuitEnv.step_selected``; with ``compile=True`` those subset
steps replay the compiled episode plan.  The CI ``parity`` job runs this file
as its ``deploy`` leg: on every compiled topology, deployments with and
without the plan must agree on every trajectory record, the final specs, step
counts and success flags, and the shared cache's counters and LRU order —
with lanes that finish at different steps, a ragged last chunk and a
``max_steps`` override.  Topologies without a kernel and surrogate-tier
services must fall back with a reason and unchanged results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.agents.deployment import deploy_policy, deploy_policy_batch
from repro.circuits.specs import Objective
from repro.parallel import VectorCircuitEnv
from repro.parallel.cache import DEFAULT_CACHE_SIZE
from repro.serve import DeploymentService

DEPLOY_ENV_IDS = ["opamp-p2s-v0", "opamp-mna-v0", "current_mirror_ota-p2s-v0"]

#: 13 targets at batch 8: one full chunk, then a ragged chunk of 5 lanes.
BATCH_SIZE = 8

#: Small enough that the deployments evict cache entries.
CACHE_SIZE = 24


def _loosen(space, specs, factor):
    """``specs`` relaxed by ``factor`` toward the easy side of each objective."""
    return {
        spec.name: specs[spec.name]
        * (factor if spec.objective is Objective.MAXIMIZE else 1.0 / factor)
        for spec in space
    }


def _targets(env, policy):
    """13 targets whose episodes end at different steps, one of them at step 1.

    An untrained policy rarely meets a sampled target, so most of the batch
    is built from the specs one reference episode passed through: a target
    loosened from its step-1 specs is met at once, later steps take longer.
    Blends of a sampled target toward an easy one add more finishing steps.
    """
    space = env.benchmark.spec_space
    sampled = space.sample_batch(np.random.default_rng(1), 4)
    records = deploy_policy(env, policy, sampled[0]).trajectory.records
    easy = _loosen(
        space,
        {
            spec.name: spec.minimum if spec.objective is Objective.MAXIMIZE else spec.maximum
            for spec in space
        },
        0.5,
    )
    targets = list(sampled)
    for fraction in (0.0, 0.25, 0.33, 0.8):
        step = int(fraction * (len(records) - 1))
        targets.append(_loosen(space, records[step].specs, 0.8))
    for alpha in (0.3, 0.45, 0.55, 0.6, 0.9):
        targets.append(
            {name: (1.0 - alpha) * sampled[0][name] + alpha * easy[name] for name in easy}
        )
    return targets


def _deploy(env, policy, targets, compile, max_steps=None):
    vector_env = VectorCircuitEnv.from_env(
        env, num_envs=BATCH_SIZE, cache_size=CACHE_SIZE, autoreset=False, compile=compile
    )
    results = deploy_policy_batch(vector_env, policy, targets, max_steps=max_steps)
    return results, vector_env


def _assert_results_equal(a, b):
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


def _assert_caches_equal(compiled, interpreted):
    assert compiled.cache.stats == interpreted.cache.stats
    assert list(compiled.cache._entries) == list(interpreted.cache._entries)


def _lock_step_calls(results):
    """``step_selected`` calls a chunked deployment makes: its longest episode."""
    steps = [result.steps for result in results]
    chunks = range(0, len(steps), BATCH_SIZE)
    return sum(max(steps[start : start + BATCH_SIZE]) for start in chunks)


@pytest.fixture(scope="module", params=DEPLOY_ENV_IDS)
def setup(request):
    env = repro.make_env(request.param, seed=0)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    return env, policy, _targets(env, policy)


def test_targets_finish_at_different_steps(setup):
    env, policy, targets = setup
    steps = [deploy_policy(env, policy, target).steps for target in targets]
    assert len(targets) == 13
    assert 1 in steps
    assert len(set(steps)) >= 3


@pytest.mark.parametrize("max_steps", [None, 12])
def test_compiled_deployment_is_bitwise_identical(setup, max_steps):
    env, policy, targets = setup
    interpreted, interpreted_env = _deploy(env, policy, targets, False, max_steps)
    compiled, compiled_env = _deploy(env, policy, targets, True, max_steps)
    _assert_results_equal(compiled, interpreted)
    _assert_caches_equal(compiled_env, interpreted_env)
    assert compiled_env.cache.stats.evictions > 0
    if max_steps is not None:
        assert max(result.steps for result in compiled) == max_steps
    # Every lock-step call, the ragged chunk's 5-of-8 subset steps included,
    # ran on the plan.
    plan = compiled_env.compiled_plan
    assert plan is not None
    assert plan.fallback_steps == 0
    assert plan.steps_compiled == _lock_step_calls(compiled)


class TestSubsetSteps:
    def _pair(self, cache_size=DEFAULT_CACHE_SIZE):
        pair = []
        for compile in (False, True):
            env = repro.make_env("opamp-p2s-v0", seed=3, max_steps=4)
            vector_env = VectorCircuitEnv.from_env(
                env,
                num_envs=4,
                seed=3,
                cache_size=cache_size,
                autoreset=False,
                compile=compile,
            )
            vector_env.reset()
            pair.append(vector_env)
        return pair

    @pytest.mark.parametrize("cache_size", [DEFAULT_CACHE_SIZE, None])
    def test_unordered_subsets_match_interpreted(self, cache_size):
        interpreted, compiled = self._pair(cache_size)
        rng = np.random.default_rng(0)
        for indices in ([3, 1], [1, 0, 2], [3, 1]):
            actions = rng.integers(0, 3, size=(len(indices), compiled.num_parameters))
            out_c = compiled.step_selected(indices, actions)
            out_i = interpreted.step_selected(indices, actions)
            assert out_c[0].node_features.tobytes() == out_i[0].node_features.tobytes()
            assert (
                out_c[0].static_node_features.tobytes()
                == out_i[0].static_node_features.tobytes()
            )
            assert out_c[0].spec_features.tobytes() == out_i[0].spec_features.tobytes()
            assert out_c[0].measured_specs == out_i[0].measured_specs
            assert out_c[1].tobytes() == out_i[1].tobytes()
            assert out_c[3] == out_i[3]
        for env_c, env_i in zip(compiled.envs, interpreted.envs):
            assert env_c.parameter_values.tobytes() == env_i.parameter_values.tobytes()
            for x, y in zip(env_c.trajectory.records, env_i.trajectory.records, strict=True):
                assert x.parameters.tobytes() == y.parameters.tobytes()
                assert (x.step, x.specs, x.reward) == (y.step, y.specs, y.reward)
        if cache_size is None:
            assert compiled.cache is None
        else:
            _assert_caches_equal(compiled, interpreted)
        assert compiled.compiled_plan.steps_compiled == 3

    @pytest.mark.parametrize(
        "indices, reason",
        [([1, 1], "lane indices"), ([-1], "lane indices"), ([True], "lane indices")],
    )
    def test_irregular_indices_fall_back(self, indices, reason):
        interpreted, compiled = self._pair()
        actions = np.ones((len(indices), compiled.num_parameters), dtype=np.int64)
        out_c = compiled.step_selected(indices, actions)
        out_i = interpreted.step_selected(indices, actions)
        assert out_c[1].tobytes() == out_i[1].tobytes()
        plan = compiled.compiled_plan
        assert plan.fallback_steps == 1
        assert reason in plan.last_fallback_reason

    def test_finished_selected_lane_falls_back_and_raises(self):
        _, compiled = self._pair()
        actions = np.ones((1, compiled.num_parameters), dtype=np.int64)
        for _ in range(4):
            compiled.step_selected([2], actions)
        with pytest.raises(RuntimeError, match="finished episode"):
            compiled.step_selected([2], actions)
        plan = compiled.compiled_plan
        assert plan.steps_compiled == 4
        assert plan.last_fallback_reason == "a selected lane is finished"
        # Unfinished lanes keep stepping compiled.
        compiled.step_selected([0], actions)
        assert plan.steps_compiled == 5

    def test_empty_selection_raises(self):
        for vector_env in self._pair():
            with pytest.raises(ValueError, match="no sub-environment"):
                vector_env.step_selected([], np.zeros((0, vector_env.num_parameters)))


class TestFallback:
    def test_topology_without_kernel(self):
        env = repro.make_env("common_source_lna-p2s-v0", seed=0)
        policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
        targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(1), 5)
        interpreted, interpreted_env = _deploy(env, policy, targets, False)
        compiled, compiled_env = _deploy(env, policy, targets, True)
        assert compiled_env.compiled_plan is None
        assert "no compiled kernel" in compiled_env.compiled_fallback_reason
        _assert_results_equal(compiled, interpreted)
        _assert_caches_equal(compiled_env, interpreted_env)

    def test_surrogate_tier_service(self, tmp_path):
        env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=6)
        policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
        targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(2), 5)
        plain = DeploymentService(batch_size=4)
        plain.register_policy("opamp-p2s-v0", policy)
        tiered = DeploymentService(batch_size=4)
        tiered.register_policy("opamp-p2s-v0", policy, surrogate_dir=tmp_path / "corpus")
        block = tiered.stats_dict()["caches"]["opamp-p2s-v0"]
        assert block["compiled"] is False
        assert "TieredSimulator" in block["compiled_fallback_reason"]
        assert plain.stats_dict()["caches"]["opamp-p2s-v0"]["compiled"] is True
        served_plain = plain.serve([dict(target) for target in targets])
        served_tiered = tiered.serve([dict(target) for target in targets])
        _assert_results_equal(
            [response.result for response in served_tiered],
            [response.result for response in served_plain],
        )
