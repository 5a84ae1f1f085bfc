"""DeploymentService: routing, micro-batching, stats, and parity."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.agents.deployment import deploy_policy
from repro.serve import DeploymentService, ServeRequest


@pytest.fixture
def env():
    return repro.make_env("opamp-p2s-v0", seed=0, max_steps=8)


@pytest.fixture
def policy(env):
    return repro.make_policy("gcn_fc", env, np.random.default_rng(0))


@pytest.fixture
def targets(env):
    return env.benchmark.spec_space.sample_batch(np.random.default_rng(5), 5)


@pytest.fixture
def checkpoint_path(tmp_path, policy):
    return repro.save_checkpoint(
        tmp_path / "policy.npz", policy, policy_id="gcn_fc", env_id="opamp-p2s-v0"
    )


class TestConstruction:
    def test_from_checkpoint_uses_recorded_env_id(self, checkpoint_path):
        service = DeploymentService.from_checkpoint(checkpoint_path, batch_size=2)
        assert service.env_ids == ["opamp-p2s-v0"]

    def test_env_id_override(self, checkpoint_path):
        service = DeploymentService.from_checkpoint(
            checkpoint_path, env_id="opamp-v0", batch_size=2
        )
        assert service.env_ids == ["opamp-v0"]

    def test_checkpoint_without_env_id_needs_override(self, tmp_path, policy):
        path = repro.save_checkpoint(tmp_path / "anon.npz", policy)
        with pytest.raises(repro.CheckpointError, match="env_id"):
            DeploymentService.from_checkpoint(path)
        service = DeploymentService.from_checkpoint(path, env_id="opamp-p2s-v0")
        assert service.env_ids == ["opamp-p2s-v0"]

    def test_rejects_mis_sized_policy(self, env):
        policy = repro.make_policy(
            "gcn_fc", repro.make_env("common_source_lna-p2s-v0"), np.random.default_rng(0)
        )
        service = DeploymentService()
        with pytest.raises(ValueError, match="parameters"):
            service.register_policy("opamp-p2s-v0", policy)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            DeploymentService(batch_size=0)


class TestServing:
    def test_responses_keep_request_order_and_match_sequential(
        self, env, policy, targets, checkpoint_path
    ):
        service = DeploymentService.from_checkpoint(checkpoint_path, batch_size=3)
        responses = service.serve([dict(t) for t in targets])
        assert [r.index for r in responses] == list(range(len(targets)))
        # max_steps of the service envs comes from the registry default (50);
        # deploy sequentially against a matching env for the parity check.
        reference_env = repro.make_env("opamp-p2s-v0", seed=123)
        for response, target in zip(responses, targets):
            reference = deploy_policy(reference_env, policy, target)
            assert response.steps == reference.steps
            assert response.success == reference.success
            assert response.final_specs == reference.final_specs
            assert response.target_specs == dict(target)

    def test_final_parameters_named_and_on_grid(self, checkpoint_path, targets, env):
        service = DeploymentService.from_checkpoint(checkpoint_path, batch_size=2)
        response = service.serve([dict(targets[0])])[0]
        names = env.benchmark.design_space.names
        assert sorted(response.final_parameters) == sorted(names)
        trajectory_final = response.result.trajectory.records[-1].parameters
        np.testing.assert_array_equal(
            [response.final_parameters[name] for name in names], trajectory_final
        )

    def test_serve_request_objects_with_max_steps(self, checkpoint_path):
        service = DeploymentService.from_checkpoint(checkpoint_path, batch_size=4)
        impossible = {"gain": 1e9, "bandwidth": 1e12, "phase_margin": 90.0, "power": 1e-12}
        responses = service.serve(
            [
                ServeRequest(target_specs=impossible, max_steps=3),
                ServeRequest(target_specs=impossible, max_steps=5),
            ]
        )
        assert [r.steps for r in responses] == [3, 5]

    def test_stats_and_cache_accumulate_across_calls(self, checkpoint_path, targets):
        service = DeploymentService.from_checkpoint(checkpoint_path, batch_size=4)
        service.serve([dict(t) for t in targets[:2]])
        service.serve([dict(t) for t in targets[:2]])  # identical designs: cache hits
        stats = service.stats
        assert stats.episodes == 4
        assert stats.by_env == {"opamp-p2s-v0": 4}
        assert stats.design_steps >= 4
        assert service.cache_stats().hits > 0

    def test_unknown_env_id_is_helpful(self, checkpoint_path):
        service = DeploymentService.from_checkpoint(checkpoint_path)
        with pytest.raises(ValueError, match="opamp-p2s-v0"):
            service.serve([ServeRequest(target_specs={"gain": 1.0}, env_id="nope-v0")])

    def test_empty_service_is_helpful(self):
        with pytest.raises(ValueError, match="no registered policy"):
            DeploymentService().serve([{"gain": 1.0}])

    def test_rejects_non_mapping_request(self, checkpoint_path):
        service = DeploymentService.from_checkpoint(checkpoint_path)
        with pytest.raises(TypeError, match="ServeRequest"):
            service.serve([42])

    def test_multi_topology_routing(self, tmp_path, checkpoint_path):
        lna_env = repro.make_env("common_source_lna-p2s-v0", seed=0)
        lna_policy = repro.make_policy("gcn_fc", lna_env, np.random.default_rng(0))
        lna_path = repro.save_checkpoint(
            tmp_path / "lna.npz", lna_policy,
            policy_id="gcn_fc", env_id="common_source_lna-p2s-v0",
        )
        service = DeploymentService.from_checkpoint(checkpoint_path, batch_size=2)
        service.add_checkpoint(lna_path)
        assert service.env_ids == ["common_source_lna-p2s-v0", "opamp-p2s-v0"]
        opamp_target = {"gain": 350.0, "bandwidth": 1.8e7, "phase_margin": 55.0,
                        "power": 4e-3}
        lna_target = {"gain": 15.0, "noise_figure": 5.6, "power": 8e-3}
        responses = service.serve(
            [
                ServeRequest(target_specs=lna_target, env_id="common_source_lna-p2s-v0"),
                ServeRequest(target_specs=opamp_target),  # default env
            ]
        )
        assert responses[0].env_id == "common_source_lna-p2s-v0"
        assert responses[1].env_id == "opamp-p2s-v0"
        assert service.stats.by_env == {
            "common_source_lna-p2s-v0": 1, "opamp-p2s-v0": 1,
        }

    def test_stats_dict_reports_compile_status_per_topology(
        self, tmp_path, checkpoint_path, targets
    ):
        lna_env = repro.make_env("common_source_lna-p2s-v0", seed=0)
        lna_policy = repro.make_policy("gcn_fc", lna_env, np.random.default_rng(0))
        service = DeploymentService.from_checkpoint(checkpoint_path, batch_size=4)
        service.register_policy("common_source_lna-p2s-v0", lna_policy)
        service.serve([dict(t) for t in targets])
        caches = service.stats_dict()["caches"]
        opamp, lna = caches["opamp-p2s-v0"], caches["common_source_lna-p2s-v0"]
        # The op-amp serves on its compiled plan, with every step compiled.
        assert opamp["compiled"] is True
        assert opamp["compiled_fallback_reason"] is None
        assert opamp["fallback_steps"] == 0
        assert opamp["misses"] > 0  # the cache counters stay in the same block
        # The LNA has no kernel: known at registration, before any request.
        assert lna["compiled"] is False
        assert "no compiled kernel" in lna["compiled_fallback_reason"]
        assert lna["fallback_steps"] == 0
