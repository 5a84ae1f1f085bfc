"""Gateway: coalescing, sharding, parity with sequential deployment, stats."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import repro
from repro.agents.deployment import deploy_policy
from repro.serve import DeploymentService, Gateway, RequestQueue, ServeRequest
from repro.serve.gateway import _Pending, shard_of

MAX_STEPS = 8


@pytest.fixture(scope="module")
def policy():
    env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=MAX_STEPS)
    return repro.make_policy("gcn_fc", env, np.random.default_rng(0))


@pytest.fixture(scope="module")
def targets():
    env = repro.make_env("opamp-p2s-v0", seed=0)
    return [dict(t) for t in env.benchmark.spec_space.sample_batch(
        np.random.default_rng(5), 7
    )]


@pytest.fixture(scope="module")
def references(policy, targets):
    """Sequential deploy_policy results — the parity oracle."""
    env = repro.make_env("opamp-p2s-v0", seed=123, max_steps=MAX_STEPS)
    return [deploy_policy(env, policy, target) for target in targets]


@pytest.fixture
def service(policy):
    service = DeploymentService(batch_size=3)
    service.register_policy("opamp-p2s-v0", policy)
    return service


def make_requests(targets, **kwargs):
    return [
        ServeRequest(target_specs=dict(target), max_steps=MAX_STEPS,
                     request_id=f"r{i}", **kwargs)
        for i, target in enumerate(targets)
    ]


class TestRequestQueue:
    @staticmethod
    def pending(flush_in=0.0):
        now = time.monotonic()
        return _Pending(
            request=ServeRequest(target_specs={"gain": 1.0}),
            future=Future(), enqueued_at=now, flush_at=now + flush_in, timeout_at=None,
        )

    def test_shard_assignment_is_stable_and_in_range(self):
        for shards in (1, 2, 5):
            for env_id in ("opamp-p2s-v0", "common_source_lna-p2s-v0", "rf_pa-v0"):
                assert shard_of(env_id, shards) == shard_of(env_id, shards)
                assert 0 <= shard_of(env_id, shards) < shards

    def test_full_batch_flushes_immediately(self):
        queue = RequestQueue()
        key = ("opamp-p2s-v0", None)
        for _ in range(3):
            queue.put(key, self.pending(flush_in=60.0))
        got = queue.next_batch(0, batch_size=3)
        assert got is not None
        _, batch, trigger = got
        assert len(batch) == 3 and trigger == "full"

    def test_deadline_flushes_a_partial_batch(self):
        queue = RequestQueue()
        queue.put(("opamp-p2s-v0", None), self.pending(flush_in=0.02))
        start = time.monotonic()
        got = queue.next_batch(0, batch_size=8)
        assert got is not None
        _, batch, trigger = got
        assert len(batch) == 1 and trigger == "deadline"
        assert time.monotonic() - start >= 0.015

    def test_draining_close_flushes_remaining(self):
        queue = RequestQueue()
        queue.put(("opamp-p2s-v0", None), self.pending(flush_in=60.0))
        assert queue.close(drain=True) == []
        got = queue.next_batch(0, batch_size=8)
        assert got is not None and got[2] == "drain"
        assert queue.next_batch(0, batch_size=8) is None

    def test_abandoning_close_returns_pending(self):
        queue = RequestQueue()
        queue.put(("opamp-p2s-v0", None), self.pending(flush_in=60.0))
        abandoned = queue.close(drain=False)
        assert len(abandoned) == 1
        assert queue.next_batch(0, batch_size=8) is None
        with pytest.raises(RuntimeError, match="closed"):
            queue.put(("opamp-p2s-v0", None), self.pending())

    def test_groups_do_not_mix(self):
        queue = RequestQueue()
        queue.put(("opamp-p2s-v0", 5), self.pending(flush_in=0.0))
        queue.put(("opamp-p2s-v0", 9), self.pending(flush_in=0.0))
        keys = set()
        for _ in range(2):
            key, batch, _ = queue.next_batch(0, batch_size=8)
            assert len(batch) == 1
            keys.add(key)
        assert keys == {("opamp-p2s-v0", 5), ("opamp-p2s-v0", 9)}


class TestGatewayParity:
    @pytest.mark.parametrize(
        "num_workers,delay_ms,order",
        [
            (1, 0.0, "forward"),
            (2, 20.0, "shuffled"),
            (2, 200.0, "reversed"),
        ],
    )
    def test_identical_to_sequential_under_interleavings(
        self, service, targets, references, num_workers, delay_ms, order
    ):
        """Arbitrary arrival orders, worker counts, and deadline budgets
        must not change any response — bitwise — vs sequential deployment."""
        indices = list(range(len(targets)))
        if order == "shuffled":
            np.random.default_rng(3).shuffle(indices)
        elif order == "reversed":
            indices.reverse()
        requests = make_requests(targets)
        with Gateway(service, num_workers=num_workers, max_batch_delay_ms=delay_ms) as gw:
            futures = {i: gw.submit(requests[i]) for i in indices}
            responses = {i: futures[i].result(timeout=120) for i in indices}
        for i, reference in enumerate(references):
            response = responses[i]
            assert response.ok and response.request_id == f"r{i}"
            assert response.steps == reference.steps
            assert response.success == reference.success
            assert response.final_specs == reference.final_specs
            names = list(response.final_parameters)
            np.testing.assert_array_equal(
                [response.final_parameters[n] for n in names],
                [dict(zip(names, reference.trajectory.records[-1].parameters))[n]
                 for n in names],
            )

    def test_concurrent_submitters_still_match(self, service, targets, references):
        from repro.analysis import LockAudit

        responses = {}
        lock = threading.Lock()
        with Gateway(service, num_workers=2, max_batch_delay_ms=30.0) as gw:
            # Race detector: any unlocked write to the shared serve stats by
            # a worker or submitter fails the test even if counts line up.
            with LockAudit(gw.stats, record_reads=False) as gateway_audit, \
                    LockAudit(service.stats, record_reads=False) as service_audit:
                def submit(i):
                    future = gw.submit(
                        ServeRequest(target_specs=dict(targets[i]), max_steps=MAX_STEPS)
                    )
                    result = future.result(timeout=120)
                    with lock:
                        responses[i] = result

                threads = [threading.Thread(target=submit, args=(i,))
                           for i in range(len(targets))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        gateway_audit.assert_clean()
        service_audit.assert_clean()
        for i, reference in enumerate(references):
            assert responses[i].steps == reference.steps
            assert responses[i].final_specs == reference.final_specs


class TestGatewayBehavior:
    def test_full_flush_and_stats(self, service, targets):
        with Gateway(service, num_workers=1, max_batch_delay_ms=10_000.0) as gw:
            futures = [gw.submit(r) for r in make_requests(targets[:3])]
            for future in futures:
                assert future.result(timeout=120).ok
            snapshot = gw.stats.snapshot()
        assert snapshot.full_flushes >= 1
        assert snapshot.max_coalesce == 3
        assert snapshot.episodes == 3
        assert snapshot.queue_depth == 0
        assert snapshot.latency_p50_ms is not None
        assert snapshot.latency_p99_ms >= snapshot.latency_p50_ms

    def test_deadline_flush_of_partial_batch(self, service, targets):
        with Gateway(service, num_workers=1, max_batch_delay_ms=15.0) as gw:
            response = gw.submit(make_requests(targets[:1])[0]).result(timeout=120)
            assert response.ok
            assert gw.stats.snapshot().deadline_flushes >= 1

    def test_per_request_deadline_overrides_default(self, service, targets):
        # Gateway default says "wait forever"; the request's own deadline_ms
        # of ~0 must flush it out anyway.
        with Gateway(service, num_workers=1, max_batch_delay_ms=60_000.0) as gw:
            request = ServeRequest(
                target_specs=dict(targets[0]), max_steps=MAX_STEPS, deadline_ms=1.0
            )
            assert gw.submit(request).result(timeout=120).ok

    def test_plain_mappings_are_accepted(self, service, targets):
        with Gateway(service, num_workers=1, max_batch_delay_ms=0.0) as gw:
            response = gw.submit({**targets[0]}).result(timeout=120)
        # A bare mapping has no max_steps: the env default applies.
        assert response.ok and response.steps >= 1

    def test_timing_fields_are_attributed(self, service, targets):
        with Gateway(service, num_workers=1, max_batch_delay_ms=0.0) as gw:
            response = gw.submit(make_requests(targets[:1])[0]).result(timeout=120)
        assert set(response.timing) == {"queue_ms", "serve_ms", "total_ms"}
        assert response.timing["total_ms"] >= response.timing["queue_ms"]

    def test_stats_dict_has_gateway_block_and_caches(self, service, targets):
        with Gateway(service, num_workers=2, max_batch_delay_ms=0.0) as gw:
            gw.serve(make_requests(targets[:2]), timeout=120)
            document = gw.stats_dict()
        assert document["gateway"]["workers"] == 2
        assert document["gateway"]["batch_size"] == 3
        assert "caches" in document  # the service's per-topology cache stats
        (block,) = document["caches"].values()
        assert block["compiled"] is True and block["fallback_steps"] == 0
        assert document["episodes"] == 2

    def test_response_cache_replays_identical_results(self, service, targets, references):
        requests = make_requests(targets[:3])
        with Gateway(service, num_workers=1, max_batch_delay_ms=0.0,
                     cache_responses=True) as gw:
            first = gw.serve(requests, timeout=120)
            replayed = gw.serve(make_requests(targets[:3]), timeout=120)
            snapshot = gw.stats.snapshot()
        for response, cached, reference in zip(first, replayed, references[:3]):
            assert cached.ok
            # Bitwise the same outcome as the first (executed) pass and the
            # sequential oracle — determinism is what makes caching sound.
            assert cached.steps == response.steps == reference.steps
            assert cached.final_specs == response.final_specs
            assert cached.final_parameters == response.final_parameters
            assert cached.met == response.met
            assert cached.tier == {"response_cache_hits": 1}
            assert cached.request_id == response.request_id  # re-stamped, not stale
        assert snapshot.episodes == 3  # the replay ran no new episodes
        assert snapshot.cache_hits == 3

    def test_response_cache_distinguishes_groups(self, service, targets):
        # Same specs, different max_steps -> different episode -> no hit.
        spec = dict(targets[0])
        with Gateway(service, num_workers=1, max_batch_delay_ms=0.0,
                     cache_responses=True) as gw:
            gw.serve([ServeRequest(target_specs=spec, max_steps=MAX_STEPS)], timeout=120)
            gw.serve([ServeRequest(target_specs=spec, max_steps=3)], timeout=120)
            snapshot = gw.stats.snapshot()
        assert snapshot.episodes == 2
        assert snapshot.cache_hits == 0

    def test_response_cache_off_by_default(self, service, targets):
        requests = make_requests(targets[:1])
        with Gateway(service, num_workers=1, max_batch_delay_ms=0.0) as gw:
            gw.serve(requests, timeout=120)
            gw.serve(make_requests(targets[:1]), timeout=120)
            snapshot = gw.stats.snapshot()
        assert snapshot.episodes == 2
        assert snapshot.cache_hits == 0
        assert gw.stats_dict()["gateway"]["cache_responses"] is False

    def test_close_is_idempotent_and_joins_workers(self, service):
        gw = Gateway(service, num_workers=2)
        gw.close()
        gw.close()
        assert all(not worker.is_alive() for worker in gw._workers)
        with pytest.raises(RuntimeError, match="closed"):
            gw.submit({"gain": 1.0})

    def test_constructor_validation(self, service):
        with pytest.raises(ValueError, match="num_workers"):
            Gateway(service, num_workers=0)
        with pytest.raises(ValueError, match="max_batch_delay_ms"):
            Gateway(service, max_batch_delay_ms=-1.0)
        with pytest.raises(ValueError, match="request_timeout_s"):
            Gateway(service, request_timeout_s=0.0)
        with pytest.raises(TypeError, match="ServeRequest"):
            with Gateway(service) as gw:
                gw.submit(42)


class TestProcessShardPool:
    def test_shard_parity_and_shared_corpus(self, policy, targets, references, tmp_path):
        from repro.serve import ProcessShardPool

        checkpoint = repro.save_checkpoint(
            tmp_path / "ckpt.npz", policy, policy_id="gcn_fc", env_id="opamp-p2s-v0"
        )
        corpus = tmp_path / "corpus"
        with ProcessShardPool(
            {"opamp-p2s-v0": checkpoint}, shards=2, batch_size=2, cache_dir=corpus
        ) as pool:
            with Gateway(pool, num_workers=2, max_batch_delay_ms=5.0) as gw:
                responses = gw.serve(make_requests(targets[:4]), timeout=300)
            snapshot = pool.stats.snapshot()
        for response, reference in zip(responses, references[:4]):
            assert response.ok
            assert response.steps == reference.steps
            assert response.final_specs == reference.final_specs
        assert snapshot.episodes == 4
        assert corpus.is_dir() and any(corpus.iterdir())  # shards shared the corpus

    def test_routing_and_fixed_registration(self, policy, tmp_path):
        from repro.agents.checkpoint import CheckpointError
        from repro.serve import ProcessShardPool

        checkpoint = repro.save_checkpoint(
            tmp_path / "ckpt.npz", policy, policy_id="gcn_fc", env_id="opamp-p2s-v0"
        )
        with ProcessShardPool({"opamp-p2s-v0": checkpoint}, shards=1) as pool:
            assert pool.resolve_env_id(None) == "opamp-p2s-v0"
            with pytest.raises(ValueError, match="opamp-p2s-v0"):
                pool.resolve_env_id("nope-v0")
            with pytest.raises(CheckpointError, match="fixed at construction"):
                pool.add_checkpoint(checkpoint, env_id="other-v0")
        with pytest.raises(ValueError, match="at least one"):
            ProcessShardPool({})
