"""The micro-batched policy deployment service.

:class:`DeploymentService` is the serving front end over the checkpoint,
inference-mode and batched-deployment layers: on-disk checkpoints rebuild
the policy, the grad-free inference mode makes each forward pure numpy, and
the batched deployment engine runs up to ``batch_size`` specification-group
episodes lock-step on one :class:`~repro.parallel.VectorCircuitEnv` whose
sub-environments share a :class:`~repro.parallel.SimulationCache`.  The
vector environments (and their caches) persist across
:meth:`DeploymentService.serve` calls, so a long-lived service keeps getting
cheaper as traffic repeats designs.

The service is thread-safe at the granularity the async gateway needs: each
topology's vector environment is guarded by its own lock (concurrent
``serve()`` calls touching the same environment serialize; different
topologies run genuinely in parallel), and all statistics accumulate into a
lock-guarded :class:`ServeStats` whose :meth:`ServeStats.snapshot` returns a
consistent point-in-time copy.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.agents.checkpoint import CheckpointError, load_checkpoint
from repro.agents.deployment import DeploymentResult, deploy_policy_batch
from repro.agents.policy import ActorCriticPolicy
from repro.api.catalog import make_env
from repro.env.circuit_env import CircuitDesignEnv
from repro.parallel.cache import DEFAULT_CACHE_SIZE
from repro.parallel.vector_env import VectorCircuitEnv
from repro.serve.protocol import ServeRequest, ServeResponse, target_error

#: How many recent per-request latencies the stats keep for percentiles.
LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class ServeStatsSnapshot:
    """A consistent point-in-time copy of :class:`ServeStats`.

    Episode counters come from the service layer; the batch/queue/latency
    block is filled in by the gateway when one fronts the service (all zero
    for plain synchronous ``serve()`` use).
    """

    episodes: int
    design_steps: int
    successes: int
    wall_time_s: float
    by_env: Dict[str, int]
    surrogate_hits: int
    trust_rejections: int
    exact_fallbacks: int
    # Gateway queue metrics.
    queue_depth: int
    batches: int
    full_flushes: int
    deadline_flushes: int
    drain_flushes: int
    max_coalesce: int
    mean_coalesce: float
    cache_hits: int
    errors: int
    timeouts: int
    latency_p50_ms: Optional[float]
    latency_p99_ms: Optional[float]

    @property
    def accuracy(self) -> float:
        return self.successes / self.episodes if self.episodes else 0.0

    @property
    def episodes_per_second(self) -> float:
        return self.episodes / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "episodes": self.episodes,
            "design_steps": self.design_steps,
            "successes": self.successes,
            "accuracy": self.accuracy,
            "wall_time_s": self.wall_time_s,
            "by_env": dict(self.by_env),
            "surrogate_hits": self.surrogate_hits,
            "trust_rejections": self.trust_rejections,
            "exact_fallbacks": self.exact_fallbacks,
            "queue_depth": self.queue_depth,
            "batches": self.batches,
            "full_flushes": self.full_flushes,
            "deadline_flushes": self.deadline_flushes,
            "drain_flushes": self.drain_flushes,
            "max_coalesce": self.max_coalesce,
            "mean_coalesce": self.mean_coalesce,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
        }


class ServeStats:
    """Thread-safe cumulative counters over the lifetime of a service.

    One request is one deployment episode, so ``episodes`` is also the
    number of requests served.  The three tier counters aggregate the
    simulation tiers across every topology the service routes to (all zero
    unless a policy was registered with a surrogate).  A fronting gateway
    additionally folds its queue metrics — depth, coalesce sizes, what
    triggered each batch flush (full / deadline / drain), structured errors,
    and per-request latency percentiles — into the same object, so
    :meth:`snapshot` / :meth:`to_dict` is the one serving-stats document.

    Every mutator takes the internal lock; concurrent ``serve()`` calls and
    gateway workers cannot double-count (the attribute reads stay plain for
    back-compat — read :meth:`snapshot` when you need a consistent view).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.episodes = 0
        self.design_steps = 0
        self.successes = 0
        self.wall_time_s = 0.0
        self.by_env: Dict[str, int] = {}
        self.surrogate_hits = 0
        self.trust_rejections = 0
        self.exact_fallbacks = 0
        self.queue_depth = 0
        self.batches = 0
        self.full_flushes = 0
        self.deadline_flushes = 0
        self.drain_flushes = 0
        self.max_coalesce = 0
        self.coalesce_sum = 0
        self.cache_hits = 0
        self.errors = 0
        self.timeouts = 0
        self._latencies_ms: deque = deque(maxlen=LATENCY_WINDOW)

    # -- service-side accumulation -------------------------------------
    def record(self, env_id: str, results: Sequence[DeploymentResult], elapsed: float) -> None:
        with self._lock:
            self.episodes += len(results)
            self.design_steps += sum(result.steps for result in results)
            self.successes += sum(bool(result.success) for result in results)
            self.wall_time_s += elapsed
            self.by_env[env_id] = self.by_env.get(env_id, 0) + len(results)

    def record_responses(
        self, env_id: str, responses: Sequence[ServeResponse], elapsed: float
    ) -> None:
        """Fold already-built responses (the process-shard return path)."""
        with self._lock:
            self.episodes += len(responses)
            self.design_steps += sum(response.steps for response in responses)
            self.successes += sum(bool(response.success) for response in responses)
            self.wall_time_s += elapsed
            self.by_env[env_id] = self.by_env.get(env_id, 0) + len(responses)

    def record_tiers(
        self, surrogate_hits: int, trust_rejections: int, exact_fallbacks: int
    ) -> None:
        """Fold one serve call's simulation-tier deltas into the totals."""
        with self._lock:
            self.surrogate_hits += int(surrogate_hits)
            self.trust_rejections += int(trust_rejections)
            self.exact_fallbacks += int(exact_fallbacks)

    # -- gateway-side accumulation -------------------------------------
    def note_enqueued(self, count: int = 1) -> None:
        with self._lock:
            self.queue_depth += count

    def note_dequeued(self, count: int = 1) -> None:
        with self._lock:
            self.queue_depth = max(0, self.queue_depth - count)

    def record_batch(self, size: int, trigger: str) -> None:
        """One coalesced batch left the queue (``trigger``: why it flushed)."""
        with self._lock:
            self.batches += 1
            self.coalesce_sum += int(size)
            self.max_coalesce = max(self.max_coalesce, int(size))
            if trigger == "full":
                self.full_flushes += 1
            elif trigger == "deadline":
                self.deadline_flushes += 1
            else:
                self.drain_flushes += 1

    def record_latency(self, latency_ms: float) -> None:
        with self._lock:
            self._latencies_ms.append(float(latency_ms))

    def record_cache_hit(self) -> None:
        """A request was answered from the gateway's response cache."""
        with self._lock:
            self.cache_hits += 1

    def record_error(self, code: str) -> None:
        with self._lock:
            self.errors += 1
            if code == "timeout":
                self.timeouts += 1

    # -- reading -------------------------------------------------------
    @property
    def accuracy(self) -> float:
        return self.successes / self.episodes if self.episodes else 0.0

    @property
    def episodes_per_second(self) -> float:
        return self.episodes / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def snapshot(self) -> ServeStatsSnapshot:
        """A consistent copy of every counter (plus latency percentiles)."""
        with self._lock:
            if self._latencies_ms:
                latencies = np.asarray(self._latencies_ms, dtype=np.float64)
                p50 = float(np.percentile(latencies, 50))
                p99 = float(np.percentile(latencies, 99))
            else:
                p50 = p99 = None
            return ServeStatsSnapshot(
                episodes=self.episodes,
                design_steps=self.design_steps,
                successes=self.successes,
                wall_time_s=self.wall_time_s,
                by_env=dict(self.by_env),
                surrogate_hits=self.surrogate_hits,
                trust_rejections=self.trust_rejections,
                exact_fallbacks=self.exact_fallbacks,
                queue_depth=self.queue_depth,
                batches=self.batches,
                full_flushes=self.full_flushes,
                deadline_flushes=self.deadline_flushes,
                drain_flushes=self.drain_flushes,
                max_coalesce=self.max_coalesce,
                mean_coalesce=self.coalesce_sum / self.batches if self.batches else 0.0,
                cache_hits=self.cache_hits,
                errors=self.errors,
                timeouts=self.timeouts,
                latency_p50_ms=p50,
                latency_p99_ms=p99,
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable digest (what the deploy/serve CLIs write)."""
        return self.snapshot().to_dict()


class DeploymentService:
    """Serve specification targets with checkpointed policies, micro-batched.

    Parameters
    ----------
    batch_size:
        Maximum number of episodes run lock-step per topology (the width of
        each per-environment :class:`VectorCircuitEnv`).
    cache_size:
        Entry budget of each topology's shared simulation cache.
    deterministic:
        Greedy (mode) actions when True — the paper's deployment setting.
    seed:
        Seed for the service RNG (only consulted for stochastic serving).
    """

    def __init__(
        self,
        batch_size: int = 8,
        cache_size: int = DEFAULT_CACHE_SIZE,
        deterministic: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.deterministic = bool(deterministic)
        self.rng = np.random.default_rng(seed)
        self.stats = ServeStats()
        self._policies: Dict[str, ActorCriticPolicy] = {}
        self._vector_envs: Dict[str, VectorCircuitEnv] = {}
        self._default_env_id: Optional[str] = None
        # Per-env snapshot of the tier counters at the last serve() flush, so
        # cumulative CacheStats fold into ServeStats as deltas exactly once.
        self._tier_marks: Dict[str, Tuple[int, int, int]] = {}
        # One lock per topology: a vector env is stateful, so concurrent
        # serve() calls touching the same env serialize (different envs run
        # in parallel).  _registry_lock guards the registration tables.
        self._env_locks: Dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Policy registration
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: Union[str, Path],
        env_id: Optional[str] = None,
        surrogate: Any = None,
        surrogate_dir: Optional[Union[str, Path]] = None,
        **kwargs: Any,
    ) -> "DeploymentService":
        """Build a service around one checkpoint (the CLI entry path)."""
        service = cls(**kwargs)
        service.add_checkpoint(
            path, env_id=env_id, surrogate=surrogate, surrogate_dir=surrogate_dir
        )
        return service

    def add_checkpoint(
        self,
        path: Union[str, Path],
        env_id: Optional[str] = None,
        surrogate: Any = None,
        surrogate_dir: Optional[Union[str, Path]] = None,
    ) -> str:
        """Load a checkpoint and register its policy; returns the env ID used."""
        checkpoint = load_checkpoint(path)
        env_id = env_id or checkpoint.env_id
        if env_id is None:
            raise CheckpointError(
                f"checkpoint {path} does not record an environment ID; pass "
                "env_id=... (e.g. 'opamp-p2s-v0') to route its requests"
            )
        self.register_policy(
            env_id, checkpoint.policy, surrogate=surrogate, surrogate_dir=surrogate_dir
        )
        return env_id

    def register_policy(
        self,
        env_id: str,
        policy: ActorCriticPolicy,
        surrogate: Any = None,
        surrogate_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        """Register a (possibly freshly trained) policy for an environment ID.

        ``surrogate`` (a trained :class:`repro.surrogate.SpecSurrogate` or a
        checkpoint path) and/or ``surrogate_dir`` (a persistent corpus
        directory) route this topology's simulations through a
        :class:`repro.surrogate.TieredSimulator`; the tier counters surface
        in :attr:`stats` and :meth:`stats_dict`.
        """
        # Resolve now so an unknown ID fails at registration, not mid-serve.
        template = make_env(env_id)
        if not isinstance(template, CircuitDesignEnv):  # pragma: no cover - defensive
            raise ValueError(f"environment {env_id!r} is not a sequential CircuitDesignEnv")
        if policy.config.num_parameters != template.num_parameters:
            raise ValueError(
                f"policy sized for {policy.config.num_parameters} parameters cannot "
                f"serve environment {env_id!r} ({template.num_parameters} parameters)"
            )
        if surrogate is not None or surrogate_dir is not None:
            # Local import: plain serving should not pay for the nn stack
            # unless a learned tier is actually requested.
            from repro.surrogate import TieredSimulator

            template.simulator = TieredSimulator(
                template.simulator,
                surrogate=surrogate,
                directory=surrogate_dir,
                max_entries=self.cache_size,
            )
        vector_env = VectorCircuitEnv.from_env(
            template,
            num_envs=self.batch_size,
            cache_size=self.cache_size,
            autoreset=False,
        )
        with self._registry_lock:
            self._policies[env_id] = policy
            self._vector_envs[env_id] = vector_env
            self._tier_marks[env_id] = (0, 0, 0)
            self._env_locks.setdefault(env_id, threading.Lock())
            if self._default_env_id is None:
                self._default_env_id = env_id

    @property
    def env_ids(self) -> List[str]:
        """Environment IDs this service can currently route to."""
        return sorted(self._policies)

    def cache_stats(self, env_id: Optional[str] = None):
        """Simulation-cache statistics for one topology (default: the default)."""
        vector_env = self._vector_envs[self.resolve_env_id(env_id)]
        assert vector_env.cache is not None
        return vector_env.cache.stats

    def stats_dict(self) -> Dict[str, Any]:
        """One JSON-ready document: serve counters plus a block per topology.

        Each topology's block under ``"caches"`` holds its simulation-cache
        counters.
        """
        return {
            **self.stats.to_dict(),
            "caches": {
                env_id: vector_env.cache.stats.to_dict()
                for env_id, vector_env in self._vector_envs.items()
                if vector_env.cache is not None
            },
        }

    def _flush_tier_stats(self, env_id: str) -> Tuple[int, int, int]:
        """Fold an env cache's tier counters into the serve stats (as deltas).

        Must run while holding the env's lock: the mark read-modify-write is
        what keeps two concurrent serve() calls from folding the same delta
        twice.  Returns the delta so callers can attach it to responses.
        """
        vector_env = self._vector_envs[env_id]
        if vector_env.cache is None:  # pragma: no cover - caches always on here
            return (0, 0, 0)
        cache = vector_env.cache.stats
        now = (cache.surrogate_hits, cache.trust_rejections, cache.exact_fallbacks)
        mark = self._tier_marks.get(env_id, (0, 0, 0))
        delta = (now[0] - mark[0], now[1] - mark[1], now[2] - mark[2])
        self.stats.record_tiers(*delta)
        # repro: noqa[REP-LOCK01] serve_group() holds this env's lock from
        # self._env_locks around every call, which is what serializes the
        # mark read-modify-write; _registry_lock only guards registration.
        self._tier_marks[env_id] = now
        return delta

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def resolve_env_id(self, env_id: Optional[str]) -> str:
        """Resolve a request's env ID against the registered policies."""
        if env_id is None:
            if self._default_env_id is None:
                raise ValueError(
                    "the service has no registered policy; call add_checkpoint() "
                    "or register_policy() first"
                )
            return self._default_env_id
        if env_id not in self._policies:
            registered = ", ".join(self.env_ids) or "none"
            raise ValueError(
                f"no policy registered for environment {env_id!r} "
                f"(registered: {registered})"
            )
        return env_id

    @staticmethod
    def _normalize(
        requests: Sequence[Union[ServeRequest, Mapping[str, Any]]],
    ) -> List[ServeRequest]:
        normalized: List[ServeRequest] = []
        for request in requests:
            if isinstance(request, ServeRequest):
                normalized.append(request)
            elif isinstance(request, Mapping):
                normalized.append(ServeRequest(target_specs=dict(request)))
            else:
                raise TypeError(
                    "requests must be ServeRequest objects or spec mappings, "
                    f"got {type(request).__name__}"
                )
        return normalized

    def serve_group(
        self,
        env_id: str,
        max_steps: Optional[int],
        requests: Sequence[ServeRequest],
    ) -> List[ServeResponse]:
        """Serve one coalesced ``(env_id, max_steps)`` group of requests.

        This is the execution primitive the gateway's workers call with
        already-batched groups; :meth:`serve` routes through it too.  The
        env's lock serializes concurrent access to its stateful vector
        environment and makes the tier-delta fold exact.
        """
        env_id = self.resolve_env_id(env_id)
        with self._env_locks[env_id]:
            vector_env = self._vector_envs[env_id]
            policy = self._policies[env_id]
            targets = [request.target_specs for request in requests]
            start = time.perf_counter()
            results = deploy_policy_batch(
                vector_env,
                policy,
                targets,
                deterministic=self.deterministic,
                rng=self.rng,
                max_steps=max_steps,
            )
            elapsed = time.perf_counter() - start
            self.stats.record(env_id, results, elapsed)
            tier_delta = self._flush_tier_stats(env_id)
        tier = {
            "surrogate_hits": tier_delta[0],
            "trust_rejections": tier_delta[1],
            "exact_fallbacks": tier_delta[2],
        }
        serve_ms = elapsed * 1000.0
        names = vector_env.benchmark.design_space.names
        spec_space = vector_env.benchmark.spec_space
        tolerance = vector_env.envs[0].goal_tolerance
        responses: List[ServeResponse] = []
        for position, (request, result) in enumerate(zip(requests, results)):
            final = result.trajectory.records[-1].parameters
            met = {
                spec.name: bool(
                    spec.is_met(
                        float(result.final_specs[spec.name]),
                        float(result.target_specs[spec.name]),
                        rel_tol=tolerance,
                    )
                )
                for spec in spec_space
                if spec.name in result.target_specs and spec.name in result.final_specs
            }
            responses.append(
                ServeResponse(
                    index=position,
                    env_id=env_id,
                    target_specs=dict(result.target_specs),
                    success=result.success,
                    steps=result.steps,
                    final_specs=dict(result.final_specs),
                    final_parameters={
                        name: float(value) for name, value in zip(names, final)
                    },
                    met=met,
                    request_id=request.request_id,
                    timing={"serve_ms": serve_ms},
                    tier=tier,
                    result=result,
                )
            )
        return responses

    def serve(
        self, requests: Sequence[Union[ServeRequest, Mapping[str, Any]]]
    ) -> List[ServeResponse]:
        """Design every requested specification group; responses keep request order.

        Requests are grouped by ``(env_id, max_steps)`` so each group runs as
        lock-step micro-batches of at most ``batch_size`` episodes on that
        topology's persistent vector environment and shared simulation cache.
        A request with a NaN or infinite target is answered with a
        ``bad_request`` error response and not deployed.
        """
        normalized = self._normalize(requests)
        responses: List[Optional[ServeResponse]] = [None] * len(normalized)
        groups: Dict[Tuple[str, Optional[int]], List[int]] = {}
        for index, request in enumerate(normalized):
            message = target_error(request.target_specs)
            if message is not None:
                self.stats.record_error("bad_request")
                responses[index] = ServeResponse.failure(request, "bad_request", message)
                responses[index].index = index
                continue
            key = (self.resolve_env_id(request.env_id), request.max_steps)
            groups.setdefault(key, []).append(index)

        for (env_id, max_steps), indices in groups.items():
            group = self.serve_group(env_id, max_steps, [normalized[i] for i in indices])
            for index, response in zip(indices, group):
                response.index = index
                responses[index] = response
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]
