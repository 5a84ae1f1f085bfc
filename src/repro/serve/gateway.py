"""The async serving gateway: deadline-batched queueing over the service.

:class:`Gateway` is the traffic-facing front door of ``repro.serve``.  It
accepts *individual* sizing requests (:meth:`Gateway.submit` returns a
:class:`concurrent.futures.Future` per request), coalesces them per
``(env_id, max_steps)`` group in a :class:`RequestQueue` until either the
batch is full or the oldest request's deadline budget expires
(deadline-based dynamic batching), executes each coalesced batch on a
sharded worker pool, and fans the results back out to the per-request
futures.

Two execution backends plug in behind the same duck type
(``serve_group`` / ``resolve_env_id`` / ``spec_names`` / ``stats`` /
``batch_size``):

* :class:`~repro.serve.service.DeploymentService` — worker *threads* drive
  the service's persistent per-topology vector environments directly.
  Topologies are sharded over the workers by a stable hash, so each
  environment is only ever touched by one worker and batches for different
  topologies execute genuinely in parallel.
* :class:`ProcessShardPool` — worker threads dispatch batches to persistent
  ``multiprocessing`` shard processes (the same fork-preferring pool context
  as :mod:`repro.orchestrate`), each holding its own
  :class:`DeploymentService`; a shared on-disk simulation corpus
  (``cache_dir`` → :class:`repro.surrogate.TieredSimulator` /
  :class:`repro.parallel.DiskSimulationCache` entry format) lets the shards
  reuse each other's exact simulations.

Because the batched deployment engine is episode-level identical to
sequential :func:`repro.agents.deploy_policy`, gateway responses are
bitwise-identical to sequential deployment for the same requests —
regardless of arrival order, coalesce sizes, or deadline settings.

Failure discipline: a worker never dies.  Request timeouts, unroutable
environments, checkpoint errors, and unexpected exceptions all become
structured :class:`~repro.serve.protocol.ServeError` responses on the
affected futures; :meth:`Gateway.close` drains the queue by default so
accepted requests are answered even on shutdown.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.agents.checkpoint import CheckpointError
from repro.api.catalog import make_env
from repro.serve.protocol import ServeRequest, ServeResponse, target_error
from repro.serve.service import DeploymentService, ServeStats

#: Default time a request may wait in the queue for coalescing partners.
DEFAULT_BATCH_DELAY_MS = 25.0

#: Entry budget of the gateway's optional response cache (FIFO eviction).
RESPONSE_CACHE_SIZE = 4096

GroupKey = Tuple[str, Optional[int]]
CacheKey = Tuple[str, Optional[int], Tuple[Tuple[str, float], ...]]


def shard_of(env_id: str, num_shards: int) -> int:
    """Stable shard index for a topology (hash() is salted per process)."""
    return zlib.crc32(env_id.encode("utf-8")) % num_shards


@dataclass
class _Pending:
    """One queued request: the request, its future, and its clocks."""

    request: ServeRequest
    future: Future
    enqueued_at: float
    flush_at: float
    timeout_at: Optional[float]


class RequestQueue:
    """A deadline-aware, topology-sharded request queue.

    Requests accumulate per ``(env_id, max_steps)`` group.  A worker's
    :meth:`next_batch` blocks until one of its shard's groups either reaches
    ``batch_size`` (trigger ``"full"``) or holds a request whose flush
    deadline passed (trigger ``"deadline"``), then pops up to ``batch_size``
    requests from it.  During a draining close every remaining group flushes
    immediately (trigger ``"drain"``).
    """

    def __init__(self, num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        self._cond = threading.Condition()
        self._groups: Dict[GroupKey, Deque[_Pending]] = {}
        self._closed = False
        self._draining = False

    def put(self, key: GroupKey, pending: _Pending) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("the gateway is closed; no new requests accepted")
            self._groups.setdefault(key, deque()).append(pending)
            self._cond.notify_all()

    def depth(self) -> int:
        with self._cond:
            return sum(len(queue) for queue in self._groups.values())

    def next_batch(
        self, shard: int, batch_size: int
    ) -> Optional[Tuple[GroupKey, List[_Pending], str]]:
        """Block until a batch is ready for ``shard``; None when shut down."""
        with self._cond:
            while True:
                now = time.monotonic()
                ready: Optional[Tuple[GroupKey, str]] = None
                earliest: Optional[float] = None
                for key, queue in self._groups.items():
                    if not queue or shard_of(key[0], self.num_shards) != shard:
                        continue
                    if len(queue) >= batch_size:
                        ready = (key, "full")
                        break
                    head = queue[0].flush_at
                    if self._draining:
                        ready = (key, "drain")
                        break
                    if head <= now:
                        # Flush the longest-overdue group first.
                        if ready is None or head < earliest:  # type: ignore[operator]
                            ready = (key, "deadline")
                            earliest = head
                    elif earliest is None or head < earliest:
                        earliest = head
                if ready is not None:
                    key, trigger = ready
                    queue = self._groups[key]
                    batch = [queue.popleft() for _ in range(min(batch_size, len(queue)))]
                    if not queue:
                        del self._groups[key]
                    return key, batch, trigger
                if self._closed:
                    return None
                timeout = None if earliest is None else max(0.0, earliest - now)
                self._cond.wait(timeout=timeout)

    def close(self, drain: bool) -> List[_Pending]:
        """Stop accepting requests; returns the abandoned requests (drain=False)."""
        with self._cond:
            self._closed = True
            self._draining = drain
            remaining: List[_Pending] = []
            if not drain:
                for queue in self._groups.values():
                    remaining.extend(queue)
                self._groups.clear()
            self._cond.notify_all()
            return remaining


class Gateway:
    """Async front door over a deployment backend, with dynamic batching.

    Parameters
    ----------
    backend:
        A :class:`DeploymentService` (thread mode) or
        :class:`ProcessShardPool` (process-shard mode).
    num_workers:
        Worker threads.  Topologies are sharded over them by a stable hash
        of the env ID, so one environment never sees two workers.
    max_batch_delay_ms:
        Default coalescing budget for requests that do not set their own
        ``deadline_ms``; ``0`` disables batching delay (every request
        flushes immediately, alone or with whatever already queued).
    request_timeout_s:
        Optional hard budget: a request still queued this long after
        submission is answered with a structured ``timeout`` error instead
        of being executed.
    checkpoints:
        Optional ``{env_id: checkpoint path}`` mapping registered *lazily*:
        the first request routed to such an env loads its checkpoint then;
        load or compatibility failures surface as ``checkpoint_error``
        responses on that request's future (never as worker crashes).
    cache_responses:
        Memoize completed responses per ``(env_id, max_steps, target_specs)``
        and answer repeated identical requests straight from the cache.
        Deployment is deterministic (greedy policy, fixed initial design), so
        a cached response is bitwise what re-running the episode would
        produce; this is the serving-layer analogue of the simulation cache
        and is what makes duplicate-heavy replay traffic cheap.  Hits carry
        ``tier={"response_cache_hits": 1}``, count into
        ``ServeStats.cache_hits``, and do **not** re-run episodes (so they do
        not increment ``episodes``).  Off by default: with a stochastic
        service (``deterministic=False``) replayed responses would not match
        fresh rollouts.
    """

    def __init__(
        self,
        backend: Any,
        num_workers: int = 2,
        max_batch_delay_ms: float = DEFAULT_BATCH_DELAY_MS,
        request_timeout_s: Optional[float] = None,
        checkpoints: Optional[Mapping[str, Union[str, Path]]] = None,
        cache_responses: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_batch_delay_ms < 0:
            raise ValueError("max_batch_delay_ms must be >= 0")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        self.backend = backend
        self.batch_size = int(backend.batch_size)
        self.max_batch_delay_ms = float(max_batch_delay_ms)
        self.request_timeout_s = request_timeout_s
        self._lazy_checkpoints = {
            str(env_id): Path(path) for env_id, path in dict(checkpoints or {}).items()
        }
        self.cache_responses = bool(cache_responses)
        self._response_cache: Dict[CacheKey, ServeResponse] = {}
        self._cache_lock = threading.Lock()
        self._queue = RequestQueue(num_shards=num_workers)
        self._closed = False
        self._close_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"gateway-worker-{index}",
                daemon=True,
            )
            for index in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServeStats:
        return self.backend.stats

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def stats_dict(self) -> Dict[str, Any]:
        """The backend's stats document plus the gateway configuration."""
        document = (
            self.backend.stats_dict()
            if hasattr(self.backend, "stats_dict")
            else self.stats.to_dict()
        )
        document["gateway"] = {
            "workers": self.num_workers,
            "batch_size": self.batch_size,
            "max_batch_delay_ms": self.max_batch_delay_ms,
            "request_timeout_s": self.request_timeout_s,
            "cache_responses": self.cache_responses,
        }
        return document

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _failed_future(self, request: ServeRequest, code: str, message: str) -> Future:
        self.stats.record_error(code)
        future: Future = Future()
        future.set_result(ServeResponse.failure(request, code, message))
        return future

    @staticmethod
    def _cache_key(
        env_id: str, max_steps: Optional[int], target_specs: Mapping[str, float]
    ) -> CacheKey:
        return (env_id, max_steps, tuple(sorted(target_specs.items())))

    @staticmethod
    def _replay_response(template: ServeResponse, request: ServeRequest) -> ServeResponse:
        """A cached outcome re-stamped for a new request (dicts copied)."""
        return replace(
            template,
            index=0,
            request_id=request.request_id,
            target_specs=dict(template.target_specs),
            final_specs=dict(template.final_specs),
            final_parameters=dict(template.final_parameters),
            met=dict(template.met),
            timing={"queue_ms": 0.0, "serve_ms": 0.0, "total_ms": 0.0},
            tier={"response_cache_hits": 1},
        )

    def _cache_store(self, key: GroupKey, live: List[_Pending],
                     responses: Sequence[ServeResponse]) -> None:
        env_id, max_steps = key
        with self._cache_lock:
            for pending, response in zip(live, responses):
                cache_key = self._cache_key(
                    env_id, max_steps, pending.request.target_specs
                )
                self._response_cache.setdefault(cache_key, response)
            while len(self._response_cache) > RESPONSE_CACHE_SIZE:
                self._response_cache.pop(next(iter(self._response_cache)))

    def _route(self, request: ServeRequest) -> str:
        try:
            return self.backend.resolve_env_id(request.env_id)
        except ValueError:
            if request.env_id in self._lazy_checkpoints:
                path = self._lazy_checkpoints[request.env_id]
                try:
                    self.backend.add_checkpoint(path, env_id=request.env_id)
                except CheckpointError:
                    raise
                except (OSError, ValueError) as exc:
                    raise CheckpointError(
                        f"checkpoint {path} cannot serve environment "
                        f"{request.env_id!r}: {exc}"
                    ) from exc
                return self.backend.resolve_env_id(request.env_id)
            raise

    def submit(self, request: Union[ServeRequest, Mapping[str, Any]]) -> Future:
        """Enqueue one request; the Future resolves to its ServeResponse.

        Routing failures (unknown environment, broken lazy checkpoint) and
        targets that cannot be served (a NaN or infinite value, a missing
        spec) resolve the future immediately with a structured error
        response — ``submit`` only raises for caller bugs (bad request type,
        closed gateway).
        """
        received = time.monotonic()
        request = ServeRequest.coerce(request)
        if self._closed:
            raise RuntimeError("the gateway is closed; no new requests accepted")
        try:
            env_id = self._route(request)
        except CheckpointError as exc:
            return self._failed_future(request, "checkpoint_error", str(exc))
        except ValueError as exc:
            return self._failed_future(request, "unroutable", str(exc))
        message = target_error(request.target_specs, self.backend.spec_names(env_id))
        if message is not None:
            return self._failed_future(request, "bad_request", message)
        if self.cache_responses:
            cache_key = self._cache_key(env_id, request.max_steps, request.target_specs)
            with self._cache_lock:
                template = self._response_cache.get(cache_key)
            if template is not None:
                response = self._replay_response(template, request)
                response.timing["total_ms"] = (time.monotonic() - received) * 1000.0
                self.stats.record_cache_hit()
                self.stats.record_latency(response.timing["total_ms"])
                future: Future = Future()
                future.set_result(response)
                return future
        now = received
        delay_ms = (
            request.deadline_ms if request.deadline_ms is not None else self.max_batch_delay_ms
        )
        flush_at = now + delay_ms / 1000.0
        timeout_at = None
        if self.request_timeout_s is not None:
            timeout_at = now + self.request_timeout_s
            # An expired request must still leave the queue promptly to be
            # answered, so the hard budget also caps the coalescing wait.
            flush_at = min(flush_at, timeout_at)
        pending = _Pending(
            request=request,
            future=Future(),
            enqueued_at=now,
            flush_at=flush_at,
            timeout_at=timeout_at,
        )
        self.stats.note_enqueued()
        try:
            self._queue.put((env_id, request.max_steps), pending)
        except RuntimeError:
            self.stats.note_dequeued()
            raise
        return pending.future

    def submit_many(
        self, requests: Sequence[Union[ServeRequest, Mapping[str, Any]]]
    ) -> List[Future]:
        return [self.submit(request) for request in requests]

    def serve(
        self,
        requests: Sequence[Union[ServeRequest, Mapping[str, Any]]],
        timeout: Optional[float] = None,
    ) -> List[ServeResponse]:
        """Submit a batch and block for the responses (submission order)."""
        futures = self.submit_many(requests)
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    @staticmethod
    def _finalize(pending: _Pending, response: ServeResponse) -> None:
        if not pending.future.cancelled():
            pending.future.set_result(response)

    def _worker_loop(self, shard: int) -> None:
        while True:
            item = self._queue.next_batch(shard, self.batch_size)
            if item is None:
                return
            (env_id, max_steps), batch, trigger = item
            self.stats.note_dequeued(len(batch))
            self.stats.record_batch(len(batch), trigger)
            now = time.monotonic()
            live: List[_Pending] = []
            for pending in batch:
                if pending.timeout_at is not None and now >= pending.timeout_at:
                    waited_ms = (now - pending.enqueued_at) * 1000.0
                    self.stats.record_error("timeout")
                    self._finalize(
                        pending,
                        ServeResponse.failure(
                            pending.request,
                            "timeout",
                            f"request spent {waited_ms:.0f} ms queued, over the "
                            f"{self.request_timeout_s}s budget",
                            env_id=env_id,
                        ),
                    )
                else:
                    live.append(pending)
            if not live:
                continue
            try:
                responses = self.backend.serve_group(
                    env_id, max_steps, [pending.request for pending in live]
                )
            except Exception as exc:  # noqa: BLE001 - a worker must never die
                code = "checkpoint_error" if isinstance(exc, CheckpointError) else "internal"
                for pending in live:
                    self.stats.record_error(code)
                    self._finalize(
                        pending,
                        ServeResponse.failure(
                            pending.request, code, f"{type(exc).__name__}: {exc}", env_id=env_id
                        ),
                    )
                continue
            finished = time.monotonic()
            if self.cache_responses:
                self._cache_store((env_id, max_steps), live, responses)
            for pending, response in zip(live, responses):
                response.request_id = pending.request.request_id
                response.timing = {
                    **response.timing,
                    "queue_ms": (now - pending.enqueued_at) * 1000.0,
                    "total_ms": (finished - pending.enqueued_at) * 1000.0,
                }
                self.stats.record_latency(response.timing["total_ms"])
                self._finalize(pending, response)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the gateway down.

        ``drain=True`` (the default, and what the CLI's SIGINT handler
        calls) flushes every queued request through the workers first;
        ``drain=False`` answers queued requests with structured ``shutdown``
        errors instead.  Idempotent; workers are joined either way, so no
        orphan threads survive.
        """
        with self._close_lock:
            if not self._closed:
                self._closed = True
                abandoned = self._queue.close(drain)
                for pending in abandoned:
                    self.stats.note_dequeued()
                    self.stats.record_error("shutdown")
                    self._finalize(
                        pending,
                        ServeResponse.failure(
                            pending.request,
                            "shutdown",
                            "the gateway shut down before this request ran",
                        ),
                    )
        for worker in self._workers:
            worker.join(timeout)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close(drain=True)


# ----------------------------------------------------------------------
# Process-shard backend
# ----------------------------------------------------------------------

#: Per-process service, installed by the pool initializer.
_SHARD_SERVICE: Optional[DeploymentService] = None


def _initialize_shard_service(spec: Dict[str, Any]) -> None:
    global _SHARD_SERVICE
    service = DeploymentService(
        batch_size=spec["batch_size"],
        cache_size=spec["cache_size"],
        deterministic=True,
    )
    for env_id, path in spec["checkpoints"].items():
        service.add_checkpoint(
            path,
            env_id=env_id,
            surrogate=spec["surrogates"].get(env_id),
            surrogate_dir=spec["cache_dir"],
        )
    _SHARD_SERVICE = service


def _serve_in_shard(
    env_id: str, max_steps: Optional[int], payload: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    assert _SHARD_SERVICE is not None, "shard process was not initialized"
    requests = [ServeRequest.from_dict(entry) for entry in payload]
    responses = _SHARD_SERVICE.serve_group(env_id, max_steps, requests)
    return [response.to_dict() for response in responses]


class ProcessShardPool:
    """A sharded multi-process deployment backend for :class:`Gateway`.

    Each shard process holds a full :class:`DeploymentService` built from
    the same ``{env_id: checkpoint}`` mapping (policies rebuild from disk in
    every worker).  Batches travel as protocol dicts and come back as
    :class:`ServeResponse` objects, so results are identical to the
    in-process backend.  Passing ``cache_dir`` routes every shard's
    simulations through a shared on-disk corpus
    (:class:`repro.surrogate.TieredSimulator` with a persistent directory —
    the :class:`repro.parallel.DiskSimulationCache` entry format), so one
    shard's exact simulations become every other shard's disk hits; optional
    per-env ``surrogates`` add the learned tier on top.

    The pool context is :func:`repro.orchestrate.pool._pool_context` — fork
    where the platform offers it, exactly like the sweep orchestrator.
    """

    def __init__(
        self,
        checkpoints: Mapping[str, Union[str, Path]],
        shards: int = 2,
        batch_size: int = 8,
        cache_size: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        surrogates: Optional[Mapping[str, Union[str, Path]]] = None,
        start_method: Optional[str] = None,
    ) -> None:
        from repro.orchestrate.pool import _pool_context
        from repro.parallel.cache import DEFAULT_CACHE_SIZE

        if not checkpoints:
            raise ValueError("ProcessShardPool needs at least one env_id -> checkpoint")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self._checkpoints = {str(env): str(path) for env, path in checkpoints.items()}
        self._default_env_id = next(iter(self._checkpoints))
        self._spec_names = {
            env_id: make_env(env_id).benchmark.spec_space.names for env_id in self._checkpoints
        }
        self.batch_size = int(batch_size)
        self.stats = ServeStats()
        spec = {
            "checkpoints": dict(self._checkpoints),
            "batch_size": self.batch_size,
            "cache_size": int(cache_size) if cache_size is not None else DEFAULT_CACHE_SIZE,
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
            "surrogates": {
                str(env): str(path) for env, path in dict(surrogates or {}).items()
            },
        }
        context = _pool_context(start_method)
        self._pool = context.Pool(
            processes=int(shards), initializer=_initialize_shard_service, initargs=(spec,)
        )
        self.shards = int(shards)

    @property
    def env_ids(self) -> List[str]:
        return sorted(self._checkpoints)

    def resolve_env_id(self, env_id: Optional[str]) -> str:
        if env_id is None:
            return self._default_env_id
        if env_id not in self._checkpoints:
            registered = ", ".join(self.env_ids) or "none"
            raise ValueError(
                f"no checkpoint registered for environment {env_id!r} "
                f"(registered: {registered})"
            )
        return env_id

    def spec_names(self, env_id: str) -> List[str]:
        return self._spec_names[env_id]

    def add_checkpoint(self, path: Union[str, Path], env_id: Optional[str] = None) -> str:
        raise CheckpointError(
            "ProcessShardPool checkpoints are fixed at construction (each shard "
            "process builds its service once); restart the pool to add "
            f"{env_id or path!r}"
        )

    def serve_group(
        self,
        env_id: str,
        max_steps: Optional[int],
        requests: Sequence[ServeRequest],
    ) -> List[ServeResponse]:
        """Execute one coalesced batch on whichever shard process is free."""
        payload = [request.to_dict() for request in requests]
        start = time.perf_counter()
        response_dicts = self._pool.apply(_serve_in_shard, (env_id, max_steps, payload))
        elapsed = time.perf_counter() - start
        responses = [ServeResponse.from_dict(entry) for entry in response_dicts]
        self.stats.record_responses(env_id, responses, elapsed)
        if responses:
            tier = responses[0].tier
            self.stats.record_tiers(
                tier.get("surrogate_hits", 0),
                tier.get("trust_rejections", 0),
                tier.get("exact_fallbacks", 0),
            )
        return responses

    def stats_dict(self) -> Dict[str, Any]:
        return {**self.stats.to_dict(), "shards": self.shards}

    def close(self) -> None:
        self._pool.close()
        self._pool.join()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
