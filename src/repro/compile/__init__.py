"""Compiled per-topology execution plans for the serving/rollout hot path.

The interpreted stack is written for clarity: every environment step runs
``K`` independent scalar simulator calls.  This package trades that
flexibility for speed **without trading away a single bit of behaviour**:

* :class:`CompiledEpisodePlan` — the batched ``VectorCircuitEnv.step``:
  vectorized action snapping, the simulator's own ``simulate_batch`` (the
  scalar operating point per lane, one stacked MNA sweep for the MNA
  methods), vectorized cache keys, and batched observation assembly around
  a slim sequential bookkeeping pass that preserves cache and autoreset
  ordering exactly.
* :class:`PlanCache` — keyed plan storage with config-snapshot invalidation
  and negative caching of :class:`UntraceableError` build failures, so an
  uncompilable configuration falls back to the interpreted path once and
  quietly ("degrades gracefully, never wrongly").

Anything the tracer cannot reproduce bitwise — unshared simulators, cache
subclasses, simulator types without ``simulate_batch`` or subclasses of
those that have it — raises :class:`UntraceableError` and the caller keeps
using the interpreted code.
"""

from repro.compile.errors import UntraceableError
from repro.compile.plan_cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache, PlanCacheStats
from repro.compile.env_plan import CompiledEpisodePlan

__all__ = [
    "UntraceableError",
    "PlanCache",
    "PlanCacheStats",
    "DEFAULT_PLAN_CACHE_SIZE",
    "CompiledEpisodePlan",
]
