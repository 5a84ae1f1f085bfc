"""Compiled per-topology execution plans for the serving/rollout hot path.

The interpreted stack is written for clarity: every environment step runs
``K`` independent scalar simulator calls.  This package trades that
flexibility for speed **without trading away a single bit of behaviour**:

* :class:`OpAmpKernel` / :class:`CmOtaKernel` — batched simulator kernels;
  their MNA methods sweep all ``K`` per-env small-signal circuits through
  one :class:`~repro.simulation.mna.BatchedMNAPlan`, the MNA engine the
  scalar simulators run at ``K = 1``.
* :class:`CompiledEpisodePlan` — the batched ``VectorCircuitEnv.step``:
  vectorized action snapping, a batched simulator kernel, vectorized cache
  keys, and batched observation assembly around a slim sequential
  bookkeeping pass that preserves cache and autoreset ordering exactly.
* :class:`PlanCache` — keyed plan storage with config-snapshot invalidation
  and negative caching of :class:`UntraceableError` build failures, so an
  uncompilable configuration falls back to the interpreted path once and
  quietly ("degrades gracefully, never wrongly").

Anything the tracer cannot reproduce bitwise — unshared simulators, cache
subclasses, unknown simulator types, or a build-time probe mismatch — raises :class:`UntraceableError` and the caller keeps using the
interpreted code.
"""

from repro.compile.errors import UntraceableError
from repro.compile.plan_cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache, PlanCacheStats
from repro.compile.sim_kernels import (
    CmOtaKernel,
    KernelResult,
    OpAmpKernel,
    build_simulator_kernel,
)
from repro.compile.env_plan import CompiledEpisodePlan

__all__ = [
    "UntraceableError",
    "PlanCache",
    "PlanCacheStats",
    "DEFAULT_PLAN_CACHE_SIZE",
    "CompiledEpisodePlan",
    "KernelResult",
    "OpAmpKernel",
    "CmOtaKernel",
    "build_simulator_kernel",
]
