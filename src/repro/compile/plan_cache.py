"""Keyed cache of compiled plans with config-snapshot invalidation.

Plans cost a trace of the configuration to build and are cheap to
replay, so they are cached per signature key — e.g.
``("env", benchmark_name, num_envs)`` — alongside a *config snapshot*: a
plain tuple of every configuration value the plan baked in at trace time.
``get_or_build`` revalidates the snapshot on every lookup and transparently
rebuilds when it drifts (someone mutated ``reward_fn.goal_bonus``, swapped
the simulator, resized the cache, ...), so a stale plan can never be
replayed against a configuration it was not traced for.

Build failures (:class:`~repro.compile.errors.UntraceableError`) are cached
too — as *negative* entries keyed on the same snapshot — so a permanently
untraceable configuration does not pay the failed trace on every step.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from repro.compile.errors import UntraceableError

DEFAULT_PLAN_CACHE_SIZE = 32


@dataclass
class PlanCacheStats:
    """Counters describing plan-cache behaviour (useful in tests/benchmarks)."""

    hits: int = 0
    misses: int = 0
    failures: int = 0
    invalidations: int = 0
    evictions: int = 0


@dataclass
class _Entry:
    config: Any
    plan: Optional[Any]
    failure: Optional[str] = None


@dataclass
class PlanCache:
    """LRU cache mapping signature keys to compiled plans.

    Parameters
    ----------
    max_entries:
        Maximum number of cached plans (LRU eviction beyond this).
    """

    max_entries: int = DEFAULT_PLAN_CACHE_SIZE
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
    _entries: "OrderedDict[Hashable, _Entry]" = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.max_entries <= 0:
            raise ValueError("max_entries must be positive")

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(
        self,
        key: Hashable,
        builder: Callable[[], Any],
        config: Any = None,
    ) -> Optional[Any]:
        """Return the cached plan for ``key``, building it on first use.

        ``config`` is the caller's current configuration snapshot; a cached
        entry whose snapshot differs is invalidated and rebuilt.  Returns
        ``None`` when the builder raised :class:`UntraceableError` (the
        failure is cached; see :meth:`failure_reason`).
        """
        entry = self._entries.get(key)
        if entry is not None:
            if entry.config == config:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry.plan
            self.stats.invalidations += 1
            del self._entries[key]
        self.stats.misses += 1
        try:
            plan = builder()
        except UntraceableError as error:
            self.stats.failures += 1
            self._store(key, _Entry(config=config, plan=None, failure=error.reason))
            return None
        self._store(key, _Entry(config=config, plan=plan))
        return plan

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached plan for ``key`` (``None`` if absent or failed).

        Builds nothing, counts nothing and leaves the LRU order alone, so
        stats readers can call it while another thread steps.
        """
        entry = self._entries.get(key)
        return None if entry is None else entry.plan

    def failure_reason(self, key: Hashable) -> Optional[str]:
        """Reason the last build for ``key`` failed, or ``None``."""
        entry = self._entries.get(key)
        return None if entry is None else entry.failure

    def invalidate(self, key: Hashable) -> bool:
        """Drop the entry for ``key`` (if present).  Returns True if dropped."""
        if key in self._entries:
            del self._entries[key]
            self.stats.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self._entries.clear()

    def _store(self, key: Hashable, entry: _Entry) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
