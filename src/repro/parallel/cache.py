"""Memoizing simulator wrapper keyed on quantized parameter vectors.

Every optimizer in this codebase — PPO rollouts, the GA/BO/RS baselines, the
supervised sizer's dataset generation, deployment batches — spends its inner
loop asking a :class:`~repro.simulation.base.CircuitSimulator` the same
question for *recurring* parameter vectors: population elites are re-scored
each generation, every vector-env reset starts from the shared center sizing,
and search methods revisit grid points.  All simulators in this project are
deterministic functions of the netlist's device parameters, so those repeats
are pure waste.

:class:`SimulationCache` wraps any simulator behind the same ``simulate``
protocol and memoizes results in an LRU table keyed on the netlist's
parameter snapshot, quantized so that float noise below simulator resolution
(e.g. ``1e-6`` vs ``1.0000000000001e-6`` from two different arithmetic paths)
maps to the same entry.  The key quantizes the *binary* mantissa of each
parameter to the bit equivalent of ``key_digits`` decimal digits — every
operation involved is exact in float64, so values straddling a rounding
boundary can never split into different keys.  Parameters that the design
space snaps onto a discrete grid are exactly representable well above the
default 12-digit resolution, so distinct design points never collide.

:meth:`SimulationCache.simulate_batch` is the one lookup path (``simulate``
is a batch of one): the rows are looked up in order, the misses are
simulated together in one inner ``simulate_batch`` call, and a batch that
completes leaves results, counters and LRU order exactly as a loop of
``simulate`` calls would.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import chain
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.circuits.netlist import Netlist
from repro.simulation.base import CircuitSimulator, SimulationResult, simulate_batch

#: Default maximum number of memoized simulation results.
DEFAULT_CACHE_SIZE = 4096

#: Default number of significant digits used to quantize cache keys.
DEFAULT_KEY_DIGITS = 12


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`SimulationCache`.

    ``hits`` counts every lookup served without running the simulator;
    ``disk_hits`` is the subset of those served from the persistent tier of a
    :class:`~repro.parallel.disk_cache.DiskSimulationCache` (always 0 for the
    purely in-memory cache).  ``misses`` therefore equals the number of real
    simulator calls.

    The three tier counters belong to the learned-surrogate tier of a
    :class:`~repro.surrogate.TieredSimulator` (always 0 otherwise):
    ``surrogate_hits`` counts queries answered by the surrogate model,
    ``trust_rejections`` counts queries where the surrogate was consulted but
    its trust gate refused (low confidence, or an untrained model), and
    ``exact_fallbacks`` counts the exact simulator calls made after such a
    consult.  Surrogate answers are *not* misses: ``misses`` keeps meaning
    "exact simulator calls".
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    surrogate_hits: int = 0
    trust_rejections: int = 0
    exact_fallbacks: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.surrogate_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without an exact simulation (0.0 when unused)."""
        return (self.hits + self.surrogate_hits) / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable digest (what sweep artifacts record)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "surrogate_hits": self.surrogate_hits,
            "trust_rejections": self.trust_rejections,
            "exact_fallbacks": self.exact_fallbacks,
            "hit_rate": self.hit_rate,
        }


class SimulationCache:
    """LRU-memoizing :class:`CircuitSimulator` wrapper.

    Parameters
    ----------
    simulator:
        The simulator to wrap.  Must be deterministic: identical device
        parameters must produce identical results (true for every simulator
        in :mod:`repro.simulation`).
    max_entries:
        Capacity of the LRU table; the least-recently-used entry is evicted
        once it is exceeded.
    key_digits:
        Key resolution, expressed in decimal significant digits; the key
        quantizes each parameter's *binary* mantissa to the equivalent bit
        count (``2^ceil(digits / log10 2)``), which collapses the same float
        noise with exact-in-float64 arithmetic (see :meth:`_keys`).

    The wrapper satisfies the :class:`CircuitSimulator` protocol, so it can
    stand in anywhere a simulator is expected — a whole
    :class:`~repro.parallel.vector_env.VectorCircuitEnv` shares one instance
    across its sub-environments.
    """

    def __init__(
        self,
        simulator: CircuitSimulator,
        max_entries: int = DEFAULT_CACHE_SIZE,
        key_digits: int = DEFAULT_KEY_DIGITS,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if key_digits <= 0:
            raise ValueError("key_digits must be positive")
        self.simulator = simulator
        self.max_entries = int(max_entries)
        self.key_digits = int(key_digits)
        # Binary mantissa resolution equivalent to ``key_digits`` decimal
        # digits: 2^ceil(digits / log10(2)) — 2^40 for the default 12.
        self._mantissa_scale = 2.0 ** math.ceil(self.key_digits / math.log10(2.0))
        self.stats = CacheStats()
        # Values are results, or a miss's reservation while a batch runs.
        self._entries: "OrderedDict[bytes, SimulationResult]" = OrderedDict()

    # ------------------------------------------------------------------
    # CircuitSimulator protocol
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"cached({self.simulator.name})"

    def simulate(self, netlist: Netlist) -> SimulationResult:
        """Evaluate the netlist, serving repeats from the LRU table."""
        return self.simulate_batch([netlist])[0]

    def simulate_batch(self, netlists: Sequence[Netlist]) -> List[SimulationResult]:
        """``[self.simulate(n) for n in netlists]``, with the misses in one batch.

        When the batch completes, results, :attr:`stats` and the LRU order
        of the table are exactly what that loop leaves.  The rows are looked
        up in order, and a miss reserves its entry at once, so a later row
        with the same key is a hit and evictions fall where the loop's
        would.  Then :meth:`_simulate_misses` resolves every miss, and the
        reserved entries still in the table are filled.

        A batch that raises stores none of its misses and leaves no
        reservation behind, but rolls nothing else back: its hits, the
        misses handed to the simulator and the entries its reservations
        evicted stand.  (A loop would have stored the rows before the
        failing one, and evicted only for those.)
        """
        entries = self._entries
        rows: List[Union[SimulationResult, _Reserved]] = []
        reserved: List[_Reserved] = []
        for key, netlist in zip(self._keys(netlists), netlists):
            entry = entries.get(key)
            if entry is None:
                entry = _Reserved(len(reserved), key, netlist)
                reserved.append(entry)
                entries[key] = entry
                if len(entries) > self.max_entries:
                    entries.popitem(last=False)
                    self.stats.evictions += 1
            else:
                self.stats.hits += 1
                entries.move_to_end(key)
            rows.append(entry)
        results = self._fill(reserved) if reserved else []
        return [
            self._copy(results[entry.miss] if isinstance(entry, _Reserved) else entry)
            for entry in rows
        ]

    def _fill(self, reserved: List["_Reserved"]) -> List[SimulationResult]:
        """Resolve the reserved misses and store them where still reserved."""
        entries = self._entries
        try:
            results = self._simulate_misses(
                [entry.key for entry in reserved], [entry.netlist for entry in reserved]
            )
        except BaseException:
            # No reservation may outlive the batch.
            for entry in reserved:
                if entries.get(entry.key) is entry:
                    del entries[entry.key]
            raise
        for entry, result in zip(reserved, results):
            if entries.get(entry.key) is entry:
                entries[entry.key] = self._copy(result)
        return results

    def _simulate_misses(
        self, keys: List[bytes], netlists: List[Netlist]
    ) -> List[SimulationResult]:
        """The results of rows absent from the in-memory table, in row order.

        The base implementation is one inner ``simulate_batch`` call, every
        row counted in ``stats.misses``.  Subclasses (the persistent
        :class:`DiskSimulationCache`, the surrogate tier) interpose further
        tiers here.
        """
        self.stats.misses += len(netlists)
        return simulate_batch(self.simulator, netlists)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all memoized entries (the stats counters are kept)."""
        self._entries.clear()

    def _keys(self, netlists: Sequence[Netlist]) -> List[bytes]:
        """The key of every netlist.

        A netlist's :meth:`~repro.circuits.netlist.Netlist.parameter_array`
        (device parameters in netlist insertion order) fully determines a
        deterministic simulator's output, and the order is fixed per
        topology, so the quantized array (plus the circuit name) is the key.
        Netlists that share a name and a layout are quantized as one array.

        The key quantizes the *binary* mantissa to the bit count matching
        ``key_digits`` decimal digits.  Binary quantization collapses the
        same float noise as decimal rounding, but every operation (frexp,
        mantissa shift, round, carry) is exact in float64 — there is no
        decade-boundary failure mode and no inexact power-of-ten scale —
        and it costs a tenth of a decimal rounding pass, which matters on a
        path that must stay well below one simulator call.
        """
        if not netlists:
            return []
        name = netlists[0].name
        # One pass over every device's parameter dict, in netlist order: the
        # rows of ``parameter_array()``, when every netlist shares the first
        # one's name and per-device layout (else each is keyed on its own).
        dicts = [device.parameters for netlist in netlists for device in netlist]
        sizes = list(map(len, dicts))
        layout = sizes[: len(netlists[0])]
        if sizes != layout * len(netlists) or any(netlist.name != name for netlist in netlists):
            return [self._keys([netlist])[0] for netlist in netlists]
        rows = np.fromiter(
            chain.from_iterable(map(dict.values, dicts)), dtype=np.float64, count=sum(sizes)
        ).reshape(len(netlists), sum(layout))
        mantissas, exponents = np.frexp(rows)
        scaled = np.round(mantissas * self._mantissa_scale)
        # A mantissa that rounded up to 1.0 (e.g. 0.999...9 at full precision)
        # is renormalized so it shares the key of the next binade's values.
        carry = np.abs(scaled) >= self._mantissa_scale
        scaled = np.where(carry, scaled * 0.5, scaled)
        exponents = exponents + carry
        prefix = name.encode()
        return [
            prefix + scaled[row].tobytes() + exponents[row].tobytes()
            for row in range(len(netlists))
        ]

    @staticmethod
    def _copy(result: SimulationResult) -> SimulationResult:
        # Environments and baselines mutate/keep the spec dicts they receive;
        # fresh copies keep the memoized entry immutable.
        return SimulationResult(
            specs=dict(result.specs), details=dict(result.details), valid=result.valid
        )


class _Reserved:
    """The table entry a miss holds until :meth:`SimulationCache._fill` resolves it."""

    __slots__ = ("miss", "key", "netlist")

    def __init__(self, miss: int, key: bytes, netlist: Netlist) -> None:
        self.miss = miss
        self.key = key
        self.netlist = netlist
