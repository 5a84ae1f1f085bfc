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
boundary can never split into different keys (the failure mode the decimal
path of :func:`quantize_significant` had to be fixed for).  Parameters that
the design space snaps onto a discrete grid are exactly representable well
above the default 12-digit resolution, so distinct design points never
collide.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.circuits.netlist import Netlist
from repro.simulation.base import CircuitSimulator, SimulationResult

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


def _scale_by_pow10(values: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``values * 10**exponents`` elementwise, via exact power-of-ten factors.

    ``10.0**k`` is exactly representable in binary only for ``0 <= k <= 22``;
    a single ``values * 10.0**e`` with ``e`` outside that range (e.g. the
    ``1e24`` scale quantizing a 0.1 pF capacitance to 12 digits, or any
    multiplication by an inexact reciprocal like ``1e-13``) injects rounding
    error into the scaled mantissa.  This helper only ever multiplies or
    divides by exact non-negative powers, staged in chunks of ``10**22``.
    """
    def _chunk(magnitude: np.ndarray) -> np.ndarray:
        # Remainder-sized chunk first (then full 10**22 chunks): an integer
        # mantissa divided by the small remainder power usually stays exact,
        # so e.g. 1e11 * 10**-24 reconstructs as (1e11 / 1e2) / 1e22 — two
        # exact steps — instead of rounding twice.
        step = np.mod(magnitude, 22.0)
        # repro: noqa[REP-FLT01] exact sentinel: np.mod of a float-valued
        # integer by 22.0 yields exactly 0.0 for exact multiples, and only
        # that exact value must select the full 10**22 chunk.
        return np.where((step == 0.0) & (magnitude > 0.0), 22.0, step)

    result = np.array(values, dtype=np.float64, copy=True)
    remaining = np.asarray(exponents, dtype=np.float64).copy()
    while np.any(remaining > 0.0):
        step = np.where(remaining > 0.0, _chunk(remaining), 0.0)
        result *= np.power(10.0, step)
        remaining -= step
    while np.any(remaining < 0.0):
        step = np.where(remaining < 0.0, _chunk(-remaining), 0.0)
        result /= np.power(10.0, step)
        remaining += step
    return result


def quantize_significant(values: np.ndarray, digits: int) -> np.ndarray:
    """Round each entry to ``digits`` significant (not decimal) digits.

    The result is a pure function of the rounded *decimal* representation
    ``(mantissa, exponent)``: every float that rounds to the same ``digits``-
    digit decimal — including values whose rounding carries across a decade
    boundary, e.g. ``9.99999999999995e-13`` vs ``1.0e-12`` at 12 digits —
    reconstructs through the identical exact-power-of-ten arithmetic and so
    maps to the identical cache key.
    """
    values = np.asarray(values, dtype=np.float64)
    # repro: noqa[REP-FLT01] exact sentinel: 0.0 has no log10/exponent, so
    # exactly-zero entries (and only those) bypass the mantissa pipeline.
    nonzero = (values != 0.0) & np.isfinite(values)
    exponents = np.zeros(values.shape)
    np.floor(np.log10(np.abs(values, where=nonzero, out=np.ones_like(values))),
             where=nonzero, out=exponents)
    # Integer decimal mantissa in [10^(digits-1), 10^digits].
    mantissa = np.round(_scale_by_pow10(values, digits - 1 - exponents))
    # A mantissa that rounded up across its decade boundary (|m| == 10^digits)
    # is renormalized so it shares the representation — and therefore the
    # cache key — of the next decade's values.
    carry = np.abs(mantissa) >= 10.0**digits
    mantissa = np.where(carry, mantissa / 10.0, mantissa)
    exponents = np.where(carry, exponents + 1.0, exponents)
    # Factor trailing zeros out of the integer mantissa: grid-like values
    # (2e-12, 4.0e-05, ...) then reconstruct through one exact division and
    # come back bitwise equal to their own float literal.  The trailing-zero
    # count is binary-searched (divisibility by 10^k is monotone in k), and
    # every factor involved stays an exactly representable integer.
    trailing = np.zeros(values.shape)
    # repro: noqa[REP-FLT01] exact sentinel: the quantization-step mantissa
    # is an exactly-representable integer; only the exact 0.0 it assigns to
    # zero inputs must skip the trailing-zero factorization.
    candidate_mask = mantissa != 0.0
    for bit in (8.0, 4.0, 2.0, 1.0):
        factor = np.power(10.0, trailing + bit)
        divisible = candidate_mask & (np.round(mantissa / factor) * factor == mantissa)
        trailing = np.where(divisible, trailing + bit, trailing)
    mantissa = np.where(candidate_mask, mantissa / np.power(10.0, trailing), mantissa)
    quantized = _scale_by_pow10(mantissa, exponents - (digits - 1) + trailing)
    # ``values + 0.0`` normalizes -0.0 to +0.0 so both zeros share one key;
    # non-finite entries pass through unchanged.
    return np.where(nonzero, quantized, values + 0.0)


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
        noise with exact-in-float64 arithmetic (see :meth:`keys`).

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
        self._entries: "OrderedDict[bytes, SimulationResult]" = OrderedDict()

    # ------------------------------------------------------------------
    # CircuitSimulator protocol
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"cached({self.simulator.name})"

    def simulate(self, netlist: Netlist) -> SimulationResult:
        """Evaluate the netlist, serving repeats from the LRU table."""
        key = self._key(netlist)
        cached = self.lookup(key)
        if cached is not None:
            return cached
        result = self._simulate_miss(key, netlist)
        self.store(key, result)
        return result

    def _simulate_miss(self, key: bytes, netlist: Netlist) -> SimulationResult:
        """Produce the result for a key absent from the in-memory table.

        Subclasses (the persistent :class:`DiskSimulationCache`) interpose
        additional lookup tiers here; the base implementation is one real
        simulator call.
        """
        self.stats.misses += 1
        return self.simulator.simulate(netlist)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all memoized entries (the stats counters are kept)."""
        self._entries.clear()

    def keys(self, name: str, rows: np.ndarray) -> List[bytes]:
        """The keys of ``(K, P)`` parameter rows of netlists called ``name``.

        A row is a netlist's :meth:`~repro.circuits.netlist.Netlist.parameter_array`:
        device parameters in netlist insertion order fully determine a
        deterministic simulator's output, and the order is fixed per
        topology, so the quantized row (plus the circuit name) is the key.

        The key quantizes the *binary* mantissa to the bit count matching
        ``key_digits`` decimal digits.  Binary quantization collapses the
        same float noise as decimal rounding, but every operation (frexp,
        mantissa shift, round, carry) is exact in float64 — there is no
        decade-boundary failure mode and no inexact power-of-ten scale —
        and it costs a tenth of a decimal rounding pass, which matters on a
        path that must stay well below one simulator call.
        """
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
            for row in range(rows.shape[0])
        ]

    def _key(self, netlist: Netlist) -> bytes:
        """The key of one netlist: :meth:`keys` on its single row."""
        return self.keys(netlist.name, netlist.parameter_array()[np.newaxis])[0]

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def lookup(self, key: bytes) -> Optional[SimulationResult]:
        """A copy of the result stored under ``key``, or ``None`` on a miss.

        A hit is counted and refreshes the entry's LRU position.  A miss
        counts nothing here: whoever produces the result counts it (the
        base :meth:`_simulate_miss` as one of ``stats.misses``).
        """
        cached = self._entries.get(key)
        if cached is None:
            return None
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return self._copy(cached)

    def store(self, key: bytes, result: SimulationResult) -> None:
        """Memoize a miss's result, evicting the least-recently-used entry when full."""
        self._entries[key] = self._copy(result)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _copy(result: SimulationResult) -> SimulationResult:
        # Environments and baselines mutate/keep the spec dicts they receive;
        # fresh copies keep the memoized entry immutable.
        return SimulationResult(
            specs=dict(result.specs), details=dict(result.details), valid=result.valid
        )
