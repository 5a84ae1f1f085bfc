"""Persistent on-disk tier for the simulation cache.

The in-memory :class:`~repro.parallel.cache.SimulationCache` dies with its
process, which wastes exactly the repeats an experiment *sweep* produces:
every worker process re-simulates the shared center sizing, and re-running a
sweep (new seeds, a tweaked optimizer, a resumed run) re-simulates every
design point the previous run already evaluated.

:class:`DiskSimulationCache` adds a directory-backed tier underneath the LRU
table, using the *same quantized keys* (the exact binary-mantissa
quantization of ``SimulationCache._key``), so an entry written by any process
at any time is a hit for every later process pointed at the same directory:

* lookup order is memory -> disk -> simulator; disk hits are promoted into
  the in-memory LRU;
* every entry is one small JSON file named by the hex digest of its key,
  written atomically (``os.replace``) so concurrent workers never observe a
  torn entry — the worst interleaving is two processes simulating the same
  point once each;
* unreadable or corrupt entry files are treated as misses and overwritten;
* ``max_disk_entries`` bounds the directory (oldest entries by modification
  time are pruned once the bound is exceeded; ``None`` means unbounded).

The wrapper still satisfies the :class:`~repro.simulation.base.CircuitSimulator`
protocol and still *is* a :class:`SimulationCache`, so every integration that
special-cases the in-memory cache (optimizer adapters, vector envs) treats
the persistent tier identically.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.circuits.netlist import Netlist
from repro.parallel.cache import DEFAULT_CACHE_SIZE, DEFAULT_KEY_DIGITS, SimulationCache
from repro.simulation.base import CircuitSimulator, SimulationResult
from repro.utils import atomic_write_json

#: How many writes between directory-size checks when ``max_disk_entries``
#: is set (a full listdir per write would be quadratic in sweep size).
PRUNE_CHECK_INTERVAL = 64


@dataclass
class DiskEntry:
    """One decoded persistent cache entry.

    ``circuit`` and ``parameters`` record the design point that produced the
    result (the netlist name and its full ``parameter_array()``), making the
    directory a harvestable (parameters -> specs) corpus for
    :mod:`repro.surrogate`.  Entries written before the corpus fields existed
    decode with both set to ``None``; the cache still serves them.
    """

    result: SimulationResult
    circuit: Optional[str] = None
    parameters: Optional[np.ndarray] = None


def read_disk_entry(path: Union[str, os.PathLike]) -> Optional[DiskEntry]:
    """Decode one entry file; ``None`` for a missing/torn/hand-edited file.

    This is the single corrupt-entry policy shared by cache lookups (a bad
    file is a miss, healed by the atomic rewrite after the fresh simulation)
    and by the :mod:`repro.surrogate` corpus harvester (a bad file is skipped
    and reported) — one decoder, so the two paths can never disagree on what
    counts as readable.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        result = SimulationResult(
            specs={str(k): float(v) for k, v in data["specs"].items()},
            details={str(k): float(v) for k, v in data.get("details", {}).items()},
            valid=bool(data.get("valid", True)),
        )
        parameters = data.get("parameters")
        if parameters is not None:
            parameters = np.asarray([float(v) for v in parameters], dtype=np.float64)
        circuit = data.get("circuit")
        return DiskEntry(
            result=result,
            circuit=None if circuit is None else str(circuit),
            parameters=parameters,
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def write_disk_entry(
    path: Union[str, os.PathLike],
    result: SimulationResult,
    circuit: Optional[str] = None,
    parameters: Optional[np.ndarray] = None,
) -> None:
    """Atomically publish one entry file (complete even with concurrent writers)."""
    payload = {
        "specs": {str(k): float(v) for k, v in result.specs.items()},
        "details": _float_dict(result.details),
        "valid": bool(result.valid),
    }
    if circuit is not None:
        payload["circuit"] = str(circuit)
    if parameters is not None:
        # repr-exact floats: json round-trips Python floats bitwise, so the
        # harvested corpus reproduces the simulated design points exactly.
        payload["parameters"] = [float(v) for v in np.asarray(parameters).ravel()]
    atomic_write_json(path, payload)


def entry_path(directory: Union[str, os.PathLike], key: bytes) -> Path:
    """Entry file for a quantized cache key (shared by every disk-backed tier).

    The raw key is the full quantized parameter snapshot (hundreds of bytes);
    the file name is its SHA-256, keeping names filesystem-safe while
    preserving the no-false-sharing property of the key.
    """
    return Path(directory) / f"{hashlib.sha256(key).hexdigest()}.json"


def iter_disk_entries(
    directory: Union[str, os.PathLike],
) -> Iterator[Tuple[Path, Optional[DiskEntry]]]:
    """Yield ``(path, entry)`` for every entry file, ``entry=None`` when corrupt.

    Files are visited in sorted-name order so a harvest over a fixed
    directory is deterministic regardless of filesystem listing order.
    """
    for path in sorted(Path(directory).glob("*.json")):
        yield path, read_disk_entry(path)


class DiskSimulationCache(SimulationCache):
    """Two-tier (memory LRU + directory) memoizing simulator wrapper.

    Parameters
    ----------
    simulator:
        The deterministic simulator to wrap.
    directory:
        Directory holding the persistent entries (created if missing).
        Point several workers — or several runs — at the same directory to
        share results across processes and across time.
    max_entries:
        Capacity of the in-memory LRU tier (as in :class:`SimulationCache`).
    key_digits:
        Key resolution in decimal significant digits (as in
        :class:`SimulationCache`; both tiers share one key).
    max_disk_entries:
        Upper bound on persisted entries; the oldest files are pruned when
        the bound is exceeded.  ``None`` (default) keeps everything.
    """

    def __init__(
        self,
        simulator: CircuitSimulator,
        directory: Union[str, os.PathLike],
        max_entries: int = DEFAULT_CACHE_SIZE,
        key_digits: int = DEFAULT_KEY_DIGITS,
        max_disk_entries: Optional[int] = None,
    ) -> None:
        super().__init__(simulator, max_entries=max_entries, key_digits=key_digits)
        if max_disk_entries is not None and max_disk_entries <= 0:
            raise ValueError("max_disk_entries must be positive (or None for unbounded)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_disk_entries = max_disk_entries
        self._writes_since_prune = 0

    # ------------------------------------------------------------------
    # Tier plumbing
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"disk_cached({self.simulator.name})"

    def _simulate_misses(
        self, keys: List[bytes], netlists: List[Netlist]
    ) -> List[SimulationResult]:
        # One row at a time, in row order: a row's file write is what a
        # later row's disk read sees, exactly as in a loop of ``simulate``.
        return [self._simulate_miss(key, netlist) for key, netlist in zip(keys, netlists)]

    def _simulate_miss(self, key: bytes, netlist: Netlist) -> SimulationResult:
        path = self._entry_path(key)
        cached = self._read_entry(path)
        if cached is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return cached
        self.stats.misses += 1
        result = self.simulator.simulate(netlist)
        self._write_entry(path, result, netlist)
        return result

    def _entry_path(self, key: bytes) -> Path:
        return entry_path(self.directory, key)

    @staticmethod
    def _read_entry(path: Path) -> Optional[SimulationResult]:
        # Missing, torn, or hand-edited entries (including wrong-typed fields
        # like "specs": null) decode to None — a miss; the fresh simulation
        # below rewrites the file atomically.
        entry = read_disk_entry(path)
        return None if entry is None else entry.result

    def _write_entry(self, path: Path, result: SimulationResult, netlist: Netlist) -> None:
        # Atomic replace keeps every published entry complete even with
        # concurrent writers on the same key (last writer wins; all writers
        # hold the identical deterministic result anyway).  The design point
        # (circuit + parameter vector) rides along so the directory doubles
        # as the surrogate training corpus.
        write_disk_entry(path, result, circuit=netlist.name, parameters=netlist.parameter_array())
        self._writes_since_prune += 1
        if (
            self.max_disk_entries is not None
            and self._writes_since_prune >= PRUNE_CHECK_INTERVAL
        ):
            self.prune()

    # ------------------------------------------------------------------
    # Disk-tier management
    # ------------------------------------------------------------------
    def disk_entries(self) -> int:
        """Number of persisted entries currently in the directory."""
        return sum(1 for _ in self.directory.glob("*.json"))

    def prune(self) -> int:
        """Enforce ``max_disk_entries``, dropping the oldest files first.

        Returns the number of entries removed.  Called automatically every
        :data:`PRUNE_CHECK_INTERVAL` writes when a bound is set; safe to call
        by hand at any time.
        """
        self._writes_since_prune = 0
        if self.max_disk_entries is None:
            return 0

        def _mtime(path: Path) -> float:
            # A concurrent worker may unlink entries mid-sort; a vanished
            # file sorts oldest and its unlink below is already tolerated.
            try:
                return path.stat().st_mtime
            except OSError:
                return float("-inf")

        entries = sorted(self.directory.glob("*.json"), key=_mtime)
        removed = 0
        for path in entries[: max(0, len(entries) - self.max_disk_entries)]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass  # another worker pruned it first
        return removed


def _float_dict(mapping) -> dict:
    """Best-effort float coercion for the free-form ``details`` dict."""
    coerced = {}
    for key, value in dict(mapping).items():
        try:
            coerced[str(key)] = float(value)
        except (TypeError, ValueError):
            continue  # non-numeric diagnostic; not worth failing the cache
    return coerced
