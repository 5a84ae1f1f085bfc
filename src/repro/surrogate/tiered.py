"""The three-tier resolving simulator: cache -> surrogate -> exact.

:class:`TieredSimulator` is the subsystem's front door.  It *is* a
:class:`~repro.parallel.SimulationCache` (every integration that
special-cases the cache — optimizer adapters, vector envs, the deployment
service — treats it identically), and it interposes two extra tiers in the
cache's miss hook:

1. **memory** — the inherited LRU table (exact and surrogate answers both
   memoize here; repeats are free either way);
2. **disk** — when a corpus directory is attached, the persistent entries
   written by any previous process (same format, same quantized keys, and
   the same shared decoder as :class:`~repro.parallel.DiskSimulationCache`);
3. **surrogate** — a trust-gated :class:`~repro.surrogate.SpecSurrogate`
   consult; only answers whose ensemble disagreement passes the calibrated
   gate are served (flagged ``details["surrogate"] == 1.0``);
4. **exact** — the wrapped simulator.  Every exact result flows *back* into
   the earlier tiers: it is memoized, persisted into the corpus directory,
   and buffered as a future surrogate training point (:meth:`refit`).

With no surrogate attached — or an attached-but-untrained one, or a gate
that never calibrated — every consult is rejected and the tier resolves
exactly like a plain (disk) cache: same results, same simulator call
sequence, bitwise-identical downstream numbers.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.circuits.netlist import ParameterLayout
from repro.parallel.cache import DEFAULT_CACHE_SIZE, DEFAULT_KEY_DIGITS, SimulationCache
from repro.parallel.disk_cache import entry_path, read_disk_entry, write_disk_entry
from repro.simulation.base import CircuitSimulator, SimulationResult
from repro.surrogate.dataset import SurrogateDataset
from repro.surrogate.model import SpecSurrogate, SurrogateConfig
from repro.surrogate.trainer import TrainReport, load_surrogate, train_surrogate


class TieredSimulator(SimulationCache):
    """Cache -> surrogate -> exact resolving :class:`CircuitSimulator`.

    Parameters
    ----------
    simulator:
        The exact simulator (the final authority; deterministic).
    surrogate:
        A trained :class:`SpecSurrogate`, a path to a checkpoint saved by
        :func:`~repro.surrogate.trainer.save_surrogate`, or ``None`` to
        start exact-only (a model can still be grown online via
        ``refit_interval``).
    directory:
        Optional persistent corpus directory (shared format with
        :class:`~repro.parallel.DiskSimulationCache`): exact results are
        persisted here and prior entries serve as disk hits.
    refit_interval:
        When set, the surrogate is (re)trained from the buffered exact
        results every ``refit_interval`` new valid points — the online
        closing of the loop.  ``None`` (default) never refits implicitly;
        :meth:`refit` can always be called by hand.
    config / seed:
        Training hyper-parameters and determinism seed used by refits.
    """

    def __init__(
        self,
        simulator: CircuitSimulator,
        surrogate: Union[SpecSurrogate, str, os.PathLike, None] = None,
        directory: Union[str, os.PathLike, None] = None,
        max_entries: int = DEFAULT_CACHE_SIZE,
        key_digits: int = DEFAULT_KEY_DIGITS,
        refit_interval: Optional[int] = None,
        config: Optional[SurrogateConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(simulator, max_entries=max_entries, key_digits=key_digits)
        if refit_interval is not None and refit_interval <= 0:
            raise ValueError("refit_interval must be positive (or None to disable)")
        if surrogate is not None and not isinstance(surrogate, SpecSurrogate):
            surrogate = load_surrogate(surrogate)
        self.surrogate: Optional[SpecSurrogate] = surrogate
        self.directory: Optional[Path] = None
        if directory is not None:
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
        self.refit_interval = refit_interval
        self.config = config or SurrogateConfig()
        self.seed = int(seed)
        # Exact (parameters -> specs) observations per circuit, awaiting the
        # next refit.  Only valid operating points are trainable.
        self._observations: Dict[str, List[Tuple[np.ndarray, Dict[str, float]]]] = {}
        self._observed_since_fit = 0
        self.last_report: Optional[TrainReport] = None

    # ------------------------------------------------------------------
    # CircuitSimulator protocol
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"tiered({self.simulator.name})"

    def _simulate_misses(
        self, layout: ParameterLayout, keys: List[bytes], rows: np.ndarray
    ) -> List[SimulationResult]:
        # One row at a time, in row order: an exact result can trigger a
        # refit, which changes the surrogate's answer for the next row.
        return [self._simulate_miss(layout, key, row) for key, row in zip(keys, rows)]

    def _simulate_miss(
        self, layout: ParameterLayout, key: bytes, parameters: np.ndarray
    ) -> SimulationResult:
        if self.directory is not None:
            entry = read_disk_entry(entry_path(self.directory, key))
            if entry is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return entry.result

        circuit = layout.name
        consulted = self._consultable(circuit, parameters)
        if consulted:
            specs, disagreement = self.surrogate.predict_one(parameters)
            if bool(self.surrogate.trusted(np.array([disagreement]))[0]):
                self.stats.surrogate_hits += 1
                # Flagged so downstream consumers (and the final-answer
                # guarantee in the baselines) can tell learned from exact.
                return SimulationResult(
                    specs=specs,
                    details={"surrogate": 1.0, "surrogate_disagreement": disagreement},
                    valid=True,
                )
            self.stats.trust_rejections += 1

        self.stats.misses += 1
        if consulted:
            self.stats.exact_fallbacks += 1
        result = self.simulator.simulate_rows(layout, parameters[None])[0]
        if self.directory is not None:
            write_disk_entry(
                entry_path(self.directory, key), result, circuit=circuit, parameters=parameters
            )
        self._observe(circuit, parameters, result)
        return result

    def _consultable(self, circuit: str, parameters: np.ndarray) -> bool:
        # A surrogate only ever answers for its own topology and parameter
        # layout; anything else is a plain exact call, not a rejection.
        return (
            self.surrogate is not None
            and self.surrogate.circuit == circuit
            and self.surrogate.num_inputs == parameters.size
        )

    # ------------------------------------------------------------------
    # Training-set feedback
    # ------------------------------------------------------------------
    def _observe(self, circuit: str, parameters: np.ndarray, result: SimulationResult) -> None:
        if not result.valid:
            return
        self._observations.setdefault(circuit, []).append(
            (np.array(parameters, dtype=np.float64), dict(result.specs))
        )
        self._observed_since_fit += 1
        if (
            self.refit_interval is not None
            and self._observed_since_fit >= self.refit_interval
            and self.num_observed() >= self.config.min_train_points
        ):
            self.refit()

    def num_observed(self, circuit: Optional[str] = None) -> int:
        """Buffered exact observations (for ``circuit``, or in total)."""
        if circuit is not None:
            return len(self._observations.get(circuit, []))
        return sum(len(rows) for rows in self._observations.values())

    def observed_dataset(self, circuit: Optional[str] = None) -> SurrogateDataset:
        """The buffered exact observations as a trainable dataset.

        ``circuit`` defaults to the attached surrogate's topology, else the
        most-observed one.  Raises ``ValueError`` when nothing was observed.
        """
        if circuit is None:
            if self.surrogate is not None and self.surrogate.circuit in self._observations:
                circuit = self.surrogate.circuit
            elif self._observations:
                circuit = max(self._observations, key=lambda name: len(self._observations[name]))
        rows = self._observations.get(circuit or "", [])
        if not rows:
            raise ValueError(f"no exact observations buffered for circuit {circuit!r}")
        spec_names = tuple(sorted(rows[0][1]))
        return SurrogateDataset(
            circuit=circuit,
            spec_names=spec_names,
            parameters=np.stack([parameters for parameters, _ in rows]),
            specs=np.array([[specs[name] for name in spec_names] for _, specs in rows]),
        )

    def refit(self, circuit: Optional[str] = None) -> Optional[TrainReport]:
        """(Re)train the surrogate from the buffered exact observations.

        Returns the training report, or ``None`` when the buffer holds fewer
        than ``config.min_train_points`` usable rows (the current surrogate —
        possibly none — is kept; an undertrained replacement would only be
        rejected by its own gate anyway).
        """
        self._observed_since_fit = 0
        try:
            dataset = self.observed_dataset(circuit)
        except ValueError:
            return None
        if len(dataset) < self.config.min_train_points:
            return None
        self.surrogate, report = train_surrogate(dataset, config=self.config, seed=self.seed)
        self.last_report = report
        return report
