"""``repro.parallel`` — vectorized rollouts and simulation caching.

The scaling layer of the library: everything needed to evaluate *populations*
of candidate sizings in batches instead of one at a time.

* :class:`SimulationCache` — an LRU-memoizing wrapper around any
  :class:`~repro.simulation.base.CircuitSimulator`, keyed on quantized
  parameter vectors, so repeated candidate evaluations (population elites,
  shared reset sizings, revisited grid points) are simulated once.
* :class:`DiskSimulationCache` — the persistent tier: the same quantized
  keys backed by a directory of atomic JSON entries, shared across worker
  processes and across runs (the :mod:`repro.orchestrate` sweep runner's
  ``disk_cache`` option points every work unit at one directory).
* :class:`VectorCircuitEnv` — ``N`` circuit-design environments stepped as
  one batch behind stacked ``reset``/``step``, sharing one topology and one
  simulation cache, and producing
  :class:`~repro.env.spaces.BatchedObservation` batches for the policy's
  batched forward pass.

Front-door integration: ``repro.make_env("opamp-p2s-v0", num_envs=8)``
returns a :class:`VectorCircuitEnv` (``num_envs=1`` keeps returning the
sequential environment), and every optimizer accepts a ``vectorize`` knob
(``repro.OptimizerConfig(id="ppo", vectorize=8)``).
"""

from repro.parallel.cache import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_KEY_DIGITS,
    CacheStats,
    SimulationCache,
)
from repro.parallel.disk_cache import (
    DiskEntry,
    DiskSimulationCache,
    iter_disk_entries,
    read_disk_entry,
    write_disk_entry,
)
from repro.parallel.vector_env import VectorCircuitEnv

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_KEY_DIGITS",
    "DiskEntry",
    "DiskSimulationCache",
    "SimulationCache",
    "VectorCircuitEnv",
    "iter_disk_entries",
    "read_disk_entry",
    "write_disk_entry",
]
