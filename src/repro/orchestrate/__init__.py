"""``repro.orchestrate`` — process-parallel experiment orchestration.

The sweep layer of the library: a declarative (optimizers × envs × seeds)
grid, sharded into independent serializable work units, executed across a
``multiprocessing`` pool, and persisted into a content-addressed artifact
store that makes every sweep resumable.

::

    from repro.orchestrate import SweepConfig, run_sweep

    sweep = SweepConfig(
        optimizers=["random", "genetic"],
        envs=["opamp-p2s-v0", "common_source_lna-p2s-v0"],
        seeds=[0, 1],
        budget=60,
        disk_cache="sim_cache",          # persistent, shared across workers/runs
    )
    result = run_sweep(sweep, store="sweep_artifacts", workers=4)
    print(result.summary_table())
    run_sweep(sweep, store="sweep_artifacts")   # instant: all units skipped

CLI front door: ``python -m repro.run sweep sweep.json`` (also accepts a single
``RunConfig`` document).  Results are bit-identical for any worker count —
every unit's randomness derives from its own payload seed
(``np.random.SeedSequence.spawn`` over grid coordinates).
"""

from repro.orchestrate.pool import execute_units
from repro.orchestrate.runner import (
    ExecutionReport,
    SweepResult,
    execute_with_store,
    run_sweep,
)
from repro.orchestrate.store import ArtifactStore
from repro.orchestrate.sweep import DEFAULT_STORE_DIR, SweepConfig, sweep_from_document
from repro.orchestrate.units import DEFAULT_RUNNER, UnitRecord, WorkUnit
from repro.orchestrate.worker import (
    attach_disk_cache,
    execute_unit,
    resolve_runner,
    run_config_unit,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_RUNNER",
    "DEFAULT_STORE_DIR",
    "ExecutionReport",
    "SweepConfig",
    "SweepResult",
    "UnitRecord",
    "WorkUnit",
    "attach_disk_cache",
    "execute_unit",
    "execute_units",
    "execute_with_store",
    "resolve_runner",
    "run_config_unit",
    "run_sweep",
    "sweep_from_document",
]
