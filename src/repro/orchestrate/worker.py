"""Worker-side unit execution.

Everything in this module is a *top-level function over plain dicts*: the
pool pickles nothing but unit dictionaries, and the runner is re-resolved
from its dotted path inside the worker process, so units survive any
``multiprocessing`` start method (fork, forkserver, spawn).

The failure contract is central: :func:`execute_unit` converts *any*
exception a runner raises into a ``status="failed"`` record carrying the
full traceback.  A raising unit therefore never poisons the pool — sibling
units keep executing, the orchestrator persists the failure for inspection,
and a resumed sweep re-runs exactly the failed units.
"""

from __future__ import annotations

import importlib
import time
import traceback
from typing import Any, Callable, Dict, Mapping, Optional

from repro.orchestrate.units import DEFAULT_RUNNER, UnitRecord, WorkUnit


def resolve_runner(spec: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """Import ``"package.module:function"`` and return the function."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"runner must look like 'package.module:function', got {spec!r}")
    module = importlib.import_module(module_name)
    try:
        runner = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"module {module_name!r} has no attribute {attr!r}") from exc
    if not callable(runner):
        raise TypeError(f"runner {spec!r} is not callable")
    return runner


def execute_unit(unit_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one serialized :class:`WorkUnit`; never raises.

    Returns a :class:`~repro.orchestrate.units.UnitRecord` dict whose status
    reflects what happened; runner exceptions become ``"failed"`` records
    with the traceback in ``error``.
    """
    start = time.perf_counter()
    record: Dict[str, Any] = {
        "unit_id": unit_dict.get("unit_id", "?"),
        "key": unit_dict.get("key", ""),
        "runner": unit_dict.get("runner", DEFAULT_RUNNER),
        "payload": unit_dict.get("payload") or {},
        "result": None,
        "error": None,
    }
    try:
        runner = resolve_runner(record["runner"])
        arguments = dict(record["payload"])
        arguments.update(unit_dict.get("execution") or {})
        result = runner(arguments)
        record["status"] = "completed"
        record["result"] = result if result is None or isinstance(result, dict) else {
            "value": result
        }
    except Exception:
        record["status"] = "failed"
        record["error"] = traceback.format_exc()
    record["wall_time_s"] = time.perf_counter() - start
    return record


# ----------------------------------------------------------------------
# The default runner: one serialized RunConfig
# ----------------------------------------------------------------------
def attach_disk_cache(env, spec: Optional[Mapping[str, Any]]):
    """Interpose a :class:`repro.parallel.DiskSimulationCache` on ``env``.

    ``spec`` is ``{"dir": path, "max_disk_entries": int|None,
    "max_entries": int|None}``; None disables the persistent tier.  An
    in-memory cache the env already carries is unwrapped so both tiers never
    stack (the disk cache embeds its own LRU).  Returns the cache, or None.
    """
    from repro.parallel.cache import DEFAULT_CACHE_SIZE, SimulationCache
    from repro.parallel.disk_cache import DiskSimulationCache
    from repro.parallel.vector_env import VectorCircuitEnv

    if spec is None:
        return None
    spec = dict(spec)
    if "dir" not in spec:
        raise ValueError("disk_cache spec requires a 'dir' key")
    if isinstance(env, VectorCircuitEnv):
        simulator = env.envs[0].simulator
    else:
        simulator = env.simulator
    if isinstance(simulator, SimulationCache):
        simulator = simulator.simulator
    cache = DiskSimulationCache(
        simulator,
        directory=spec["dir"],
        max_entries=int(spec.get("max_entries") or DEFAULT_CACHE_SIZE),
        max_disk_entries=spec.get("max_disk_entries"),
    )
    if isinstance(env, VectorCircuitEnv):
        for sub_env in env.envs:
            sub_env.simulator = cache
        env.cache = cache
    else:
        env.simulator = cache
    return cache


def run_config_unit(arguments: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one serialized :class:`repro.api.RunConfig`.

    ``arguments["run"]`` is the RunConfig dict (the unit's identity);
    ``arguments["disk_cache"]`` (injected via the unit's ``execution``
    mapping) optionally points the run's simulator at a shared persistent
    cache directory.  Returns a JSON digest: the unified result summary, the
    full optimization trace, timing, and cache statistics.
    """
    from repro.api.configs import RunConfig

    config = RunConfig.from_dict(arguments["run"])
    env = config.env.build()
    cache = attach_disk_cache(env, arguments.get("disk_cache"))
    optimizer = config.optimizer.build()
    start = time.perf_counter()
    result = optimizer.optimize(
        env,
        budget=config.budget,
        seed=config.seed,
        target_specs=config.target_specs,
    )
    optimize_time = time.perf_counter() - start

    output: Dict[str, Any] = {
        "result": result.summary(),
        "trace": {
            "objective_values": [float(v) for v in result.trace.objective_values],
            "best_values": [float(v) for v in result.trace.best_values],
        },
        "optimize_time_s": optimize_time,
    }
    stats = result.metadata.get("simulation_cache")
    if stats is None and cache is not None:
        stats = cache.stats
    if stats is not None:
        output["cache"] = stats.to_dict()
    return output
