"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-mna --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics.  The line before it is the run
record: the digest of the simulated outputs, the deterministic quality
metrics, the error rate, the unnormalized end-to-end figures and, for a
traced run, every layer's self time.

A run measures ``--seconds`` in eight chunks and times a fixed reference
computation (``hostspeed.py``) after set-up and after each chunk.  Every
end-to-end time, set-up included, is divided by the mean slowdown of the
reference over the run, which takes out most of the shared host's changes
in speed.

A traced run traces chunks in the order untraced, traced, traced, untraced,
twice, by installing span wrappers around the program's public calls, so a
drift in host speed reaches both halves alike.  The record keeps both
halves' throughput.  ``trace.overhead_pct`` is the spans recorded times the
measured cost of one wrapper, over the traced time, since the halves differ
by host noise more than by that cost.  Per-layer times are not normalized.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, wrapper_cost_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

#: Traced layers: (module, class, method, span name).
LAYERS = [
    ("repro.agents.ppo", "PPOTrainer", "update", "agents.ppo.update"),
    ("repro.agents.ppo", "PPOTrainer", "collect_episodes", "agents.ppo.collect"),
    ("repro.agents.policy", "ActorCriticPolicy", "evaluate_actions",
     "agents.policy.evaluate_actions"),
    ("repro.agents.policy", "ActorCriticPolicy", "act_batch", "agents.policy.act_batch"),
    ("repro.agents.policy", "ActorCriticPolicy", "select_action_batch",
     "agents.policy.select_action_batch"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.tensor.backward"),
    ("repro.nn.optim", "Adam", "step", "nn.optim.step"),
    ("repro.parallel.vector_env", "VectorCircuitEnv", "step", "parallel.vector_env.step"),
    ("repro.parallel.cache", "SimulationCache", "simulate", "simulation.cache"),
    # Every workload sizes the two-stage op-amp, so this is the exact simulator.
    ("repro.simulation.opamp_sim", "OpAmpSimulator", "simulate", "simulation.scalar"),
    ("repro.simulation.mna", "MnaCircuit", "ac_analysis", "simulation.mna.ac_analysis"),
    ("repro.api.optimizers", "GeneticOptimizer", "optimize", "baselines.ga.optimize"),
    ("repro.api.optimizers", "BayesianOptimizer", "optimize", "baselines.bo.optimize"),
    ("repro.serve.service", "DeploymentService", "serve_group", "serve.service.serve_group"),
]

#: Chunks a run measures in; see the module docstring.
CHUNKS = 8

#: Times ``import repro`` in a fresh interpreter, run from the checkout root.
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, 'src'); "
    "import repro; print(time.perf_counter() - start)"
)

#: Issue-level names of the generic end-to-end metrics, per workload.
ALIASES = {
    "train-mna": {"throughput_per_s": "train_episodes_per_s"},
    "serve-opamp": {
        "throughput_per_s": "serve_requests_per_s",
        "latency_p50_ms": "serve_latency_p50_ms",
        "latency_p90_ms": "serve_latency_p90_ms",
    },
    "size-mna": {"throughput_per_s": "size_sims_per_s"},
}


def install(tracer) -> None:
    import importlib

    for module, owner, method, name in LAYERS:
        tracer.wrap(getattr(importlib.import_module(module), owner), method, name)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(phase, setup_s: float) -> dict:
    return {
        "throughput_per_s": ratio(phase.items, phase.seconds),
        "latency_p50_ms": percentile(phase.latencies_ms, 50),
        "latency_p90_ms": percentile(phase.latencies_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, phase, counters: dict) -> dict:
    table = tracer.layers()
    per_item = ratio(1.0, phase.items)

    def seconds(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0) * per_item

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0) * per_item

    def self_seconds(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) * per_item

    sim_calls, sim_s = tracer.outermost(("simulation.cache", "simulation.scalar"))
    tracing_s = len(tracer.spans) * wrapper_cost_s()
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    return {
        "agents.ppo.update_s": seconds("agents.ppo.update"),
        "agents.ppo.collect_s": seconds("agents.ppo.collect"),
        "agents.policy.evaluate_actions_calls": calls("agents.policy.evaluate_actions"),
        "agents.policy.evaluate_actions_s": seconds("agents.policy.evaluate_actions"),
        "agents.policy.act_batch_s": seconds("agents.policy.act_batch"),
        "agents.policy.select_action_batch_s": seconds("agents.policy.select_action_batch"),
        "nn.tensor.backward_s": seconds("nn.tensor.backward"),
        "nn.optim.step_s": seconds("nn.optim.step"),
        "parallel.vector_env.step_s": seconds("parallel.vector_env.step"),
        "compile.fallback_steps": counters.get("fallback_steps", 0),
        "simulation.scalar_calls": calls("simulation.scalar"),
        "simulation.scalar_s": seconds("simulation.scalar"),
        "simulation.calls": sim_calls * per_item,
        "simulation.simulate_s": sim_s * per_item,
        "simulation.mna.ac_analysis_calls": calls("simulation.mna.ac_analysis"),
        "simulation.mna.ac_analysis_s": seconds("simulation.mna.ac_analysis"),
        # An optimizer's only traced children are its simulations.
        "baselines.ga.search_s": self_seconds("baselines.ga.optimize"),
        "baselines.bo.search_s": self_seconds("baselines.bo.optimize"),
        "parallel.cache.hit_rate": ratio(counters.get("cache_hits", 0), lookups),
        "parallel.cache.misses": counters.get("cache_misses", 0) * per_item,
        "serve.gateway.queue_wait_ms_p50": percentile(phase.queue_waits_ms, 50),
        "serve.gateway.mean_coalesce": ratio(
            counters.get("coalesced", 0), counters.get("batches", 0)
        ),
        "serve.gateway.full_flushes": counters.get("full_flushes", 0) * per_item,
        "serve.gateway.deadline_flushes": counters.get("deadline_flushes", 0) * per_item,
        "serve.service.serve_s": seconds("serve.service.serve_group"),
        "trace.overhead_pct": 100.0 * ratio(tracing_s, phase.seconds - tracing_s),
    }


def execute(workload, seconds: float, trace: bool, import_s: float = 0.0):
    """Set up, measure and check one workload; returns ``(record, result)``.

    ``result`` is the contract line: ``correct``, ``attempted``, ``failed``
    and the end-to-end (or, with ``trace``, the per-layer) metrics.
    """
    # Imported here, after ``main`` has limited numpy to one thread.
    from hostspeed import HostSpeed
    from workloads import Phase

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    tracer = Tracer()
    host = HostSpeed()
    chunks = []  # (traced, phase) per chunk
    counters = {}
    try:
        workload.setup()
        host.sample()
        measured = 0.0
        while len(chunks) < CHUNKS or not workload.complete():
            traced = trace and len(chunks) % 4 in (1, 2)
            # A chunk that overran (a work item is not cut short) shortens
            # the ones after it, so the run still measures about ``seconds``.
            chunk_s = max(seconds - measured, 0.0) / max(CHUNKS - len(chunks), 1)
            if traced:
                install(tracer)
                before = workload.counters()
                try:
                    part = workload.measure(chunk_s, tracer)
                finally:
                    tracer.uninstall()
                after = workload.counters()
                for key in after:
                    counters[key] = counters.get(key, 0) + after[key] - before[key]
            else:
                part = workload.measure(chunk_s)
            measured += part.seconds
            host.sample()
            chunks.append((traced, part))
        checks = workload.checks()
        record = workload.record()
    finally:
        workload.close()

    slowdown = statistics.mean(host.samples)

    def merged(traced: bool, normalized: bool) -> Phase:
        phase = Phase()
        for chunk_traced, part in chunks:
            if chunk_traced == traced:
                phase.add(part.scaled(slowdown) if normalized else part)
        return phase

    raw_setup_s = import_s + statistics.median(workload.setup_samples)
    phase = merged(False, normalized=True)
    e2e = end_to_end(phase, raw_setup_s / slowdown)
    if trace:
        metrics = per_layer(tracer, merged(True, normalized=False), counters)
        section = "per_layer"
    else:
        metrics = e2e
        section = "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {section}")

    failed_checks = [name for name, passed in checks if not passed]
    attempted = sum(part.operations for _, part in chunks) + len(checks)
    failed = sum(part.failed for _, part in chunks) + len(failed_checks)
    record.update({
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "items": phase.items,
        "measured_s": measured,
        "latency_samples": len(phase.latencies_ms),
        "error_rate": ratio(failed, attempted),
        "failed_checks": failed_checks[:10],
        "setup_samples_s": workload.setup_samples,
        "import_s": import_s,
        "host_slowdown": host.samples,
        "unnormalized": end_to_end(merged(False, normalized=False), raw_setup_s),
    })
    if len(phase.latencies_ms) >= 1000:
        record["latency_p99_ms"] = percentile(phase.latencies_ms, 99)
    for generic, alias in ALIASES[workload.name].items():
        record[alias] = e2e[generic]
    if trace:
        import workloads

        record["layers"] = tracer.layers()
        traced_phase = merged(True, normalized=True)
        record["traced_throughput_per_s"] = ratio(traced_phase.items, traced_phase.seconds)
        spans = workloads.OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return record, result


def import_seconds(first_s: float) -> float:
    """Median of ``first_s`` and two more timed imports in fresh interpreters."""
    samples = [first_s]
    for _ in range(2):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    started = time.perf_counter()
    # At most one BLAS/OpenMP thread; numpy reads these when first imported.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - timed as part of set-up

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    import_s = import_seconds(time.perf_counter() - started)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    record, result = execute(workload, args.seconds, bool(args.trace), import_s)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
