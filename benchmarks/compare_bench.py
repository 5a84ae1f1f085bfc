"""Benchmark-regression gate: diff a fresh bench.json against the baseline.

CI's ``benchmarks-smoke`` job runs the reduced benchmark suite with
``--benchmark-json=bench.json`` and then::

    python benchmarks/compare_bench.py BENCH_baseline.json bench.json

The gate fails (exit 1) when any benchmark's throughput (pytest-benchmark's
``stats.ops``, operations per second) regresses by more than ``--threshold``
(default 25 %) relative to the committed ``BENCH_baseline.json``.  Speedups
and sub-threshold drift only update the printed trajectory; benchmarks added
since the baseline are reported as new (not failures), and benchmarks that
*disappeared* fail the gate — deleting a workload should be deliberate
(regenerate the baseline in the same PR).

Hardware normalization: raw ops ratios are divided by the *median* ratio
across the suite before gating, so a uniformly faster or slower machine
(baseline measured on one box, CI measuring on another, runner-generation
churn) cancels out and only benchmarks that regressed *relative to the rest
of the suite* trip the gate.  The deliberate blind spot: a change that
slows every benchmark by the same factor is attributed to hardware — pass
``--absolute`` to gate on raw ratios instead, appropriate once the baseline
is regenerated on the runner class that executes the gate.

Numeric ``extra_info`` metrics (the per-benchmark measured quantities like
``cached_steps_per_s`` or ``warm_speedup``) are printed for context but not
gated by the regression threshold: they track shapes and ratios whose
variance CI runners cannot bound as tightly as whole-benchmark wall-clock.
Two opt-in modes consume them instead:

``--floor "numerator/denominator>=X"`` (repeatable) asserts a *ratio* floor
over ``extra_info`` metrics: every fresh benchmark reporting both metrics
must satisfy ``numerator / denominator >= X``.  Ratios of two quantities
measured in the same process cancel machine speed, so floors hold across
runner generations where absolute throughput would not — e.g.
``--floor "compiled_steps_per_s/interpreted_steps_per_s>=0.8"`` is the
batched-step speedup contract.  A floor that matches no benchmark is
a configuration error (exit 2), not a silent pass.

``--append-history PATH`` appends one JSON line per run — commit SHA
(``--commit``, else ``$GITHUB_SHA``, else ``git rev-parse HEAD``), the
suite median ratio, and each benchmark's ops / normalized ratio / numeric
extra_info — so the uploaded history file accumulates a per-commit
trajectory that plots without re-parsing full pytest-benchmark documents.

Update the baseline::

    python -m pytest benchmarks -q --benchmark-json=BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple


def load_benchmarks(path: str) -> Dict[str, dict]:
    """fullname -> benchmark entry of one pytest-benchmark JSON document."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ValueError(f"{path}: not a pytest-benchmark JSON document")
    return {entry["fullname"]: entry for entry in benchmarks}


def throughput(entry: dict) -> Optional[float]:
    ops = entry.get("stats", {}).get("ops")
    return float(ops) if ops else None


def numeric_extra_info(entry: dict) -> Dict[str, float]:
    return {
        key: float(value)
        for key, value in entry.get("extra_info", {}).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def parse_floor(spec: str) -> Tuple[str, str, float]:
    """Parse ``numerator/denominator>=X`` into its three parts."""
    match = re.fullmatch(r"\s*([\w.-]+)\s*/\s*([\w.-]+)\s*>=\s*([0-9.eE+-]+)\s*", spec)
    if match is None:
        raise ValueError(
            f"invalid --floor {spec!r} (expected 'numerator/denominator>=X')"
        )
    return match.group(1), match.group(2), float(match.group(3))


def check_floors(fresh: Dict[str, dict], floors: Sequence[Tuple[str, str, float]]) -> int:
    """Assert extra_info ratio floors; return the number of violations.

    Raises ``ValueError`` when a floor matches no benchmark: a misspelled
    metric name must fail the gate loudly, not pass it vacuously.
    """
    violations = 0
    for numerator, denominator, minimum in floors:
        matched = 0
        for name in sorted(fresh):
            extra = numeric_extra_info(fresh[name])
            if numerator not in extra or denominator not in extra:
                continue
            matched += 1
            if extra[denominator] == 0:
                print(f"{name}: {denominator} is zero; cannot check floor  FAIL")
                violations += 1
                continue
            ratio = extra[numerator] / extra[denominator]
            verdict = "ok" if ratio >= minimum else "FAIL"
            print(f"floor {numerator}/{denominator}>={minimum:g}: "
                  f"{name} measured {ratio:.2f}x  {verdict}")
            if ratio < minimum:
                violations += 1
        if matched == 0:
            raise ValueError(
                f"--floor {numerator}/{denominator}>={minimum:g} matched no "
                "benchmark (misspelled metric, or the workload was removed?)"
            )
    return violations


def resolve_commit(explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    from_env = os.environ.get("GITHUB_SHA", "").strip()
    if from_env:
        return from_env
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if probe.returncode == 0:
            return probe.stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_history(
    path: str,
    commit: str,
    fresh: Dict[str, dict],
    ratios: Dict[str, float],
    scale: float,
) -> None:
    """Append one JSON line summarizing this run, keyed by commit SHA."""
    record = {
        "commit": commit,
        "median_ratio": round(scale, 6),
        "benchmarks": {
            name: {
                "ops": throughput(entry),
                "normalized_ratio": (
                    round(ratios[name] / scale, 6) if name in ratios else None
                ),
                "extra_info": numeric_extra_info(entry),
            }
            for name, entry in sorted(fresh.items())
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended history record for {commit[:12]} to {path}")


def compare(
    baseline: Dict[str, dict],
    fresh: Dict[str, dict],
    threshold: float,
    absolute: bool = False,
) -> Tuple[int, Dict[str, float], float]:
    """Print the trajectory; return (violations, raw ratios, median scale)."""
    ratios = {}
    for name in set(baseline) & set(fresh):
        base_ops, fresh_ops = throughput(baseline[name]), throughput(fresh[name])
        if base_ops and fresh_ops:
            ratios[name] = fresh_ops / base_ops
    # The suite-wide median ratio estimates the machine-speed difference
    # between the baseline box and this one; gating on the normalized ratio
    # catches benchmarks that regressed relative to the rest of the suite.
    scale = 1.0 if absolute or not ratios else median(ratios.values())
    if not absolute and ratios:
        print(f"suite median throughput ratio {scale:.2f}x "
              "(machine-speed normalization; --absolute disables)")

    violations = 0
    width = max((len(name) for name in baseline), default=20) + 2
    print(f"{'benchmark':<{width}s} {'baseline':>12s} {'fresh':>12s} {'rel':>8s}")
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            print(f"{name:<{width}s} {'(missing from fresh run)':>34s}  FAIL")
            violations += 1
            continue
        if name not in baseline:
            print(f"{name:<{width}s} {'(new, no baseline)':>34s}")
            continue
        if name not in ratios:
            print(f"{name:<{width}s} {'(no throughput stats)':>34s}")
            continue
        relative = ratios[name] / scale
        verdict = ""
        if relative < 1.0 - threshold:
            verdict = f"  FAIL (>{threshold:.0%} regression)"
            violations += 1
        base_ops, fresh_ops = throughput(baseline[name]), throughput(fresh[name])
        print(f"{name:<{width}s} {base_ops:>10.3f}/s {fresh_ops:>10.3f}/s "
              f"{relative:>7.2f}x{verdict}")
        extra = numeric_extra_info(fresh[name])
        if extra:
            rendered = ", ".join(f"{key}={value:g}" for key, value in sorted(extra.items()))
            print(f"{'':<{width}s}   {rendered}")
    return violations, ratios, scale


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (BENCH_baseline.json)")
    parser.add_argument("fresh", help="freshly measured JSON (bench.json)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum tolerated throughput regression "
                             "(fraction, default 0.25)")
    parser.add_argument("--absolute", action="store_true",
                        help="gate on raw ops ratios instead of "
                             "median-normalized ones (requires a baseline "
                             "measured on the same runner class)")
    parser.add_argument("--floor", action="append", default=[], metavar="NUM/DEN>=X",
                        help="assert an extra_info ratio floor, e.g. "
                             "'compiled_steps_per_s/interpreted_steps_per_s>=0.8' "
                             "(repeatable; applies to every fresh benchmark "
                             "reporting both metrics)")
    parser.add_argument("--append-history", metavar="PATH",
                        help="append one JSON line (commit SHA, normalized "
                             "ratios, numeric extra_info) to this JSONL file")
    parser.add_argument("--commit",
                        help="commit SHA for --append-history (default: "
                             "$GITHUB_SHA, then `git rev-parse HEAD`)")
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        print("error: --threshold must be a fraction in (0, 1)", file=sys.stderr)
        return 2
    try:
        floors: List[Tuple[str, str, float]] = [parse_floor(s) for s in args.floor]
        baseline = load_benchmarks(args.baseline)
        fresh = load_benchmarks(args.fresh)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    violations, ratios, scale = compare(
        baseline, fresh, args.threshold, absolute=args.absolute
    )
    try:
        floor_violations = check_floors(fresh, floors) if floors else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # History is appended regardless of the verdict: a regressed run is
    # exactly the kind of point the trajectory should show.
    if args.append_history:
        append_history(
            args.append_history, resolve_commit(args.commit), fresh, ratios, scale
        )

    if violations:
        print(f"\n{violations} benchmark(s) regressed beyond the "
              f"{args.threshold:.0%} threshold", file=sys.stderr)
    if floor_violations:
        print(f"{floor_violations} extra_info floor violation(s)", file=sys.stderr)
    if violations or floor_violations:
        return 1
    checked = f"{len(fresh)} benchmarks checked"
    if floors:
        checked += f", {len(floors)} floor(s) held"
    print(f"\nno regressions beyond {args.threshold:.0%} ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
