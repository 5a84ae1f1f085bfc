"""``python -m repro.run`` — the experiment and serving command line.

One front door, six subcommands (each with its own ``--help``)::

    python -m repro.run sweep sweep.json [--workers N] [--expand] ...
    python -m repro.run deploy ckpt/latest.npz requests.json [--batch-size N]
    python -m repro.run serve ckpt/latest.npz (--stdin | --port N) ...
    python -m repro.run surrogate {train,eval} ...
    python -m repro.run analyze src/ [--strict] [--output report.json]
    python -m repro.run yield [--circuits a,b] [--samples N] [--workers N] ...

``sweep`` drives a whole experiment grid from one JSON document — either a
:class:`repro.orchestrate.SweepConfig` (grid) or a single
:class:`repro.api.RunConfig` (detected by its ``env``/``optimizer`` keys and
wrapped as a one-unit sweep with its literal seed).  CLI flags override the
document's runtime knobs (``workers``, ``store``, ``disk_cache``); the
scientific content of the sweep lives only in the JSON.

``deploy`` runs a finite request document against a checkpoint; ``serve``
keeps the async gateway running over NDJSON or HTTP (both documented in
:mod:`repro.serve.cli`); ``surrogate`` trains/evaluates the learned
simulation tier (:mod:`repro.surrogate.cli`); ``analyze`` lints the tree
against the project's invariant rules (:mod:`repro.analysis.cli`);
``yield`` runs the Monte-Carlo PVT yield report
(:mod:`repro.experiments.yield_cli`).  The serving subcommands pull in the
nn/agents stack only when used.

Exit status: 0 on success (for ``sweep``: every unit completed or was
skipped via the artifact store), 1 when any sweep unit failed, 2 on bad
input or an unknown command.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

COMMANDS = ("sweep", "deploy", "serve", "surrogate", "analyze", "yield")

_TOP_HELP = """\
usage: python -m repro.run COMMAND [options]

commands:
  sweep      run an experiment sweep (or a single run config) from a JSON document
  deploy     deploy a checkpointed policy over a batch of specification targets
  serve      run the async serving gateway (NDJSON over stdin/stdout, or HTTP)
  surrogate  train or evaluate the learned simulation surrogate
  analyze    lint the tree against the project's invariant rules
  yield      Monte-Carlo PVT yield report over the circuit zoo

Run 'python -m repro.run COMMAND --help' for per-command options.
"""


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run sweep",
        description="Run an experiment sweep (or a single run config) from a JSON document.",
    )
    parser.add_argument("config", help="path to a SweepConfig or RunConfig JSON document")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: the document's 'workers', else 1)")
    parser.add_argument("--store", default=None,
                        help="artifact-store directory (default: the document's 'store')")
    parser.add_argument("--disk-cache", default=None, dest="disk_cache",
                        help="persistent simulation-cache directory "
                             "(default: the document's 'disk_cache', else disabled)")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-execute every unit even when its artifact exists")
    parser.add_argument("--expand", action="store_true",
                        help="print the expanded unit list and exit without running")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-unit progress lines (summary still prints)")
    return parser


def load_sweep(path: str):
    from repro.orchestrate import sweep_from_document

    with open(path, "r", encoding="utf-8") as handle:
        return sweep_from_document(json.load(handle))


def main_sweep(argv: Optional[Sequence[str]] = None) -> int:
    from repro.orchestrate import UnitRecord, run_sweep

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        sweep = load_sweep(args.config)
        if args.disk_cache is not None:
            sweep.disk_cache = args.disk_cache
        if args.expand:
            # The only eager expansion: the run path below leaves it to
            # run_sweep (expanding twice would re-derive every unit seed).
            for unit in sweep.expand():
                print(f"{unit.unit_id:<44s} seed={unit.payload['run']['seed']:<12d} "
                      f"key={unit.key()[:12]}")
            print(f"{sweep.num_units} units "
                  f"({len(sweep.optimizers)} optimizers x {len(sweep.envs)} envs "
                  f"x {len(sweep.seeds)} seeds)")
            return 0
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: could not load sweep from {args.config!r}: {exc}", file=sys.stderr)
        return 2

    total = sweep.num_units
    progress_state = {"done": 0}

    def on_progress(event: str, record: UnitRecord) -> None:
        progress_state["done"] += 1
        if args.quiet:
            return
        label = {"skipped": "skipped (artifact store)", "completed": "completed",
                 "failed": "FAILED"}[event]
        print(f"[{progress_state['done']}/{total}] {record.unit_id:<44s} "
              f"{label} ({record.wall_time_s:.2f}s)", flush=True)

    name = sweep.name or "sweep"
    print(f"{name}: {total} units -> store {args.store or sweep.store!r}"
          + (f", disk cache {sweep.disk_cache!r}" if sweep.disk_cache else ""))
    result = run_sweep(
        sweep,
        store=args.store,
        workers=args.workers,
        resume=not args.no_resume,
        on_progress=on_progress,
    )
    print()
    print(result.summary_table())
    for unit_id in result.failed:
        record = result.record(unit_id)
        last_line = (record.error or "").strip().splitlines()[-1:] or ["unknown error"]
        print(f"failed: {unit_id}: {last_line[0]}", file=sys.stderr)
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv: List[str] = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_TOP_HELP, end="")
        return 0
    command, rest = argv[0], argv[1:]
    if command == "sweep":
        return main_sweep(rest)
    if command == "deploy":
        # Deployment serving is its own parser (and pulls in the nn/agents
        # stack only when used).
        from repro.serve.cli import main_deploy

        return main_deploy(rest)
    if command == "serve":
        from repro.serve.cli import main_serve

        return main_serve(rest)
    if command == "surrogate":
        # Surrogate training/evaluation (pulls in the nn stack only when used).
        from repro.surrogate.cli import main_surrogate

        return main_surrogate(rest)
    if command == "analyze":
        from repro.analysis.cli import main_analyze

        return main_analyze(rest)
    if command == "yield":
        # Monte-Carlo PVT yield report (pure numpy; loads the experiment
        # harness only when used).
        from repro.experiments.yield_cli import main_yield

        return main_yield(rest)
    print(
        f"error: unknown command {command!r} (commands: {', '.join(COMMANDS)})",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())
