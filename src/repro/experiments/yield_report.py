"""Monte-Carlo yield report over the behavioural process/temperature space.

The corner environments train against a worst-case five-corner sweep; this
harness answers the complementary statistical question — *what fraction of
process/temperature space does a sizing actually satisfy its targets in?*
For each circuit it draws ``samples`` Monte-Carlo process points (threshold
and mobility scale factors uniform over the corner-kit ±10 % range, junction
temperature uniform over −40…125 °C), evaluates the benchmark's center
sizing at every point, and reports the pass fraction overall and per
specification.

Each Monte-Carlo point is a :class:`~repro.corners.model.Corner`, so a
whole shard is just a :class:`~repro.corners.simulator.CornerSimulator`
over a ``samples``-corner :class:`CornerSet` — on the op-amp and CM-OTA
the corner lanes evaluate an entire shard in one ``simulate_rows`` call
(one stacked MNA sweep on the MNA methods).

Orchestration mirrors :mod:`repro.experiments.transfer_matrix`: the report
shards by (circuit, shard-index) into :class:`~repro.orchestrate.units.WorkUnit`
objects executed through :func:`repro.orchestrate.runner.execute_with_store`,
so ``workers=k`` fans shards over the process pool and a ``store=...``
directory makes the report resumable through the
:class:`~repro.orchestrate.store.ArtifactStore`.  The CLI front end is
``python -m repro.run yield`` (:mod:`repro.experiments.yield_cli`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.circuits.library import BENCHMARK_BUILDERS
from repro.circuits.specs import Objective
from repro.corners.model import (
    COLD_TEMPERATURE_C,
    Corner,
    CornerSet,
    FAST_VTH_SCALE,
    HOT_TEMPERATURE_C,
    SLOW_VTH_SCALE,
)
from repro.corners.simulator import CornerSimulator
from repro.orchestrate.runner import execute_with_store
from repro.orchestrate.units import WorkUnit
from repro.simulation.folded_cascode_sim import FoldedCascodeSimulator
from repro.simulation.lna_sim import LnaSimulator
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.ota_sim import CmOtaSimulator
from repro.simulation.pa_sim import RfPaFineSimulator

#: Circuits swept by default: the full five-topology zoo.
ZOO_YIELD_CIRCUITS = (
    "two_stage_opamp",
    "folded_cascode",
    "current_mirror_ota",
    "common_source_lna",
    "rf_pa",
)

#: Nominal simulator per circuit (the ``*-corners-v0`` fidelity choices).
_SIMULATOR_FACTORIES = {
    "two_stage_opamp": OpAmpSimulator,
    "folded_cascode": FoldedCascodeSimulator,
    "current_mirror_ota": CmOtaSimulator,
    "common_source_lna": LnaSimulator,
    "rf_pa": RfPaFineSimulator,
}


def default_targets(circuit: str) -> Dict[str, float]:
    """The least demanding end of each specification's Table-1 sampling range.

    The mildest target group the benchmark would ever sample.  With such
    targets a failed Monte-Carlo point is attributable to process and
    temperature variation rather than to a nominally unreachable goal —
    which is the question a yield report asks.
    """
    benchmark = BENCHMARK_BUILDERS[circuit]()
    return {
        spec.name: (
            spec.minimum if spec.objective is Objective.MAXIMIZE else spec.maximum
        )
        for spec in benchmark.spec_space
    }


@dataclass
class CircuitYield:
    """Monte-Carlo yield of one circuit's center sizing."""

    circuit: str
    samples: int
    passed: int
    per_spec_passed: Dict[str, int]
    targets: Dict[str, float]

    @property
    def yield_fraction(self) -> float:
        return self.passed / self.samples if self.samples else 0.0

    def per_spec_fraction(self) -> Dict[str, float]:
        if not self.samples:
            return {name: 0.0 for name in self.per_spec_passed}
        return {
            name: count / self.samples for name, count in self.per_spec_passed.items()
        }


@dataclass
class YieldReport:
    """Aggregated Monte-Carlo yield across circuits."""

    seed: int
    samples_per_circuit: int
    results: List[CircuitYield] = field(default_factory=list)

    def result(self, circuit: str) -> CircuitYield:
        for entry in self.results:
            if entry.circuit == circuit:
                return entry
        raise KeyError(f"no yield result for circuit {circuit!r}")

    def as_text(self) -> str:
        """Render the report as a fixed-width terminal table."""
        width = max(len(entry.circuit) for entry in self.results) + 2
        lines = [f"{'circuit':<{width}s}{'samples':>9s}{'yield':>9s}  binding specs"]
        for entry in self.results:
            fractions = entry.per_spec_fraction()
            binding = ", ".join(
                f"{name} {fraction:.0%}"
                for name, fraction in sorted(fractions.items(), key=lambda kv: kv[1])[:2]
            )
            lines.append(
                f"{entry.circuit:<{width}s}{entry.samples:>9d}"
                f"{entry.yield_fraction:>9.1%}  {binding}"
            )
        return "\n".join(lines)

    def as_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "samples_per_circuit": self.samples_per_circuit,
            "circuits": [
                {
                    "circuit": entry.circuit,
                    "samples": entry.samples,
                    "passed": entry.passed,
                    "yield_fraction": entry.yield_fraction,
                    "per_spec_passed": dict(entry.per_spec_passed),
                    "targets": dict(entry.targets),
                }
                for entry in self.results
            ],
        }


def monte_carlo_corner_set(samples: int, seed: int) -> CornerSet:
    """``samples`` process/temperature points as a (deterministic) CornerSet."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    corners = []
    for index in range(samples):
        corners.append(
            Corner(
                name=f"mc{index}",
                vth_scale=float(rng.uniform(FAST_VTH_SCALE, SLOW_VTH_SCALE)),
                mobility_scale=float(rng.uniform(FAST_VTH_SCALE, SLOW_VTH_SCALE)),
                temperature_c=float(
                    rng.uniform(COLD_TEMPERATURE_C, HOT_TEMPERATURE_C)
                ),
            )
        )
    return CornerSet(corners=tuple(corners))


def yield_report_units(
    circuits: Sequence[str],
    samples: int,
    shards: int,
    seed: int,
    targets: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> List[WorkUnit]:
    """One work unit per (circuit, shard); shards split ``samples`` evenly."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    units = []
    for circuit in circuits:
        if circuit not in _SIMULATOR_FACTORIES:
            raise ValueError(
                f"unknown circuit {circuit!r} (choose from {sorted(_SIMULATOR_FACTORIES)})"
            )
        circuit_targets = dict(
            targets[circuit] if targets and circuit in targets else default_targets(circuit)
        )
        base, remainder = divmod(samples, shards)
        for shard in range(shards):
            shard_samples = base + (1 if shard < remainder else 0)
            if shard_samples == 0:
                continue
            units.append(
                WorkUnit(
                    unit_id=f"yield+{circuit}+shard{shard}",
                    runner="repro.experiments.yield_report:yield_shard_unit",
                    payload={
                        "circuit": circuit,
                        "samples": shard_samples,
                        "seed": seed + 7919 * shard,
                        "targets": circuit_targets,
                    },
                )
            )
    return units


def yield_shard_unit(arguments: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one Monte-Carlo shard (the orchestrator's worker contract).

    Pure function of its JSON payload; the shard's process points ride the
    corner-lane batched path as one big CornerSet.
    """
    circuit = arguments["circuit"]
    samples = int(arguments["samples"])
    targets = {name: float(value) for name, value in arguments["targets"].items()}
    benchmark = BENCHMARK_BUILDERS[circuit]()
    corner_set = monte_carlo_corner_set(samples, int(arguments["seed"]))
    simulator = CornerSimulator(
        _SIMULATOR_FACTORIES[circuit](),
        corner_set=corner_set,
        spec_space=benchmark.spec_space,
    )
    results = simulator.corner_results(benchmark.fresh_netlist())

    passed = 0
    per_spec_passed = {spec.name: 0 for spec in benchmark.spec_space}
    for result in results:
        sample_pass = bool(result.valid)
        for spec in benchmark.spec_space:
            spec_met = result.valid and spec.is_met(
                result.specs[spec.name], targets[spec.name]
            )
            per_spec_passed[spec.name] += int(spec_met)
            sample_pass = sample_pass and spec_met
        passed += int(sample_pass)
    return {
        "circuit": circuit,
        "samples": samples,
        "passed": passed,
        "per_spec_passed": per_spec_passed,
        "targets": targets,
    }


def run_yield_report(
    circuits: Sequence[str] = ZOO_YIELD_CIRCUITS,
    samples: int = 128,
    shards: int = 2,
    seed: int = 0,
    targets: Optional[Mapping[str, Mapping[str, float]]] = None,
    workers: int = 1,
    store: Optional[Union[str, "object"]] = None,
    resume: bool = True,
) -> YieldReport:
    """Monte-Carlo yield of every circuit's center sizing.

    Parameters
    ----------
    circuits:
        Circuits to sweep (defaults to the whole zoo).
    samples:
        Monte-Carlo process points per circuit, split across ``shards``.
    shards:
        Work units per circuit (the parallelism grain).
    seed:
        Root seed; shard seeds derive deterministically, so the report is
        identical for any ``workers``/``shards`` split of the same counts.
    targets:
        Optional ``{circuit: {spec: target}}`` override of
        :func:`default_targets`.
    workers, store, resume:
        Process-pool width and artifact-store resumability, exactly as in
        :func:`repro.experiments.transfer_matrix.run_transfer_matrix`.
    """
    units = yield_report_units(circuits, samples, shards, seed, targets)
    report = execute_with_store(units, store=store, workers=workers, resume=resume)
    report.raise_on_failure()

    by_circuit: Dict[str, CircuitYield] = {}
    for record in report.records:
        row = record.result
        entry = by_circuit.get(row["circuit"])
        if entry is None:
            by_circuit[row["circuit"]] = CircuitYield(
                circuit=row["circuit"],
                samples=int(row["samples"]),
                passed=int(row["passed"]),
                per_spec_passed={k: int(v) for k, v in row["per_spec_passed"].items()},
                targets={k: float(v) for k, v in row["targets"].items()},
            )
        else:
            entry.samples += int(row["samples"])
            entry.passed += int(row["passed"])
            for name, count in row["per_spec_passed"].items():
                entry.per_spec_passed[name] += int(count)
    ordered = [by_circuit[circuit] for circuit in circuits if circuit in by_circuit]
    return YieldReport(seed=seed, samples_per_circuit=samples, results=ordered)
