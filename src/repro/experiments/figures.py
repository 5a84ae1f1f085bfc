"""Optimization-baseline curves (Fig. 3, last column; also used by Fig. 7).

The last column of Fig. 3 plots, for one target specification group, the
Eq. (1) reward of the Genetic Algorithm and Bayesian Optimization against the
number of simulator calls; the paper observes GA needs roughly 400 and BO
roughly 100 simulations to converge (versus ~20 deployment steps for the
trained RL policies), and that neither reaches 100 % design accuracy over
repeated runs.

All runs route through the common :class:`repro.api.Optimizer` protocol, so
any registered optimizer ID works as a ``methods`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.api.catalog import OPTIMIZERS, make_env, make_optimizer
from repro.baselines.base import OptimizationResult
from repro.experiments.configs import ExperimentScale, bench_scale
from repro.experiments.training import CIRCUIT_ENV_IDS

#: Optimizer names shown in the Fig. 3 last-column legend (registry aliases
#: of ``"genetic"`` and ``"bayesian"``).
OPTIMIZER_METHODS = ("genetic_algorithm", "bayesian_optimization")

#: The optimization baselines "cannot leverage transfer learning and have to
#: use HB simulation" (paper) — the RF PA always uses the fine simulator.
SEARCH_ENV_IDS = {circuit: ids["fine"] for circuit, ids in CIRCUIT_ENV_IDS.items()}


def _circuit_env(circuit: str, seed: Optional[int] = None):
    if circuit not in SEARCH_ENV_IDS:
        raise ValueError(f"unknown circuit '{circuit}', expected one of {sorted(SEARCH_ENV_IDS)}")
    return make_env(SEARCH_ENV_IDS[circuit], seed=seed)


@dataclass
class OptimizationCurve:
    """Best-objective-so-far curve of one optimizer on one target group."""

    method: str
    circuit: str
    target_specs: Dict[str, float]
    result: OptimizationResult

    @property
    def num_simulations(self) -> int:
        return self.result.num_simulations

    @property
    def success(self) -> bool:
        return self.result.success

    def curve(self) -> np.ndarray:
        return self.result.trace.best_curve()


def run_optimization_curves(
    circuit: str,
    target: Optional[Mapping[str, float]] = None,
    methods: Sequence[str] = OPTIMIZER_METHODS,
    seed: int = 0,
    ga_budget: Optional[int] = None,
    bo_budget: Optional[int] = None,
) -> Dict[str, OptimizationCurve]:
    """Run the GA / BO searches for one target group (Fig. 3, last column)."""
    env = _circuit_env(circuit, seed=seed)
    if target is None:
        target = env.benchmark.spec_space.sample(np.random.default_rng(seed))
    # Keyed by canonical registry ID so alias method names share the budget.
    budgets = {"genetic": ga_budget, "bayesian": bo_budget}
    curves: Dict[str, OptimizationCurve] = {}
    for method in methods:
        optimizer = make_optimizer(method)
        result = optimizer.optimize(
            env, budget=budgets.get(OPTIMIZERS.resolve(method)), seed=seed, target_specs=target
        )
        curves[method] = OptimizationCurve(
            method=method, circuit=circuit, target_specs=dict(target), result=result
        )
    return curves


@dataclass
class OptimizerAccuracy:
    """Design accuracy and simulation-count statistics over repeated runs."""

    method: str
    circuit: str
    accuracy: float
    mean_simulations: float
    results: List[OptimizationCurve] = field(default_factory=list)


def evaluate_optimizer_accuracy(
    circuit: str,
    method: str,
    num_runs: Optional[int] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> OptimizerAccuracy:
    """Repeat an optimizer over random target groups (the "30-group random
    experiments" behind the GA/BO accuracy numbers in Sec. 4 / Table 2)."""
    scale = scale or bench_scale()
    num_runs = num_runs or scale.optimizer_runs
    env = _circuit_env(circuit, seed=seed)
    rng = np.random.default_rng(seed)
    targets = env.benchmark.spec_space.sample_batch(rng, num_runs)
    runs: List[OptimizationCurve] = []
    for index, target in enumerate(targets):
        optimizer = make_optimizer(method)
        result = optimizer.optimize(env, seed=seed + index, target_specs=target)
        runs.append(
            OptimizationCurve(
                method=method, circuit=circuit, target_specs=dict(target), result=result
            )
        )
    accuracy = float(np.mean([run.success for run in runs]))
    mean_simulations = float(np.mean([run.num_simulations for run in runs]))
    return OptimizerAccuracy(
        method=method, circuit=circuit, accuracy=accuracy,
        mean_simulations=mean_simulations, results=runs,
    )
