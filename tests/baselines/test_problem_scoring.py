"""Broken simulation results must score as worst, never as NaN.

``FomReward.figure_of_merit`` degrades to NaN when a simulator omits a
required spec, and a P2S objective is NaN when a spec value is; a NaN
fitness would win every ``np.argmax`` in the search baselines, silently
reporting the broken candidate as the best design.  ``SizingProblem._score``
therefore maps every non-finite objective to ``-inf``, and the BO surrogate
models such ``-inf`` observations instead of rejecting them.
"""

from __future__ import annotations

import math

import numpy as np

import repro
from repro.api.optimizers import build_problem
from repro.baselines.base import SizingProblem
from repro.baselines.bayesian import BayesianOptimization, BayesianOptimizationConfig
from repro.baselines.genetic import GeneticAlgorithm, GeneticAlgorithmConfig
from repro.circuits import build_rf_pa
from repro.env.reward import FomReward
from repro.simulation.base import CircuitSimulator, SimulationResult


class _SpecDroppingSimulator(CircuitSimulator):
    """Marks results valid but omits 'efficiency' for one parameter value."""

    name = "spec_dropping"

    def simulate_rows(self, layout, rows):
        (width,) = layout.columns((("M1", "width"),))
        results = []
        for row in rows.tolist():
            specs = {"output_power": 2.5, "efficiency": 0.55}
            if row[width] > 50e-6:
                del specs["efficiency"]
            results.append(SimulationResult(specs=specs, details={}, valid=True))
        return results


def test_incomplete_fom_scores_minus_inf_not_nan():
    benchmark = build_rf_pa()
    problem = SizingProblem(
        benchmark, _SpecDroppingSimulator(), fom_reward=FomReward(benchmark.spec_space)
    )
    width_index = benchmark.design_space.names.index("M1.width")
    healthy = benchmark.design_space.center()
    healthy[width_index] = 20e-6
    broken = healthy.copy()
    broken[width_index] = 100e-6

    good = problem.objective(healthy)
    bad = problem.objective(broken)
    assert np.isfinite(good)
    assert bad == -np.inf

    # The argmax selection every baseline uses must pick the healthy design.
    fitness = np.array([bad, good])
    assert int(np.argmax(fitness)) == 1


class _NaNOnThirdCallSimulator(CircuitSimulator):
    """Wraps a simulator; its third row returns all-NaN specs."""

    name = "nan_on_third_call"

    def __init__(self, simulator):
        self._simulator = simulator
        self.calls = 0

    def simulate_rows(self, layout, rows):
        return [self._lane(result) for result in self._simulator.simulate_rows(layout, rows)]

    def _lane(self, result):
        self.calls += 1
        if self.calls == 3:
            specs = {name: math.nan for name in result.specs}
            return SimulationResult(specs=specs, details={}, valid=True)
        return result


def test_nan_p2s_objective_scores_minus_inf_and_never_wins_ga():
    env = repro.make_env("opamp-p2s-v0", seed=0)
    simulator = _NaNOnThirdCallSimulator(env.simulator)
    problem = build_problem(env, env.benchmark.spec_space.sample(np.random.default_rng(0)),
                            simulator=simulator)
    config = GeneticAlgorithmConfig(population_size=10, num_generations=5)
    result = GeneticAlgorithm(config, seed=0).optimize(problem)
    assert np.isfinite(result.best_objective)
    assert problem.trace.objective_values[2] == -np.inf
    assert result.best_objective == max(problem.trace.objective_values)


def test_bayesian_optimization_models_minus_inf_observations():
    benchmark = build_rf_pa()
    problem = SizingProblem(
        benchmark, _SpecDroppingSimulator(), fom_reward=FomReward(benchmark.spec_space)
    )
    config = BayesianOptimizationConfig(num_initial=6, num_iterations=8)
    result = BayesianOptimization(config, seed=0).optimize(problem)
    assert -np.inf in problem.trace.objective_values
    assert np.isfinite(result.best_objective)
    assert result.num_simulations == 6 + 8 + 1


class _GainDroppingSimulator(CircuitSimulator):
    """The op-amp simulator with ``gain`` left out of every result."""

    name = "gain_dropping"

    def __init__(self, simulator):
        self._simulator = simulator

    def simulate_rows(self, layout, rows):
        results = self._simulator.simulate_rows(layout, rows)
        for result in results:
            del result.specs["gain"]
        return results


def _gain_dropping_problem():
    env = repro.make_env("opamp-p2s-v0", seed=0)
    target = env.benchmark.spec_space.sample(np.random.default_rng(0))
    return build_problem(env, target, simulator=_GainDroppingSimulator(env.simulator))


def test_a_result_that_omits_a_spec_scores_minus_inf():
    problem = _gain_dropping_problem()
    assert problem.objective(problem.benchmark.design_space.center()) == -np.inf


def test_a_population_that_omits_a_spec_scores_minus_inf():
    problem = _gain_dropping_problem()
    population = np.random.default_rng(0).random((5, problem.num_parameters))
    assert problem.objective_from_unit_batch(population).tolist() == [-np.inf] * 5
    assert problem.trace.objective_values == [-np.inf] * 5


def test_a_search_over_spec_dropping_results_reports_no_success():
    problem = _gain_dropping_problem()
    config = GeneticAlgorithmConfig(population_size=6, num_generations=2)
    result = GeneticAlgorithm(config, seed=0).optimize(problem)
    assert result.success is False
    assert "gain" not in result.best_specs
