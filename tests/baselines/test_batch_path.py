"""The search baselines score a population in one simulator batch.

``SizingProblem.objective_from_unit_batch`` builds the population's
parameter rows (the template's row with the knob columns written) and hands
them to one ``simulate_rows`` call; the scalar path hands one netlist to
``simulate``, a batch of one row.  A cache-wrapped simulator batches its misses through the inner
simulator, and a simulator that loops its rows one at a time agrees.  Every path must give the same values, trace and
simulation count (the goldens in ``test_sizing_goldens.py`` pin them
bitwise).
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

import repro
from repro.api.optimizers import build_problem
from repro.baselines.bayesian import BayesianOptimization, BayesianOptimizationConfig
from repro.baselines.genetic import GeneticAlgorithm, GeneticAlgorithmConfig
from repro.circuits.parameters import DesignSpace
from repro.parallel import SimulationCache
from repro.simulation.base import CircuitSimulator
from repro.simulation.mna import MnaCircuit
from repro.simulation.opamp_sim import OpAmpSimulator

from test_sizing_goldens import _GOLDEN, SEEDS, _run, result_digest


class _CallCounter:
    """Counts calls of one method on an instance while forwarding them."""

    def __init__(self, monkeypatch, target, method):
        self.calls = []
        self.keywords = []
        original = getattr(target, method)

        def spy(*args, **kwargs):
            self.calls.append(args)
            self.keywords.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, method, spy)


class _UnbatchedOpAmp(CircuitSimulator):
    """Same equations, one row per inner call."""

    name = "unbatched_opamp"

    def __init__(self, method):
        self._inner = OpAmpSimulator(method=method)

    def simulate_rows(self, layout, rows):
        return [self._inner.simulate_rows(layout, rows[i : i + 1])[0] for i in range(len(rows))]


def _problem(simulator=None, env_id="opamp-mna-v0"):
    env = repro.make_env(env_id, seed=0)
    target = env.benchmark.spec_space.sample(np.random.default_rng(0))
    return build_problem(env, target, simulator=simulator)


def _ga(problem, generations=3):
    config = GeneticAlgorithmConfig(
        population_size=8, num_generations=generations, stop_when_met=False
    )
    return GeneticAlgorithm(config, seed=0).optimize(problem)


def test_each_ga_generation_is_one_simulate_rows_call(monkeypatch):
    problem = _problem()
    batches = _CallCounter(monkeypatch, problem.simulator, "simulate_rows")
    scalars = _CallCounter(monkeypatch, problem.simulator, "simulate")
    result = _ga(problem, generations=3)
    # The initial population plus three generations, then the final
    # re-simulation of the best design: a scalar call, a batch of one row.
    assert [len(args[1]) for args in batches.calls] == [8, 8, 8, 8, 1]
    assert len(scalars.calls) == 1
    assert result.num_simulations == 4 * 8 + 1


def test_bo_iterations_call_scalar_simulate_and_reach_ac_analysis(monkeypatch):
    problem = _problem()
    batches = _CallCounter(monkeypatch, problem.simulator, "simulate_rows")
    scalars = _CallCounter(monkeypatch, problem.simulator, "simulate")
    sweeps = _CallCounter(monkeypatch, MnaCircuit, "ac_analysis")
    config = BayesianOptimizationConfig(num_initial=6, num_iterations=5, stop_when_met=False)
    result = BayesianOptimization(config, seed=0).optimize(problem)
    # The initial design, then five iterations and the final re-simulation,
    # each a scalar call: a batch of one row, one MNA sweep.
    assert [len(args[1]) for args in batches.calls] == [6] + [1] * (5 + 1)
    assert len(scalars.calls) == 5 + 1
    assert [len(kwargs["lane_values"]) for kwargs in sweeps.keywords] == [6] + [1] * (5 + 1)
    assert result.num_simulations == 6 + 5 + 1


def test_ga_through_a_cache_is_one_inner_batch_per_generation(monkeypatch):
    inner = OpAmpSimulator(method="mna")
    batches = _CallCounter(monkeypatch, inner, "simulate_rows")
    cached = _ga(_problem(SimulationCache(inner)), generations=3)
    # The initial population plus three generations, each one batch of its
    # misses; the final re-simulation of the best design is a cache hit.
    sizes = [len(args[1]) for args in batches.calls]
    assert len(sizes) == 4 and sizes[0] == 8 and all(0 < size <= 8 for size in sizes)
    assert result_digest(cached) == result_digest(_ga(_problem()))


@pytest.mark.parametrize(
    "wrap",
    [
        pytest.param(lambda: SimulationCache(OpAmpSimulator(method="mna")), id="cache"),
        pytest.param(lambda: _UnbatchedOpAmp(method="mna"), id="row-by-row"),
    ],
)
def test_looped_simulators_give_the_batched_results(wrap):
    batched = _ga(_problem())
    looped = _ga(_problem(wrap()))
    assert result_digest(looped) == result_digest(batched)
    assert looped.trace.objective_values == batched.trace.objective_values


@pytest.mark.parametrize("env_id", ["opamp-mna-v0", "current_mirror_ota-mna-v0"])
def test_sizing_goldens_hold_through_a_cache(env_id):
    for seed, golden in zip(SEEDS, _GOLDEN[env_id]["genetic"]):
        assert result_digest(_run(env_id, "genetic", seed, cache_size=64)) == golden


def _with_non_positive_width(problem):
    """The problem with ``M1.width`` confined to ``[-2 um, 0]``."""
    space = problem.benchmark.design_space
    parameters = [
        dataclasses.replace(p, minimum=-2e-6, maximum=0.0, step=1e-7)
        if p.name == "M1.width" else p
        for p in space
    ]
    problem.benchmark = copy.copy(problem.benchmark)
    problem.benchmark.design_space = DesignSpace(parameters)
    return problem


def _raised(problem, population):
    try:
        problem.objective_from_unit_batch(population)
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return type(error), str(error)
    return None


def test_non_positive_width_raises_the_same_on_both_paths():
    population = np.random.default_rng(0).random((4, 15))
    batched = _with_non_positive_width(_problem())
    looped = _with_non_positive_width(_problem(_UnbatchedOpAmp(method="mna")))
    outcome = _raised(batched, population)
    assert outcome is not None and outcome == _raised(looped, population)
    assert outcome[0] is ValueError
