"""The search baselines score op-amp/CM-OTA populations in one simulator batch.

``SizingProblem.objective_from_unit_batch`` hands a whole population to
``simulate_batch`` when the simulator's exact type is one of
:data:`repro.simulation.BATCHED_SIMULATOR_TYPES`, and loops ``simulate``
otherwise.  Both paths must give the same values, trace and simulation
count (the goldens in ``test_sizing_goldens.py`` pin them bitwise).
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
from repro.simulation.mna import MnaCircuit
from repro.simulation.opamp_sim import OpAmpSimulator

from test_sizing_goldens import result_digest


class _CallCounter:
    """Counts calls of one method on an instance while forwarding them."""

    def __init__(self, monkeypatch, target, method):
        self.calls = []
        original = getattr(target, method)

        def spy(*args, **kwargs):
            self.calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, method, spy)


class _UnbatchedOpAmp(OpAmpSimulator):
    """Same equations; a subclass is not a batched type, so it takes the loop."""


def _problem(simulator=None, env_id="opamp-mna-v0"):
    env = repro.make_env(env_id, seed=0)
    target = env.benchmark.spec_space.sample(np.random.default_rng(0))
    return build_problem(env, target, simulator=simulator)


def _ga(problem, generations=3):
    config = GeneticAlgorithmConfig(
        population_size=8, num_generations=generations, stop_when_met=False
    )
    return GeneticAlgorithm(config, seed=0).optimize(problem)


def test_each_ga_generation_is_one_simulate_batch_call(monkeypatch):
    problem = _problem()
    batches = _CallCounter(monkeypatch, problem.simulator, "simulate_batch")
    scalars = _CallCounter(monkeypatch, problem.simulator, "simulate")
    result = _ga(problem, generations=3)
    # The initial population plus three generations; the one scalar call is
    # the final re-simulation of the best design.
    assert [len(args[0]) for args in batches.calls] == [8, 8, 8, 8]
    assert len(scalars.calls) == 1
    assert result.num_simulations == 4 * 8 + 1


def test_bo_iterations_call_scalar_simulate_and_reach_ac_analysis(monkeypatch):
    problem = _problem()
    batches = _CallCounter(monkeypatch, problem.simulator, "simulate_batch")
    scalars = _CallCounter(monkeypatch, problem.simulator, "simulate")
    sweeps = _CallCounter(monkeypatch, MnaCircuit, "ac_analysis")
    config = BayesianOptimizationConfig(num_initial=6, num_iterations=5, stop_when_met=False)
    result = BayesianOptimization(config, seed=0).optimize(problem)
    assert [len(args[0]) for args in batches.calls] == [6]
    # Five iterations plus the final re-simulation, each one MNA sweep.
    assert len(scalars.calls) == 5 + 1
    assert len(sweeps.calls) == 5 + 1
    assert result.num_simulations == 6 + 5 + 1


@pytest.mark.parametrize(
    "wrap",
    [
        pytest.param(lambda: SimulationCache(OpAmpSimulator(method="mna")), id="cache"),
        pytest.param(lambda: _UnbatchedOpAmp(method="mna"), id="subclass"),
    ],
)
def test_looped_simulators_give_the_batched_results(monkeypatch, wrap):
    batched = _ga(_problem())
    simulator = wrap()
    inner = getattr(simulator, "simulator", simulator)
    batches = _CallCounter(monkeypatch, inner, "simulate_batch")
    looped = _ga(_problem(simulator))
    assert batches.calls == []
    assert result_digest(looped) == result_digest(batched)
    assert looped.trace.objective_values == batched.trace.objective_values


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
    assert type(batched.simulator) is OpAmpSimulator
    outcome = _raised(batched, population)
    assert outcome is not None and outcome == _raised(looped, population)
    assert outcome[0] is ValueError
