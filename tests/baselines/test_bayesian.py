"""Tests for the Bayesian-optimization baseline and its GP surrogate."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import repro

from repro.baselines.base import SizingProblem
from repro.baselines.bayesian import (
    BayesianOptimization,
    BayesianOptimizationConfig,
    GaussianProcess,
    expected_improvement,
)
from repro.simulation.opamp_sim import OpAmpSimulator


class TestGaussianProcess:
    def test_interpolates_training_points(self, rng):
        x = rng.random((12, 3))
        y = np.sin(x.sum(axis=1) * 3.0)
        gp = GaussianProcess(length_scale=0.3, signal_variance=1.0, noise_variance=1e-8)
        gp.fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.05)

    def test_uncertainty_grows_away_from_data(self, rng):
        x = rng.random((10, 2)) * 0.3  # training data clustered near the origin
        y = x.sum(axis=1)
        gp = GaussianProcess(length_scale=0.2, signal_variance=1.0, noise_variance=1e-6)
        gp.fit(x, y)
        _, std_near = gp.predict(np.array([[0.15, 0.15]]))
        _, std_far = gp.predict(np.array([[0.95, 0.95]]))
        assert std_far[0] > std_near[0]

    def test_predict_before_fit_raises(self):
        gp = GaussianProcess(0.2, 1.0, 1e-6)
        with pytest.raises(RuntimeError):
            gp.predict(np.zeros((1, 2)))

    def test_lapack_factor_and_solves_match_cho_factor_bitwise(self, rng):
        x = rng.random((15, 4))
        y = np.cos(x @ np.arange(1.0, 5.0))
        gp = GaussianProcess(length_scale=0.25, signal_variance=1.0, noise_variance=1e-6)
        gp.fit(x, y)
        query = rng.random((40, 4))
        mean, std = gp.predict(query)

        normalized = (y - y.mean()) / y.std()
        cho = cho_factor(gp._kernel(x, x) + 1e-6 * np.eye(15), lower=True)
        cross = gp._kernel(query, x)
        solved = cho_solve(cho, cross.T)
        variance = np.maximum(1.0 - np.sum(cross * solved.T, axis=1), 1e-12)
        assert np.array_equal(mean, (cross @ cho_solve(cho, normalized)) * y.std() + y.mean())
        assert np.array_equal(std, np.sqrt(variance) * y.std())

    def test_non_finite_observations_are_clamped_to_the_worst_finite(self, rng):
        x = rng.random((6, 2))
        y = np.array([0.5, -np.inf, 0.2, np.nan, -0.3, 0.1])
        gp = GaussianProcess(0.3, 1.0, 1e-6)
        gp.fit(x, y)
        clamped = GaussianProcess(0.3, 1.0, 1e-6)
        clamped.fit(x, np.array([0.5, -0.3, 0.2, -0.3, -0.3, 0.1]))
        query = rng.random((5, 2))
        assert np.array_equal(gp.predict(query), clamped.predict(query))

        gp.fit(x, np.full(6, -np.inf))
        mean, std = gp.predict(query)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_fit_shape_mismatch(self):
        gp = GaussianProcess(0.2, 1.0, 1e-6)
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))


class TestExpectedImprovement:
    def test_matches_scipy_stats_norm_bitwise(self, rng):
        from scipy.stats import norm

        mean = rng.normal(size=500)
        std = rng.random(500) + 1e-3
        improvement = mean - 0.2 - 0.01
        z = improvement / std
        expected = improvement * norm.cdf(z) + std * norm.pdf(z)
        assert np.array_equal(expected_improvement(mean, std, 0.2, 0.01), expected)

    def test_zero_std_point_has_no_improvement_when_below_best(self):
        ei = expected_improvement(np.array([0.0]), np.array([1e-9]), best=1.0, xi=0.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_higher_mean_gives_higher_ei(self):
        ei = expected_improvement(np.array([0.5, 2.0]), np.array([0.3, 0.3]), best=1.0, xi=0.0)
        assert ei[1] > ei[0]

    def test_higher_uncertainty_gives_higher_ei_at_same_mean(self):
        ei = expected_improvement(np.array([0.9, 0.9]), np.array([0.05, 0.5]), best=1.0, xi=0.0)
        assert ei[1] > ei[0]


class TestBayesianOptimizationOnCircuit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BayesianOptimizationConfig(num_initial=1)
        with pytest.raises(ValueError):
            BayesianOptimizationConfig(length_scale=-1.0)

    def test_improves_over_initial_design(self, opamp_benchmark):
        target = {"gain": 400.0, "bandwidth": 5e6, "phase_margin": 57.0, "power": 3e-3}
        problem = SizingProblem(opamp_benchmark, OpAmpSimulator(), targets=target)
        config = BayesianOptimizationConfig(num_initial=6, num_iterations=10,
                                            candidate_pool=100, local_candidates=30,
                                            stop_when_met=False)
        result = BayesianOptimization(config, seed=0).optimize(problem)
        curve = result.trace.best_curve()
        assert curve[-1] >= curve[5]
        assert np.all(np.diff(curve) >= -1e-12)

    def test_stops_early_on_easy_target(self, opamp_benchmark):
        easy_target = {"gain": 2.0, "bandwidth": 10.0, "phase_margin": 0.1, "power": 1.0}
        problem = SizingProblem(opamp_benchmark, OpAmpSimulator(), targets=easy_target)
        config = BayesianOptimizationConfig(num_initial=4, num_iterations=100)
        result = BayesianOptimization(config, seed=0).optimize(problem)
        assert result.success
        assert result.num_simulations < 30

    def test_uses_fewer_simulations_than_ga_budget(self, opamp_benchmark):
        """Shape check behind Fig. 3's last column: BO budget << GA budget."""
        config = BayesianOptimizationConfig(num_initial=6, num_iterations=20)
        assert config.num_initial + config.num_iterations < 100


def test_import_repro_leaves_scipy_stats_unloaded():
    """``scipy.stats`` costs most of ``import repro``; nothing may pull it in."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "[]"
