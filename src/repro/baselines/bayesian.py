"""Bayesian-optimization sizing baseline (Lyu et al. [5]).

A Gaussian-process surrogate with an RBF kernel models the Eq. (1) objective
over the normalized design space; candidates are proposed by maximizing the
expected-improvement acquisition over a random candidate pool (plus local
perturbations of the incumbent).  The paper reports BO needs on the order of
100 simulations per design and achieves ~84 % design accuracy; the benches
reproduce that shape (fewer simulations than GA, more than a trained RL
policy, imperfect success rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import ndtr

from repro.baselines.base import OptimizationResult, SizingOptimizer, SizingProblem

_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass
class BayesianOptimizationConfig:
    """Hyper-parameters of the BO baseline."""

    num_initial: int = 10
    num_iterations: int = 60
    candidate_pool: int = 400
    local_candidates: int = 100
    local_scale: float = 0.08
    length_scale: float = 0.25
    signal_variance: float = 1.0
    noise_variance: float = 1e-6
    exploration: float = 0.01
    stop_when_met: bool = True

    def __post_init__(self) -> None:
        if self.num_initial < 2:
            raise ValueError("num_initial must be at least 2")
        if self.length_scale <= 0 or self.signal_variance <= 0 or self.noise_variance <= 0:
            raise ValueError("kernel hyper-parameters must be positive")


class GaussianProcess:
    """Minimal GP regressor with an isotropic RBF kernel.

    The Cholesky factor and solves call LAPACK ``dpotrf``/``dpotrs`` the way
    ``scipy.linalg.cho_factor``/``cho_solve`` do, without their per-call
    argument handling and finiteness scans: ``fit`` makes the observations
    finite, and the inputs are points of the unit cube.
    """

    def __init__(self, length_scale: float, signal_variance: float, noise_variance: float) -> None:
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise_variance = noise_variance
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._factor: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq_dist = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
        sq_dist = np.maximum(sq_dist, 0.0)
        return self.signal_variance * np.exp(-0.5 * sq_dist / self.length_scale**2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        finite = np.isfinite(y)
        if not finite.all():
            # A failed simulation scores -inf; model it as the worst finite
            # observation (or a constant when none is finite) so that the
            # kernel algebra stays finite.
            y = np.where(finite, y, y[finite].min() if finite.any() else 0.0)
        self._x = x
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) if y.std() > 1e-12 else 1.0
        normalized = (y - self._y_mean) / self._y_std
        covariance = self._kernel(x, x) + self.noise_variance * np.eye(x.shape[0])
        factor, info = dpotrf(covariance, lower=1, clean=0)
        if info != 0:
            raise LinAlgError(f"GP covariance is not positive definite (dpotrf info {info})")
        self._factor = factor
        self._alpha = self._solve(normalized)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        solution, info = dpotrs(self._factor, rhs, lower=1)
        if info != 0:
            raise ValueError(f"dpotrs rejected argument {-info}")
        return solution

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query points."""
        if self._x is None or self._alpha is None:
            raise RuntimeError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cross = self._kernel(x, self._x)
        mean = cross @ self._alpha
        solved = self._solve(cross.T)
        variance = self.signal_variance - np.sum(cross * solved.T, axis=1)
        variance = np.maximum(variance, 1e-12)
        return mean * self._y_std + self._y_mean, np.sqrt(variance) * self._y_std


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float, xi: float) -> np.ndarray:
    """Expected improvement of a maximization problem.

    ``ndtr`` and the density below are what ``scipy.stats.norm.cdf``/``pdf``
    evaluate for the standard normal, bit for bit.
    """
    improvement = mean - best - xi
    z = improvement / std
    return improvement * ndtr(z) + std * (np.exp(-(z**2) / 2.0) / _SQRT_2PI)


class BayesianOptimization(SizingOptimizer):
    """GP + expected-improvement search over the normalized design space."""

    name = "bayesian_optimization"

    def __init__(self, config: Optional[BayesianOptimizationConfig] = None,
                 seed: Optional[int] = None) -> None:
        self.config = config or BayesianOptimizationConfig()
        self.rng = np.random.default_rng(seed)

    def _candidates(self, dimension: int, incumbent: np.ndarray) -> np.ndarray:
        config = self.config
        uniform = self.rng.random((config.candidate_pool, dimension))
        local = incumbent[None, :] + self.rng.normal(
            0.0, config.local_scale, size=(config.local_candidates, dimension)
        )
        return np.clip(np.vstack([uniform, local]), 0.0, 1.0)

    def optimize(self, problem: SizingProblem) -> OptimizationResult:
        config = self.config
        dimension = problem.num_parameters

        observed_x = self.rng.random((config.num_initial, dimension))
        # Initial space-filling design scored through the batched vector path
        # (identical values/trace to per-point evaluation, cache-friendly).
        observed_y = problem.objective_from_unit_batch(observed_x)
        best_index = int(np.argmax(observed_y))
        best_x = observed_x[best_index].copy()
        best_y = float(observed_y[best_index])

        gp = GaussianProcess(config.length_scale, config.signal_variance, config.noise_variance)
        for _ in range(config.num_iterations):
            if config.stop_when_met and problem.targets is not None and best_y >= 0.0:
                break
            gp.fit(observed_x, observed_y)
            candidates = self._candidates(dimension, best_x)
            mean, std = gp.predict(candidates)
            acquisition = expected_improvement(mean, std, best_y, config.exploration)
            chosen = candidates[int(np.argmax(acquisition))]
            value = problem.objective_from_unit(chosen)
            observed_x = np.vstack([observed_x, chosen])
            observed_y = np.append(observed_y, value)
            if value > best_y:
                best_y = float(value)
                best_x = chosen.copy()

        return self._build_result(problem, best_x, best_y)
