"""Common interface and result types for the non-RL sizing baselines.

The paper compares against optimization methods (Genetic Algorithm [6],
Bayesian Optimization [5]) and a supervised-learning sizer [8].  All of them
consume the same problem definition — a circuit benchmark, a simulator, and a
target specification group — and produce a best parameter vector plus the
history of objective values versus simulation count (the Fig. 3 / Fig. 7
"# of simulation steps" curves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.circuits.library.benchmark import CircuitBenchmark
from repro.env.reward import FomReward, P2SReward
from repro.simulation.base import CircuitSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.surrogate.prescreen import SurrogatePrescreener


@dataclass
class OptimizationTrace:
    """History of an optimization run (one point per simulator call)."""

    objective_values: List[float] = field(default_factory=list)
    best_values: List[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        self.objective_values.append(float(value))
        best_so_far = value if not self.best_values else max(self.best_values[-1], value)
        self.best_values.append(float(best_so_far))

    @property
    def num_evaluations(self) -> int:
        return len(self.objective_values)

    def best_curve(self) -> np.ndarray:
        """Monotone best-so-far curve (what Fig. 3's last column plots)."""
        return np.array(self.best_values)


@dataclass
class OptimizationResult:
    """Outcome of one optimization run.

    This is the unified result type of the :class:`repro.api.Optimizer`
    protocol: the first six fields are filled by every method, the trailing
    ``method`` / ``seed`` / ``budget`` / ``metadata`` fields carry the run
    context the :mod:`repro.api` adapters add (RL adapters stash their
    trained policy and training history under ``metadata``).
    """

    best_parameters: np.ndarray
    best_objective: float
    best_specs: Dict[str, float]
    success: bool
    num_simulations: int
    trace: OptimizationTrace
    method: str = ""
    seed: Optional[int] = None
    budget: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """JSON-serializable digest of the run (no traces, no live objects)."""
        return {
            "method": self.method,
            "best_parameters": [float(v) for v in np.asarray(self.best_parameters).ravel()],
            "best_objective": float(self.best_objective),
            "best_specs": {name: float(value) for name, value in self.best_specs.items()},
            "success": bool(self.success),
            "num_simulations": int(self.num_simulations),
            "seed": self.seed,
            "budget": self.budget,
        }


class SizingProblem:
    """Wraps benchmark + simulator + target into an objective function.

    The objective is the paper's Eq. (1) quantity ``r`` (without the goal
    bonus): zero when every specification is met, negative otherwise.  For
    FoM optimization an alternative objective built from
    :class:`~repro.env.reward.FomReward` is exposed.
    """

    def __init__(
        self,
        benchmark: CircuitBenchmark,
        simulator: CircuitSimulator,
        targets: Optional[Mapping[str, float]] = None,
        fom_reward: Optional[FomReward] = None,
        prescreener: Optional["SurrogatePrescreener"] = None,
    ) -> None:
        if targets is None and fom_reward is None:
            raise ValueError("either targets (P2S) or fom_reward (FoM) must be provided")
        self.benchmark = benchmark
        self.simulator = simulator
        self.targets = dict(targets) if targets is not None else None
        self.fom_reward = fom_reward
        self.reward_fn = P2SReward(benchmark.spec_space)
        self.trace = OptimizationTrace()
        self._evaluations = 0
        # A candidate's parameter row is the template's with the knob
        # columns written, as the episode engine builds its rows.
        netlist = benchmark.fresh_netlist()
        self._layout = netlist.layout
        self._base_row = netlist.parameter_array()
        self._knob_cols = self._layout.columns(
            tuple((p.device, p.attribute) for p in benchmark.design_space)
        )
        # Optional surrogate pre-screening of population batches.  While a
        # prescreener is attached, every exact evaluation also updates the
        # best-exact record that _build_result reports from, so the final
        # answer can never be a surrogate estimate.
        self._prescreener = prescreener
        self._best_exact: Optional[Tuple[np.ndarray, float, Dict[str, float]]] = None

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return self.benchmark.num_parameters

    @property
    def num_evaluations(self) -> int:
        return self._evaluations

    def simulate(self, parameters: np.ndarray) -> Dict[str, float]:
        """Evaluate a parameter vector into specs (one ``simulator.simulate`` call).

        One sizing is handed over as a netlist, through the simulator's
        one-sizing entry; populations go through :meth:`_exact_objectives`.
        """
        netlist = self.benchmark.fresh_netlist()
        self.benchmark.design_space.apply_to_netlist(netlist, parameters)
        result = self.simulator.simulate(netlist)
        self._evaluations += 1
        return dict(result.specs)

    def _rows(self, parameters: np.ndarray) -> np.ndarray:
        """The full parameter rows of ``(n, M)`` sizings, snapped onto the grid."""
        rows = self._base_row[None].repeat(len(parameters), 0)
        rows[:, self._knob_cols] = self.benchmark.design_space.snap_vector(parameters)
        return rows

    def _score(self, specs: Mapping[str, float]) -> float:
        if self.targets is not None:
            space = self.benchmark.spec_space
            if not all(name in specs for name in space.names):
                return -math.inf
            value = float(space.normalized_errors(specs, self.targets).sum())
        else:
            assert self.fom_reward is not None
            value = self.fom_reward.figure_of_merit(specs)
        # Spec-incomplete or NaN-valued results score NaN; a NaN fitness
        # would win every np.argmax downstream, so score such candidates as
        # unconditionally worst instead.
        return value if math.isfinite(value) else -math.inf

    def objective(self, parameters: np.ndarray) -> float:
        """Scalar objective (larger is better, 0 or the FoM maximum is best)."""
        return self._record(parameters, self.simulate(parameters))

    def _record(self, parameters: np.ndarray, specs: Dict[str, float]) -> float:
        """Score one exactly simulated candidate into the trace."""
        value = self._score(specs)
        self.trace.record(value)
        if self._prescreener is not None and (
            self._best_exact is None or value > self._best_exact[1]
        ):
            # Strict > keeps first-row-wins ties, matching an unscreened
            # argmax over the same exact values.
            self._best_exact = (np.array(parameters, dtype=np.float64), value, dict(specs))
        return value

    def best_exact_record(self) -> Optional[Tuple[np.ndarray, float, Dict[str, float]]]:
        """Best exactly-simulated ``(parameters, objective, specs)`` so far.

        ``None`` unless surrogate pre-screening actually engaged — an
        attached-but-inactive prescreener leaves result construction bitwise
        identical to the unscreened path.
        """
        if self._prescreener is None or self._prescreener.stats.populations == 0:
            return None
        return self._best_exact

    def objective_from_unit(self, unit_parameters: np.ndarray) -> float:
        """Objective over the normalized [0, 1]^M search space."""
        parameters = self.benchmark.design_space.denormalize(unit_parameters)
        return self.objective(parameters)

    # ------------------------------------------------------------------
    # Population (batched) evaluation — the repro.parallel vector path
    # ------------------------------------------------------------------
    def objective_from_unit_batch(self, unit_parameters: np.ndarray) -> np.ndarray:
        """Batched :meth:`objective_from_unit` over a ``(P, M)`` population.

        Values, trace and evaluation count equal ``P`` successive
        :meth:`objective_from_unit` calls; the population is simulated in
        one ``simulate_rows`` call.
        """
        unit_parameters = np.asarray(unit_parameters, dtype=np.float64)
        if unit_parameters.ndim != 2 or unit_parameters.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected a (P, {self.num_parameters}) population, "
                f"got shape {unit_parameters.shape}"
            )
        parameters = self.benchmark.design_space.denormalize(unit_parameters)
        screened = self._screened_batch(parameters)
        if screened is not None:
            return screened
        return self._exact_objectives(parameters)

    def _exact_objectives(self, parameters: np.ndarray) -> np.ndarray:
        """``[objective(row) for row in parameters]``, bit for bit.

        The candidates' parameter rows are simulated in one
        ``simulate_rows`` call.
        """
        results = self.simulator.simulate_rows(self._layout, self._rows(parameters))
        values = []
        for row, result in zip(parameters, results):
            self._evaluations += 1
            values.append(self._record(row, dict(result.specs)))
        return np.array(values)

    def _screened_batch(self, parameters: np.ndarray) -> Optional[np.ndarray]:
        """Surrogate-rank the population, exactly verify the top candidates.

        Returns the optimizer-visible values — exact objectives for the
        verified top-k, surrogate estimates for the rest — or ``None`` when
        pre-screening does not apply (no/inactive prescreener, population no
        larger than the verified set, or a foreign topology), in which case
        the caller runs the plain all-exact loop.
        """
        prescreener = self._prescreener
        if prescreener is None:
            return None
        count = parameters.shape[0]
        if not prescreener.active or prescreener.num_exact(count) >= count:
            prescreener.stats.bypassed += count
            return None
        # The surrogate consumes full device-parameter rows (the corpus
        # layout), the rows the exact path simulates.
        full = self._rows(parameters)
        if not prescreener.matches(self._layout.name, full.shape[1]):
            prescreener.stats.bypassed += count
            return None
        values = prescreener.predicted_objectives(full, self._score)
        top = prescreener.top_indices(values, count)
        values[top] = self._exact_objectives(parameters[top])
        prescreener.stats.populations += 1
        prescreener.stats.candidates += count
        prescreener.stats.exact_verified += len(top)
        prescreener.stats.surrogate_ranked += count - len(top)
        return values


class SizingOptimizer:
    """Base class for the optimization baselines."""

    name = "optimizer"

    def optimize(self, problem: SizingProblem) -> OptimizationResult:  # pragma: no cover
        raise NotImplementedError

    @staticmethod
    def _build_result(
        problem: SizingProblem, best_unit: np.ndarray, best_value: float
    ) -> OptimizationResult:
        exact = problem.best_exact_record()
        if exact is not None:
            # Pre-screening engaged: the optimizer's argmax may point at an
            # unverified surrogate estimate, so the reported answer is the
            # best *exactly simulated* candidate instead — parameters, value
            # and specs all straight from the exact simulator.
            parameters, best_value, specs = exact
            specs = dict(specs)
        else:
            parameters = problem.benchmark.design_space.denormalize(best_unit)
            specs = problem.simulate(parameters)
        if problem.targets is not None:
            space = problem.benchmark.spec_space
            # A result that omits a spec meets no target group.
            success = all(name in specs for name in space.names) and space.all_met(
                specs, problem.targets
            )
        else:
            success = True
        return OptimizationResult(
            best_parameters=parameters,
            best_objective=float(best_value),
            best_specs=specs,
            success=success,
            num_simulations=problem.num_evaluations,
            trace=problem.trace,
        )
