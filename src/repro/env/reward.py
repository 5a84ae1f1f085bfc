"""Reward functions for the P2S and FoM optimization problems.

Two reward definitions are used in the paper:

* **P2S reward** (Eq. 1): at each step the reward is the sum over all
  specifications of the clipped normalized difference between intermediate
  and target values, ``r = Σ_j min((g_j − g*_j)/(g_j + g*_j), 0)`` (with the
  sign flipped for "smaller-is-better" specs such as power consumption).
  The sum is upper-bounded by zero so the agent is not pushed to
  over-optimize a spec that is already met, and a large bonus ``R = 10`` is
  granted once *all* specifications are met.

* **FoM reward** (Sec. 4, "FoM Optimization"): for the RF PA the figure of
  merit is ``FoM = P + 3 E``; during training each term is normalized with a
  reference value, ``r_i = (P_i − P_r)/(P_i + P_r) + 3 (E_i − E_r)/(E_i + E_r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.circuits.specs import Objective, SpecificationSpace

#: Bonus granted when every specification of the target group is satisfied.
GOAL_BONUS = 10.0


def _defensive_errors(
    spec_space: SpecificationSpace,
    measured: Mapping[str, float],
    targets: Mapping[str, float],
) -> Tuple[Dict[str, float], bool]:
    """Per-spec clipped normalized errors, tolerating bad *measured* entries.

    A simulator that marks a result ``valid=True`` but omits a required
    specification (or reports NaN/inf for one) must not crash the reward —
    it is an invalid outcome in disguise.  Returns the per-spec error dict
    (worst-case ``-1.0`` for unusable entries, so diagnostics stay fully
    named) and whether every measurement was present and finite.

    Targets are the *caller's* input: a missing target key is a bug (e.g. a
    typo'd spec name in a deployment target group) and raises ``KeyError``
    exactly like the pre-hardening path, rather than silently scoring every
    step as invalid.  A non-finite target value, which previously poisoned
    the reward with NaN, takes the invalid path.
    """
    missing_targets = [spec.name for spec in spec_space if spec.name not in targets]
    if missing_targets:
        raise KeyError(f"missing target specifications: {missing_targets}")
    errors: Dict[str, float] = {}
    complete = True
    for spec in spec_space:
        measured_value = measured.get(spec.name)
        target_value = float(targets[spec.name])
        if (
            measured_value is None
            or not math.isfinite(float(measured_value))
            or not math.isfinite(target_value)
        ):
            errors[spec.name] = -1.0
            complete = False
        else:
            errors[spec.name] = spec.normalized_error(float(measured_value), target_value)
    return errors, complete


#: ``(name, minimum, span, minimize)`` of one specification, as scored.
SpecRow = Tuple[str, float, float, bool]

#: What :func:`error_pass` returns: ``(errors, features, raw, goal_reached,
#: met, complete)``.
ErrorPass = Tuple[Dict[str, float], List[float], float, bool, int, bool]


def spec_table(spec_space: SpecificationSpace) -> List[SpecRow]:
    """The rows :func:`error_pass` scores, in spec-space order."""
    return [
        (spec.name, spec.minimum, spec.maximum - spec.minimum, spec.objective is Objective.MINIMIZE)
        for spec in spec_space
    ]


def error_pass(
    table: Sequence[SpecRow], measured: Mapping[str, float], target_values: Sequence[float]
) -> ErrorPass:
    """One pass over a measurement's specs, shared by the P2S reward and the spec features.

    ``target_values`` holds the target of every row of ``table``, in order.
    Plain Python floats: a few specs cost less than the fixed overhead of
    array calls.  Returns:

    * ``errors`` — each spec's clipped normalized error
      (:meth:`Specification.normalized_error`), the reward's diagnostics;
      ``-1.0`` where the measured value is missing or non-finite, or the
      target is non-finite;
    * ``features`` — the range-normalized measured values, then the errors
      as the observation's spec features carry them: a missing or
      non-finite measured value gets ``0.0`` and ``-1.0``, and a non-finite
      target keeps the arithmetic's (NaN) error;
    * ``raw`` — the Eq. (1) shaping sum, folded left to right from ``-0.0``
      (the exact identity of float addition, so a lone ``-0.0`` error stays
      ``-0.0``).  Below 8 specs that is bitwise numpy's
      ``np.array(errors).sum()`` (numpy sums pairwise from 8 elements on),
      and every catalog spec space has 2–4;
    * ``goal_reached`` (every usable error is ``>= 0``), ``met`` (the count
      of usable specs meeting their target) and ``complete`` (no spec was
      unusable).
    """
    errors: Dict[str, float] = {}
    normalized: List[float] = []
    feature_errors: List[float] = []
    raw = -0.0
    goal_reached = True
    met = 0
    complete = True
    for (name, minimum, span, minimize), target in zip(table, target_values):
        value = measured.get(name)
        if value is None or not math.isfinite(value := float(value)):
            errors[name] = -1.0
            normalized.append(0.0)
            feature_errors.append(-1.0)
            complete = False
            continue
        normalized.append((value - minimum) / span)
        denominator = abs(value) + abs(target)
        if denominator <= 0.0:
            error = 0.0
        else:
            difference = (value - target) / denominator
            error = min(-difference if minimize else difference, 0.0)
        feature_errors.append(error)
        if not math.isfinite(target):
            errors[name] = -1.0
            complete = False
            continue
        errors[name] = error
        raw += error
        if not error >= 0.0:
            goal_reached = False
        if (value <= target) if minimize else (value >= target):
            met += 1
    return errors, normalized + feature_errors, raw, goal_reached, met, complete


@dataclass
class RewardOutcome:
    """Reward plus the per-spec diagnostics environments expose in ``info``."""

    reward: float
    goal_reached: bool
    normalized_errors: Dict[str, float]
    met_fraction: float


class P2SReward:
    """The paper's Eq. (1) reward for parameter-to-specification search.

    Parameters
    ----------
    spec_space:
        The circuit's specification space (provides objective directions).
    goal_bonus:
        Reward granted when all specifications are met (``R`` in Eq. 1).
    invalid_penalty:
        Reward returned when the simulator reports a degenerate operating
        point; strongly negative so the policy learns to avoid such regions.
    """

    def __init__(
        self,
        spec_space: SpecificationSpace,
        goal_bonus: float = GOAL_BONUS,
        invalid_penalty: float | None = None,
    ) -> None:
        self.spec_space = spec_space
        self._table = spec_table(spec_space)
        self.goal_bonus = goal_bonus
        # Default: one unit of penalty per specification (the worst possible
        # Eq. 1 value), used for invalid simulation results.
        self.invalid_penalty = (
            float(invalid_penalty) if invalid_penalty is not None else -float(len(spec_space))
        )

    def __call__(
        self,
        measured: Mapping[str, float],
        targets: Mapping[str, float],
        valid: bool = True,
    ) -> RewardOutcome:
        """Score one measurement against one target group.

        One :func:`error_pass` over the specs (``-1.0`` for a missing or
        non-finite value, which makes the outcome invalid), then
        :meth:`outcome`.  A missing *target* raises ``KeyError`` naming every
        missing spec.
        """
        try:
            target_values = [float(targets[name]) for name, *_ in self._table]
        except KeyError:
            missing = [s.name for s in self.spec_space if s.name not in targets]
            raise KeyError(f"missing target specifications: {missing}") from None
        errors, _, raw, goal_reached, met, complete = error_pass(
            self._table, measured, target_values
        )
        return self.outcome(errors, raw, goal_reached, met, complete, valid)

    def outcome(
        self,
        errors: Dict[str, float],
        raw: float,
        goal_reached: bool,
        met: int,
        complete: bool,
        valid: bool,
    ) -> RewardOutcome:
        """The Eq. (1) outcome of one :func:`error_pass` over ``spec_space``."""
        if not valid or not complete:
            # Missing or non-finite required specs are an invalid outcome in
            # disguise; both take the invalid-penalty path.
            return RewardOutcome(
                reward=self.invalid_penalty,
                goal_reached=False,
                normalized_errors=errors,
                met_fraction=0.0,
            )
        return RewardOutcome(
            reward=self.goal_bonus if goal_reached else raw,
            goal_reached=goal_reached,
            normalized_errors=errors,
            met_fraction=met / len(self._table),
        )


class FomReward:
    """Figure-of-merit reward for the RF PA (``FoM = P + 3 E``).

    Parameters
    ----------
    spec_space:
        Specification space (only used for naming/diagnostics).
    power_reference, efficiency_reference:
        The normalization references ``P_r`` and ``E_r``; the paper uses
        references drawn from the sampling space (we default to its
        midpoints: 2.5 W and 55 %).
    efficiency_weight:
        The factor 3 from the paper's FoM definition.
    """

    def __init__(
        self,
        spec_space: SpecificationSpace,
        power_reference: float = 2.5,
        efficiency_reference: float = 0.55,
        efficiency_weight: float = 3.0,
    ) -> None:
        if power_reference <= 0 or efficiency_reference <= 0:
            raise ValueError("references must be positive")
        self.spec_space = spec_space
        self.power_reference = power_reference
        self.efficiency_reference = efficiency_reference
        self.efficiency_weight = efficiency_weight

    #: Specs a simulation result must report for the FoM to be computable.
    REQUIRED_SPECS = ("output_power", "efficiency")

    def figure_of_merit(self, measured: Mapping[str, float]) -> float:
        """Un-normalized figure of merit ``P + 3 E`` (what Table 2 reports).

        NaN when the result omits a required spec, so diagnostics consumers
        (e.g. the environment's ``info`` dict) degrade instead of raising.
        """
        if not self._usable(measured):
            return float("nan")
        return float(measured["output_power"]) + self.efficiency_weight * float(
            measured["efficiency"]
        )

    @classmethod
    def _usable(cls, measured: Mapping[str, float]) -> bool:
        return all(
            measured.get(name) is not None and math.isfinite(float(measured[name]))
            for name in cls.REQUIRED_SPECS
        )

    @property
    def invalid_penalty(self) -> float:
        """Reward of an invalid (or spec-incomplete) simulation outcome."""
        return -2.0 * (1.0 + self.efficiency_weight)

    def __call__(
        self,
        measured: Mapping[str, float],
        targets: Mapping[str, float] | None = None,
        valid: bool = True,
    ) -> RewardOutcome:
        if not valid or not self._usable(measured):
            # A result marked valid but missing output_power/efficiency (or
            # carrying NaN) cannot be scored; treat it as invalid instead of
            # raising out of the middle of a rollout.
            return RewardOutcome(
                reward=self.invalid_penalty,
                goal_reached=False,
                normalized_errors={},
                met_fraction=0.0,
            )
        power = float(measured["output_power"])
        efficiency = float(measured["efficiency"])
        power_term = (power - self.power_reference) / (power + self.power_reference)
        eff_term = (efficiency - self.efficiency_reference) / (
            efficiency + self.efficiency_reference
        )
        reward = power_term + self.efficiency_weight * eff_term
        return RewardOutcome(
            reward=float(reward),
            goal_reached=False,
            normalized_errors={"output_power": power_term, "efficiency": eff_term},
            met_fraction=0.0,
        )
