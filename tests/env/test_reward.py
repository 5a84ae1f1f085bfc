"""Tests for the Eq. (1) P2S reward and the FoM reward."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.specs import Objective, Specification, SpecificationSpace
from repro.env.reward import (
    GOAL_BONUS,
    FomReward,
    P2SReward,
    RewardOutcome,
    _defensive_errors,
)


@pytest.fixture
def spec_space() -> SpecificationSpace:
    return SpecificationSpace(
        [
            Specification("gain", 300.0, 500.0, Objective.MAXIMIZE),
            Specification("power", 1e-4, 1e-2, Objective.MINIMIZE),
        ]
    )


class TestP2SReward:
    def test_bonus_when_all_met(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward({"gain": 450.0, "power": 1e-3}, {"gain": 400.0, "power": 5e-3})
        assert outcome.reward == GOAL_BONUS
        assert outcome.goal_reached
        assert outcome.met_fraction == 1.0

    def test_negative_when_not_met(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward({"gain": 350.0, "power": 1e-3}, {"gain": 400.0, "power": 5e-3})
        assert outcome.reward < 0.0
        assert not outcome.goal_reached
        assert outcome.met_fraction == 0.5
        expected = (350.0 - 400.0) / (350.0 + 400.0)
        assert outcome.reward == pytest.approx(expected)

    def test_reward_never_positive_without_bonus(self, spec_space):
        """Eq. (1): each term is clipped at zero, so r <= 0 unless all met."""
        reward = P2SReward(spec_space, goal_bonus=0.0)
        outcome = reward({"gain": 1000.0, "power": 1e-5}, {"gain": 400.0, "power": 5e-3})
        assert outcome.reward == 0.0

    def test_reward_bounded_below_by_minus_num_specs(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward({"gain": 1e-9, "power": 1e3}, {"gain": 500.0, "power": 1e-4})
        assert outcome.reward >= -len(spec_space)

    def test_invalid_simulation_penalty(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward(
            {"gain": 450.0, "power": 1e-3}, {"gain": 400.0, "power": 5e-3}, valid=False
        )
        assert outcome.reward == -len(spec_space)
        assert not outcome.goal_reached

    def test_custom_invalid_penalty(self, spec_space):
        reward = P2SReward(spec_space, invalid_penalty=-42.0)
        outcome = reward({"gain": 1.0, "power": 1.0}, {"gain": 400.0, "power": 5e-3}, valid=False)
        assert outcome.reward == -42.0

    def test_named_errors_exposed(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward({"gain": 350.0, "power": 1e-1}, {"gain": 400.0, "power": 5e-3})
        assert set(outcome.normalized_errors) == {"gain", "power"}
        assert outcome.normalized_errors["gain"] < 0.0
        assert outcome.normalized_errors["power"] < 0.0


class TestFomReward:
    def test_figure_of_merit_definition(self, spec_space):
        reward = FomReward(spec_space)
        # FoM = P + 3 E (paper, Sec. 4).
        fom = reward.figure_of_merit({"output_power": 2.5, "efficiency": 0.6})
        assert fom == pytest.approx(4.3)

    def test_reward_zero_at_references(self, spec_space):
        reward = FomReward(spec_space, power_reference=2.5, efficiency_reference=0.55)
        outcome = reward({"output_power": 2.5, "efficiency": 0.55})
        assert outcome.reward == pytest.approx(0.0)

    def test_reward_increases_with_both_terms(self, spec_space):
        reward = FomReward(spec_space)
        low = reward({"output_power": 2.0, "efficiency": 0.50}).reward
        high = reward({"output_power": 3.0, "efficiency": 0.60}).reward
        assert high > low

    def test_efficiency_weighted_three_times(self, spec_space):
        reward = FomReward(spec_space, power_reference=2.5, efficiency_reference=0.55)
        power_only = reward({"output_power": 3.0, "efficiency": 0.55}).reward
        eff_only = reward({"output_power": 2.5, "efficiency": 0.66}).reward
        # The efficiency term uses the same normalized difference but x3.
        assert eff_only > power_only

    def test_invalid_result_penalized(self, spec_space):
        reward = FomReward(spec_space)
        assert reward({"output_power": 2.5, "efficiency": 0.55}, valid=False).reward < 0.0

    def test_reference_validation(self, spec_space):
        with pytest.raises(ValueError):
            FomReward(spec_space, power_reference=0.0)


class TestMissingAndNanSpecs:
    """A result marked valid but missing/NaN on required specs must take the
    invalid-penalty path instead of raising (simulation-cache and reward
    hardening, PR 3)."""

    def test_p2s_empty_measured_dict(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward({}, {"gain": 400.0, "power": 5e-3}, valid=True)
        assert outcome.reward == -len(spec_space)
        assert not outcome.goal_reached
        assert outcome.met_fraction == 0.0
        assert outcome.normalized_errors == {"gain": -1.0, "power": -1.0}

    def test_p2s_partially_missing_specs(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward({"gain": 450.0}, {"gain": 400.0, "power": 5e-3})
        assert outcome.reward == -len(spec_space)
        assert outcome.normalized_errors["gain"] >= 0.0
        assert outcome.normalized_errors["power"] == -1.0

    def test_p2s_nan_measured_value(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward(
            {"gain": float("nan"), "power": 1e-3}, {"gain": 400.0, "power": 5e-3}
        )
        assert outcome.reward == -len(spec_space)
        assert not outcome.goal_reached

    def test_p2s_infinite_measured_value(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward(
            {"gain": float("inf"), "power": 1e-3}, {"gain": 400.0, "power": 5e-3}
        )
        assert outcome.reward == -len(spec_space)

    def test_p2s_nan_target_value(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward(
            {"gain": 450.0, "power": 1e-3}, {"gain": float("nan"), "power": 5e-3}
        )
        assert outcome.reward == -len(spec_space)

    def test_p2s_missing_target_key_raises(self, spec_space):
        """Targets are caller input: a typo'd spec name must stay loud."""
        reward = P2SReward(spec_space)
        with pytest.raises(KeyError, match="missing target"):
            reward({"gain": 450.0, "power": 1e-3}, {"gian": 400.0, "power": 5e-3})

    def test_fom_empty_measured_dict(self, spec_space):
        reward = FomReward(spec_space)
        outcome = reward({}, valid=True)
        assert outcome.reward == reward.invalid_penalty
        assert not outcome.goal_reached

    def test_fom_missing_efficiency(self, spec_space):
        reward = FomReward(spec_space)
        outcome = reward({"output_power": 2.5}, valid=True)
        assert outcome.reward == reward.invalid_penalty

    def test_fom_nan_spec_value(self, spec_space):
        reward = FomReward(spec_space)
        outcome = reward({"output_power": float("nan"), "efficiency": 0.55})
        assert outcome.reward == reward.invalid_penalty

    def test_fom_figure_of_merit_nan_on_missing(self, spec_space):
        import math

        reward = FomReward(spec_space)
        assert math.isnan(reward.figure_of_merit({"output_power": 2.5}))
        assert math.isnan(reward.figure_of_merit({}))

    def test_valid_path_unchanged(self, spec_space):
        reward = P2SReward(spec_space)
        outcome = reward({"gain": 450.0, "power": 1e-3}, {"gain": 400.0, "power": 5e-3})
        assert outcome.reward == GOAL_BONUS


@settings(max_examples=40, deadline=None)
@given(
    gain=st.floats(min_value=1.0, max_value=1e4),
    power=st.floats(min_value=1e-6, max_value=1.0),
    target_gain=st.floats(min_value=300.0, max_value=500.0),
    target_power=st.floats(min_value=1e-4, max_value=1e-2),
)
def test_property_p2s_reward_is_bonus_or_nonpositive(gain, power, target_gain, target_power):
    """The Eq. (1) reward is either the goal bonus or a value in [-N, 0]."""
    spec_space = SpecificationSpace(
        [
            Specification("gain", 300.0, 500.0, Objective.MAXIMIZE),
            Specification("power", 1e-4, 1e-2, Objective.MINIMIZE),
        ]
    )
    outcome = P2SReward(spec_space)({"gain": gain, "power": power},
                                    {"gain": target_gain, "power": target_power})
    if outcome.goal_reached:
        assert outcome.reward == GOAL_BONUS
    else:
        assert -len(spec_space) <= outcome.reward < 0.0 or outcome.reward == 0.0


def _numpy_p2s(reward, measured, targets, valid=True):
    """The pre-inlining ``P2SReward.__call__``: numpy sum and ``all``."""
    errors, complete = _defensive_errors(reward.spec_space, measured, targets)
    if not valid or not complete:
        return RewardOutcome(reward.invalid_penalty, False, errors, 0.0)
    values = np.array([errors[name] for name in reward.spec_space.names])
    goal_reached = bool(np.all(values >= 0.0))
    return RewardOutcome(
        reward=reward.goal_bonus if goal_reached else float(values.sum()),
        goal_reached=goal_reached,
        normalized_errors=errors,
        met_fraction=reward.spec_space.met_fraction(measured, targets),
    )


def _outcome_bits(outcome):
    return (
        np.float64(outcome.reward).tobytes(),
        outcome.goal_reached,
        list(outcome.normalized_errors),
        np.array(list(outcome.normalized_errors.values()), dtype=np.float64).tobytes(),
        np.float64(outcome.met_fraction).tobytes(),
    )


@pytest.mark.parametrize("num_specs", [2, 4, 7])
def test_p2s_reward_matches_numpy_formula_bitwise(num_specs):
    """Pins the plain-float reward to the numpy formula it replaced.

    Covers random values in both objective directions, signed zeros (the
    ``0/0`` guard and a sum of ``-0.0`` errors), NaN/inf values, ±1.7e308
    pairs whose ``inf/inf`` error is NaN, missing measured specs and
    ``valid=False``.
    """
    spec_space = SpecificationSpace(
        [
            Specification(
                f"s{i}", 1.0, 2.0, Objective.MINIMIZE if i % 2 else Objective.MAXIMIZE
            )
            for i in range(num_specs)
        ]
    )
    reward = P2SReward(spec_space)
    names = spec_space.names
    rng = np.random.default_rng(num_specs)
    specials = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 1.7e308, -1.7e308]
    for trial in range(2000):
        measured = {n: float(rng.lognormal(0.0, 2.0) * rng.choice([-1.0, 1.0])) for n in names}
        targets = {n: float(rng.lognormal(0.0, 2.0)) for n in names}
        if trial % 4 == 1:
            for values in (measured, targets):
                name = names[rng.integers(num_specs)]
                values[name] = specials[rng.integers(len(specials))]
        elif trial % 4 == 2:
            # Every error a signed zero: met or 0/0 on each spec.
            sign = rng.choice([-1.0, 1.0])
            measured = {n: sign * 0.0 for n in names}
            targets = {n: rng.choice([-0.0, 0.0]) for n in names}
        elif trial % 4 == 3:
            del measured[names[rng.integers(num_specs)]]
        valid = bool(trial % 7)
        assert _outcome_bits(reward(measured, targets, valid=valid)) == _outcome_bits(
            _numpy_p2s(reward, measured, targets, valid=valid)
        )
    with pytest.raises(KeyError, match=f"missing target specifications: \\['{names[-1]}'\\]"):
        reward(measured, {n: 1.0 for n in names[:-1]})
