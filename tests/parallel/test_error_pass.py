"""The one error pass, against the P2S reward and spec features it replaced.

``repro.env.reward.error_pass`` computes each spec's clipped normalized
error once per lane; the P2S reward (``P2SReward.outcome``) and the
observation's spec features both read it.  ``reference_outcome`` below is
the reward's former standalone pass and ``spec_feature_vector``
(``tests/parallel/step_reference.py``) the per-spec feature reference; on
the edge cases — a missing or NaN measured spec, a non-finite target, a
zero denominator, a ``-0.0`` error — both must agree bit for bit, through
the function and through the environment step.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.circuits.specs import Objective
from repro.env.reward import P2SReward, RewardOutcome, error_pass, spec_table
from step_reference import spec_feature_vector
from test_scalar_env_parity import FixedSimulator

NAN, INF = math.nan, math.inf

#: gain, bandwidth and phase margin are maximized; power is minimized.
TARGETS = {"gain": 350.0, "bandwidth": 2e7, "phase_margin": 58.0, "power": 5e-3}

#: (measured, targets) pairs covering the edge cases.
CASES = {
    "finite": ({"gain": 400.0, "bandwidth": 1e7, "phase_margin": 60.0, "power": 1e-3}, TARGETS),
    "all-met": ({"gain": 400.0, "bandwidth": 3e7, "phase_margin": 60.0, "power": 1e-3}, TARGETS),
    "missing": ({"gain": 400.0, "phase_margin": 58.0, "power": 5e-3}, TARGETS),
    "nan-measured": (
        {"gain": NAN, "bandwidth": 1e7, "phase_margin": 60.0, "power": 1e-3},
        TARGETS,
    ),
    "inf-measured": (
        {"gain": INF, "bandwidth": -INF, "phase_margin": 60.0, "power": 1e-3},
        TARGETS,
    ),
    "nan-target": (
        {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 60.0, "power": 1e-3},
        {**TARGETS, "gain": NAN, "power": NAN},
    ),
    "inf-target": (
        {"gain": 400.0, "bandwidth": 1e7, "phase_margin": 60.0, "power": 1e-3},
        {**TARGETS, "gain": INF, "bandwidth": -INF, "power": INF},
    ),
    "zero-denominator": (
        {"gain": 0.0, "bandwidth": -0.0, "phase_margin": 60.0, "power": 0.0},
        {**TARGETS, "gain": 0.0, "bandwidth": 0.0, "power": -0.0},
    ),
    # value == target: a maximized spec's error is 0.0, a minimized one's
    # min(-0.0, 0.0) == -0.0, and a sum of -0.0 errors stays -0.0.
    "negative-zero": (
        {"gain": 350.0, "bandwidth": 2e7, "phase_margin": 58.0, "power": 5e-3},
        TARGETS,
    ),
}


def reference_outcome(reward, measured, targets, valid=True):
    """The P2S reward's standalone pass, one spec at a time."""
    errors, complete, raw, goal_reached, met = {}, True, -0.0, True, 0
    for spec in reward.spec_space:
        value, target = measured.get(spec.name), float(targets[spec.name])
        if value is None or not math.isfinite(float(value)) or not math.isfinite(target):
            errors[spec.name] = -1.0
            complete = False
            continue
        value = float(value)
        error = spec.normalized_error(value, target)
        errors[spec.name] = error
        raw += error
        if not error >= 0.0:
            goal_reached = False
        if (value <= target) if spec.objective is Objective.MINIMIZE else (value >= target):
            met += 1
    if not valid or not complete:
        return RewardOutcome(reward.invalid_penalty, False, errors, 0.0)
    return RewardOutcome(
        reward.goal_bonus if goal_reached else raw,
        goal_reached,
        errors,
        met / len(reward.spec_space),
    )


def _bits(value):
    return np.float64(value).tobytes()


def _assert_outcome_equal(got, want):
    assert _bits(got.reward) == _bits(want.reward)
    assert got.goal_reached == want.goal_reached
    assert list(got.normalized_errors) == list(want.normalized_errors)
    for name, error in want.normalized_errors.items():
        assert _bits(got.normalized_errors[name]) == _bits(error), name
    assert _bits(got.met_fraction) == _bits(want.met_fraction)


#: The circuit whose specs the cases name (in the test ids, so the CI
#: parity job's ``-k opamp`` leg selects them).
ENV_IDS = ["opamp-p2s-v0"]


@pytest.fixture(scope="module", params=ENV_IDS)
def env(request):
    return repro.make_env(request.param, seed=0, max_steps=3)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_error_pass_matches_reward_and_features(env, case, valid):
    measured, targets = CASES[case]
    spec_space = env.benchmark.spec_space
    reward = P2SReward(spec_space)
    table = spec_table(spec_space)
    target_values = [targets[name] for name in spec_space.names]
    errors, features, raw, goal_reached, met, complete = error_pass(
        table, measured, target_values
    )
    want = reference_outcome(reward, measured, targets, valid=valid)
    _assert_outcome_equal(reward.outcome(errors, raw, goal_reached, met, complete, valid), want)
    _assert_outcome_equal(reward(measured, targets, valid=valid), want)
    normalized_targets = [(t - row[1]) / row[2] for t, row in zip(target_values, table)]
    assert (
        np.array(normalized_targets + features).tobytes()
        == spec_feature_vector(env, measured, targets).tobytes()
    )


def test_edge_cases_read_as_documented(env):
    table = spec_table(env.benchmark.spec_space)
    names = env.benchmark.spec_space.names
    size = len(names)

    def run(case):
        measured, targets = CASES[case]
        return error_pass(table, measured, [targets[name] for name in names])

    errors, features, *_, complete = run("missing")
    position = names.index("bandwidth")
    assert features[position] == 0.0 and features[size + position] == -1.0
    assert errors["bandwidth"] == -1.0 and not complete
    # A non-finite target: the features keep NaN, the reward scores -1.0.
    errors, features, *_ = run("inf-target")
    for name in ("gain", "bandwidth", "power"):
        assert math.isnan(features[size + names.index(name)]) and errors[name] == -1.0
    errors, features, raw, goal_reached, met, complete = run("zero-denominator")
    assert errors["gain"] == 0.0 and errors["power"] == 0.0 and complete
    errors, _, raw, goal_reached, met, complete = run("negative-zero")
    assert math.copysign(1.0, errors["power"]) == -1.0
    assert math.copysign(1.0, errors["gain"]) == 1.0
    assert goal_reached and met == size and complete
    # The fold starts at -0.0, so -0.0 errors alone sum to -0.0.
    minimized = [row for row in table if row[3]]
    _, _, raw, *_ = error_pass(minimized, {"power": 5e-3}, [5e-3])
    assert _bits(raw) == _bits(-0.0)


class CallingReward(P2SReward):
    """Overrides ``__call__`` (the lane keeps the called path)."""

    def __call__(self, measured, targets, valid=True):
        outcome = super().__call__(measured, targets, valid=valid)
        outcome.reward += 1.0
        return outcome


class HarshReward(P2SReward):
    """Keeps ``__call__``; its own penalty and bonus must still apply."""

    def __init__(self, spec_space):
        super().__init__(spec_space, goal_bonus=3.0, invalid_penalty=-100.0)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("reward_cls", [P2SReward, CallingReward, HarshReward])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_step_scores_like_the_reference(env_id, case, reward_cls, valid):
    measured, targets = CASES[case]
    env = repro.make_env(env_id, seed=0, max_steps=3)
    env.simulator = FixedSimulator(measured, valid)
    env.reward_fn = reward_cls(env.benchmark.spec_space)
    features = spec_feature_vector(env, measured, targets).tobytes()
    assert env.reset(target_specs=targets).spec_features.tobytes() == features
    observation, reward, _, info = env.step(env.action_space.no_op())
    assert observation.spec_features.tobytes() == features
    want = reference_outcome(env.reward_fn, measured, targets, valid=valid)
    if reward_cls is CallingReward:
        want.reward += 1.0
    assert _bits(reward) == _bits(want.reward)
    assert info["goal_reached"] == want.goal_reached
    assert info["met_fraction"] == want.met_fraction
    assert [_bits(e) for e in info["normalized_errors"].values()] == [
        _bits(e) for e in want.normalized_errors.values()
    ]
