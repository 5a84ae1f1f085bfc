"""Tests for specifications and the sampling space."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.specs import Objective, Specification, SpecificationSpace


@pytest.fixture
def gain_spec() -> Specification:
    return Specification("gain", 300.0, 500.0, Objective.MAXIMIZE)


@pytest.fixture
def power_spec() -> Specification:
    return Specification("power", 1e-4, 1e-2, Objective.MINIMIZE, log_uniform=True)


@pytest.fixture
def space(gain_spec, power_spec) -> SpecificationSpace:
    return SpecificationSpace([gain_spec, power_spec])


class TestSpecification:
    def test_validation(self):
        with pytest.raises(ValueError):
            Specification("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            Specification("x", -1.0, 1.0, log_uniform=True)

    def test_sampling_ranges(self, gain_spec, power_spec, rng):
        for _ in range(100):
            assert 300.0 <= gain_spec.sample(rng) <= 500.0
            assert 1e-4 <= power_spec.sample(rng) <= 1e-2

    def test_is_met_maximize(self, gain_spec):
        assert gain_spec.is_met(measured=400.0, target=350.0)
        assert not gain_spec.is_met(measured=300.0, target=350.0)
        assert gain_spec.is_met(measured=349.0, target=350.0, rel_tol=0.01)

    def test_is_met_minimize(self, power_spec):
        assert power_spec.is_met(measured=1e-3, target=5e-3)
        assert not power_spec.is_met(measured=1e-2, target=5e-3)

    def test_normalized_error_signs(self, gain_spec, power_spec):
        # Meeting or exceeding the target gives exactly zero.
        assert gain_spec.normalized_error(400.0, 350.0) == 0.0
        assert power_spec.normalized_error(1e-3, 5e-3) == 0.0
        # Missing the target gives a negative value bounded by -1.
        assert -1.0 <= gain_spec.normalized_error(300.0, 500.0) < 0.0
        assert -1.0 <= power_spec.normalized_error(1e-2, 1e-4) < 0.0

    def test_normalized_error_matches_paper_formula(self, gain_spec):
        measured, target = 320.0, 400.0
        expected = (measured - target) / (measured + target)
        assert gain_spec.normalized_error(measured, target) == pytest.approx(expected)

    def test_normalize_value(self, gain_spec):
        assert gain_spec.normalize_value(300.0) == pytest.approx(0.0)
        assert gain_spec.normalize_value(500.0) == pytest.approx(1.0)
        assert gain_spec.normalize_value(400.0) == pytest.approx(0.5)


class TestSpecificationSpace:
    def test_basic(self, space):
        assert len(space) == 2
        assert space.names == ["gain", "power"]
        assert space["gain"].objective is Objective.MAXIMIZE
        assert space[1].name == "power"

    def test_unique_names(self, gain_spec):
        with pytest.raises(ValueError):
            SpecificationSpace([gain_spec, gain_spec])

    def test_sample_and_vector_roundtrip(self, space, rng):
        group = space.sample(rng)
        vector = np.array([group[name] for name in space.names])
        assert space.to_dict(vector) == pytest.approx(group)

    def test_sample_batch(self, space, rng):
        batch = space.sample_batch(rng, 10)
        assert len(batch) == 10
        assert all(set(group) == {"gain", "power"} for group in batch)

    def test_all_met_and_fraction(self, space):
        targets = {"gain": 400.0, "power": 1e-3}
        met = {"gain": 450.0, "power": 5e-4}
        half = {"gain": 450.0, "power": 5e-3}
        none = {"gain": 350.0, "power": 5e-3}
        assert space.all_met(met, targets)
        assert not space.all_met(half, targets)
        assert space.met_fraction(half, targets) == pytest.approx(0.5)
        assert space.met_fraction(none, targets) == pytest.approx(0.0)

    def test_normalized_errors_vector(self, space):
        targets = {"gain": 400.0, "power": 1e-3}
        errors = space.normalized_errors({"gain": 450.0, "power": 5e-3}, targets)
        assert errors[0] == 0.0
        assert errors[1] < 0.0


@settings(max_examples=60, deadline=None)
@given(
    measured=st.floats(min_value=1e-6, max_value=1e6),
    target=st.floats(min_value=1e-6, max_value=1e6),
    maximize=st.booleans(),
)
def test_property_normalized_error_bounded_and_consistent(measured, target, maximize):
    """The Eq. (1) error term is always in [-1, 0] and zero iff the spec is met."""
    spec = Specification(
        "s", 1e-6, 1e7, Objective.MAXIMIZE if maximize else Objective.MINIMIZE
    )
    error = spec.normalized_error(measured, target)
    assert -1.0 <= error <= 0.0
    if spec.is_met(measured, target):
        assert error == 0.0
    else:
        assert error < 0.0
