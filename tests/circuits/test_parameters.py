"""Tests for design parameters and the discrete design space."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.devices import nmos
from repro.circuits.netlist import Netlist
from repro.circuits.parameters import ACTION_DELTAS, DesignParameter, DesignSpace


@pytest.fixture
def width_parameter() -> DesignParameter:
    return DesignParameter("M1.width", "M1", "width", minimum=1e-6, maximum=100e-6, step=1e-6)


@pytest.fixture
def finger_parameter() -> DesignParameter:
    return DesignParameter(
        "M1.fingers", "M1", "fingers", minimum=2, maximum=32, step=1, integer=True
    )


@pytest.fixture
def space(width_parameter, finger_parameter) -> DesignSpace:
    return DesignSpace([width_parameter, finger_parameter])


class TestDesignParameter:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesignParameter("x", "d", "a", minimum=2.0, maximum=1.0, step=0.1)
        with pytest.raises(ValueError):
            DesignParameter("x", "d", "a", minimum=0.0, maximum=1.0, step=0.0)
        with pytest.raises(ValueError):
            DesignParameter("x", "d", "a", minimum=0.0, maximum=1.0, step=2.0)

    def test_num_levels(self, width_parameter, finger_parameter):
        assert width_parameter.num_levels == 100
        assert finger_parameter.num_levels == 31

    def test_clip_and_snap(self, width_parameter):
        assert width_parameter.clip(500e-6) == pytest.approx(100e-6)
        assert width_parameter.clip(0.0) == pytest.approx(1e-6)
        assert width_parameter.snap(5.4e-6) == pytest.approx(5e-6)
        assert width_parameter.snap(5.6e-6) == pytest.approx(6e-6)

    def test_integer_snap(self, finger_parameter):
        assert finger_parameter.snap(7.3) == 7
        assert finger_parameter.clip(100) == 32

    def test_apply_delta_respects_bounds(self, width_parameter):
        assert width_parameter.apply_delta(1e-6, -1) == pytest.approx(1e-6)
        assert width_parameter.apply_delta(100e-6, +1) == pytest.approx(100e-6)
        assert width_parameter.apply_delta(50e-6, +1) == pytest.approx(51e-6)
        assert width_parameter.apply_delta(50e-6, 0) == pytest.approx(50e-6)
        with pytest.raises(ValueError):
            width_parameter.apply_delta(50e-6, 2)

    def test_normalize_roundtrip(self, width_parameter):
        assert width_parameter.normalize(1e-6) == pytest.approx(0.0)
        assert width_parameter.normalize(100e-6) == pytest.approx(1.0)
        assert width_parameter.denormalize(0.5) == pytest.approx(width_parameter.snap(50.5e-6))


class TestDesignSpace:
    def test_basic_properties(self, space):
        assert len(space) == 2
        assert space.names == ["M1.width", "M1.fingers"]
        assert space["M1.width"].attribute == "width"
        assert space[1].integer
        np.testing.assert_allclose(space.lower_bounds, [1e-6, 2])
        np.testing.assert_allclose(space.upper_bounds, [100e-6, 32])
        assert space.cardinality() == 100 * 31

    def test_unique_names_required(self, width_parameter):
        with pytest.raises(ValueError):
            DesignSpace([width_parameter, width_parameter])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace([])

    def test_netlist_roundtrip(self, space):
        netlist = Netlist("test", [nmos("M1", "d", "g", "s", width=10e-6, fingers=4)])
        values = space.vector_from_netlist(netlist)
        np.testing.assert_allclose(values, [10e-6, 4])
        space.apply_to_netlist(netlist, np.array([20.4e-6, 7.8]))
        np.testing.assert_allclose(space.vector_from_netlist(netlist), [20e-6, 8])

    def test_apply_actions(self, space):
        values = np.array([50e-6, 10.0])
        increased = space.apply_actions(values, np.array([2, 2]))
        np.testing.assert_allclose(increased, [51e-6, 11])
        decreased = space.apply_actions(values, np.array([0, 0]))
        np.testing.assert_allclose(decreased, [49e-6, 9])
        kept = space.apply_actions(values, np.array([1, 1]))
        np.testing.assert_allclose(kept, values)

    def test_apply_actions_validation(self, space):
        with pytest.raises(ValueError):
            space.apply_actions(np.array([50e-6, 10.0]), np.array([2]))
        with pytest.raises(ValueError):
            space.apply_actions(np.array([50e-6, 10.0]), np.array([3, 0]))

    def test_sample_within_bounds(self, space, rng):
        for _ in range(50):
            sample = space.sample(rng)
            assert np.all(sample >= space.lower_bounds - 1e-12)
            assert np.all(sample <= space.upper_bounds + 1e-12)

    def test_center(self, space):
        center = space.center()
        assert space.lower_bounds[0] < center[0] < space.upper_bounds[0]
        assert center[1] == 17


class TestActionDeltas:
    def test_ordering_matches_env_convention(self):
        assert ACTION_DELTAS == (-1, 0, 1)


@settings(max_examples=50, deadline=None)
@given(
    value=st.floats(min_value=-1e-3, max_value=1e-3),
    direction=st.sampled_from([-1, 0, 1]),
)
def test_property_apply_delta_stays_on_grid_and_in_bounds(value, direction):
    """Any starting value, after one action, lands on a grid point in bounds."""
    parameter = DesignParameter("p", "d", "a", minimum=1e-6, maximum=100e-6, step=1e-6)
    result = parameter.apply_delta(value, direction)
    assert parameter.minimum - 1e-12 <= result <= parameter.maximum + 1e-12
    levels = (result - parameter.minimum) / parameter.step
    assert abs(levels - round(levels)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(unit=st.floats(min_value=-0.5, max_value=1.5))
def test_property_denormalize_normalize_consistency(unit):
    """normalize(denormalize(u)) stays within [0, 1] and close to clip(u)."""
    parameter = DesignParameter("p", "d", "a", minimum=0.1e-12, maximum=10e-12, step=0.1e-12)
    value = parameter.denormalize(unit)
    recovered = parameter.normalize(value)
    assert 0.0 <= recovered <= 1.0
    assert abs(recovered - float(np.clip(unit, 0.0, 1.0))) < 0.02
