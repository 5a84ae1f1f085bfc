"""Tests for the two-stage op-amp evaluator (trends, validity, calibration)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_two_stage_opamp
from repro.simulation.opamp_sim import OpAmpSimulator

def lane_values(simulator, netlist):
    """The netlist's values of ``simulator.reads``: what ``operating_point`` reads."""
    return netlist.layout.lanes(netlist.parameter_array()[None], simulator.reads)[0]



def sized_netlist(overrides=None):
    """Fresh op-amp netlist with optional (device, attribute) overrides."""
    benchmark = build_two_stage_opamp()
    netlist = benchmark.fresh_netlist()
    for (device, attribute), value in (overrides or {}).items():
        netlist.set_parameter(device, attribute, value)
    return netlist


class TestSpecOutputs:
    def test_returns_all_four_specs(self, opamp_simulator):
        result = opamp_simulator.simulate(sized_netlist())
        assert set(result.specs) == {"gain", "bandwidth", "phase_margin", "power"}
        assert result.valid
        assert result.spec("gain") > 1.0
        assert result.spec("bandwidth") > 0.0
        assert 0.0 <= result.spec("phase_margin") <= 180.0
        assert result.spec("power") > 0.0

    def test_details_expose_operating_point(self, opamp_simulator):
        result = opamp_simulator.simulate(sized_netlist())
        for key in ("tail_current", "gm1", "gm6", "dominant_pole_hz", "output_pole_hz"):
            assert key in result.details
        assert result.details["tail_current"] > 0.0

    def test_unknown_spec_lookup_raises(self, opamp_simulator):
        result = opamp_simulator.simulate(sized_netlist())
        with pytest.raises(KeyError):
            result.spec("psrr")

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            OpAmpSimulator(method="transient")


class TestDesignTrends:
    """Monotone parameter→spec relations a sizing agent must be able to exploit."""

    def test_power_increases_with_tail_device_width(self, opamp_simulator):
        small = opamp_simulator.simulate(sized_netlist({("M5", "width"): 5e-6}))
        large = opamp_simulator.simulate(sized_netlist({("M5", "width"): 80e-6}))
        assert large.spec("power") > small.spec("power")

    def test_bandwidth_decreases_with_compensation_cap(self, opamp_simulator):
        small_cc = opamp_simulator.simulate(sized_netlist({("CC", "value"): 0.5e-12}))
        large_cc = opamp_simulator.simulate(sized_netlist({("CC", "value"): 8e-12}))
        assert small_cc.spec("bandwidth") > large_cc.spec("bandwidth")

    def test_phase_margin_improves_with_compensation_cap(self, opamp_simulator):
        small_cc = opamp_simulator.simulate(sized_netlist({("CC", "value"): 0.3e-12}))
        large_cc = opamp_simulator.simulate(sized_netlist({("CC", "value"): 8e-12}))
        assert large_cc.spec("phase_margin") > small_cc.spec("phase_margin")

    def test_gain_increases_with_input_pair_width(self, opamp_simulator):
        narrow = opamp_simulator.simulate(
            sized_netlist({("M1", "width"): 5e-6, ("M2", "width"): 5e-6})
        )
        wide = opamp_simulator.simulate(
            sized_netlist({("M1", "width"): 90e-6, ("M2", "width"): 90e-6})
        )
        assert wide.spec("gain") > narrow.spec("gain")

    def test_gain_decreases_with_tail_current(self, opamp_simulator):
        """Larger bias current lowers ro faster than it raises gm (gain ~ 1/sqrt(I))."""
        low_current = opamp_simulator.simulate(sized_netlist({("M5", "width"): 4e-6}))
        high_current = opamp_simulator.simulate(sized_netlist({("M5", "width"): 90e-6}))
        assert low_current.spec("gain") > high_current.spec("gain")

    def test_bandwidth_increases_with_input_pair_width(self, opamp_simulator):
        narrow = opamp_simulator.simulate(sized_netlist({("M1", "width"): 2e-6}))
        wide = opamp_simulator.simulate(sized_netlist({("M1", "width"): 80e-6}))
        assert wide.spec("bandwidth") > narrow.spec("bandwidth")


class TestOperatingPoint:
    def test_power_matches_supply_times_current(self, opamp_simulator):
        netlist = sized_netlist()
        op = opamp_simulator.operating_point(lane_values(opamp_simulator, netlist))
        expected = 1.2 * (
            op.tail_current + op.second_stage_current + opamp_simulator.bias_overhead_current
        )
        assert op.power_w == pytest.approx(expected)

    def test_gbw_formula(self, opamp_simulator):
        netlist = sized_netlist()
        op = opamp_simulator.operating_point(lane_values(opamp_simulator, netlist))
        cc = netlist.get_parameter("CC", "value")
        assert op.unity_gain_bandwidth_hz == pytest.approx(op.gm1 / (2 * np.pi * cc))

    def test_zero_frequency_is_gm6_over_cc(self, opamp_simulator):
        netlist = sized_netlist()
        op = opamp_simulator.operating_point(lane_values(opamp_simulator, netlist))
        cc = netlist.get_parameter("CC", "value")
        assert op.zero_hz == pytest.approx(op.gm6 / (2 * np.pi * cc))


class TestCalibration:
    def test_table1_spec_space_is_reachable(self, opamp_simulator, opamp_benchmark, rng):
        """Some design in the Table 1 space meets a mid-range target group.

        This is the calibration property that makes the P2S problem well
        posed: the specification sampling space must not be empty of
        solutions.
        """
        target = {"gain": 350.0, "bandwidth": 5e6, "phase_margin": 56.0, "power": 5e-3}
        space = opamp_benchmark.design_space
        found = False
        for _ in range(400):
            netlist = opamp_benchmark.fresh_netlist()
            space.apply_to_netlist(netlist, space.sample(rng))
            result = opamp_simulator.simulate(netlist)
            if opamp_benchmark.spec_space.all_met(result.specs, target):
                found = True
                break
        assert found, "no random design met a mid-range target group"

    def test_simulation_is_deterministic(self, opamp_simulator):
        netlist = sized_netlist()
        first = opamp_simulator.simulate(netlist).specs
        second = opamp_simulator.simulate(netlist).specs
        assert first == second


@settings(max_examples=25, deadline=None)
@given(
    width_um=st.floats(min_value=1.0, max_value=100.0),
    fingers=st.integers(min_value=2, max_value=32),
    cc_pf=st.floats(min_value=0.1, max_value=10.0),
)
def test_property_specs_always_finite_and_positive(width_um, fingers, cc_pf):
    """Any in-range sizing yields finite, non-negative specifications."""
    simulator = OpAmpSimulator()
    netlist = sized_netlist(
        {
            ("M1", "width"): width_um * 1e-6,
            ("M1", "fingers"): fingers,
            ("M6", "width"): width_um * 1e-6,
            ("CC", "value"): cc_pf * 1e-12,
        }
    )
    specs = simulator.simulate(netlist).specs
    for value in specs.values():
        assert np.isfinite(value)
    assert specs["power"] > 0.0
    assert specs["gain"] >= 0.0
    assert 0.0 <= specs["phase_margin"] <= 180.0
