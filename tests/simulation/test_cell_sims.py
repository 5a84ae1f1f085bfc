"""Unit tests for the topology-zoo evaluators (folded cascode, OTA, LNA).

Absolute accuracy is not the point (see ``repro.simulation.technology``);
the monotone parameter→specification relationships each topology is defined
by are.
"""

from __future__ import annotations

import pytest

from repro.circuits.library.common_source_lna import build_common_source_lna
from repro.circuits.library.current_mirror_ota import build_current_mirror_ota
from repro.circuits.library.folded_cascode import build_folded_cascode
from repro.simulation import CmOtaSimulator, FoldedCascodeSimulator, LnaSimulator

def lane_values(simulator, netlist):
    """The netlist's values of ``simulator.reads``: what ``operating_point`` reads."""
    return netlist.layout.lanes(netlist.parameter_array()[None], simulator.reads)[0]



@pytest.fixture
def folded_cascode_sim():
    return FoldedCascodeSimulator()


@pytest.fixture
def ota_sim():
    return CmOtaSimulator()


@pytest.fixture
def lna_sim():
    return LnaSimulator()


class TestFoldedCascodeSimulator:
    def test_center_design_is_valid(self, folded_cascode_sim):
        result = folded_cascode_sim.simulate(build_folded_cascode().fresh_netlist())
        assert result.valid
        assert set(result.specs) == {"gain", "bandwidth", "phase_margin", "power"}
        assert result.specs["gain"] > 1.0
        assert result.specs["power"] > 0.0

    def test_starved_folding_branch_is_invalid(self, folded_cascode_sim):
        """An over-sized tail against small PMOS sources kills the cascode."""
        netlist = build_folded_cascode().fresh_netlist()
        netlist.set_parameter("M11", "width", 100e-6)
        netlist.set_parameter("M11", "fingers", 32)
        for name in ("M3", "M4"):
            netlist.set_parameter(name, "width", 1e-6)
            netlist.set_parameter(name, "fingers", 2)
        result = folded_cascode_sim.simulate(netlist)
        assert not result.valid
        assert result.details["output_branch_current"] <= 0.0

    def test_bigger_tail_raises_power_and_bandwidth(self, folded_cascode_sim):
        benchmark = build_folded_cascode()
        small = benchmark.fresh_netlist()
        big = benchmark.fresh_netlist()
        big.set_parameter("M11", "width", 80e-6)
        # Keep the sources strong enough that the branch stays alive.
        for name in ("M3", "M4"):
            big.set_parameter(name, "width", 100e-6)
        result_small = folded_cascode_sim.simulate(small)
        result_big = folded_cascode_sim.simulate(big)
        assert result_big.specs["power"] > result_small.specs["power"]
        assert result_big.specs["bandwidth"] > result_small.specs["bandwidth"]

    def test_cascoding_beats_two_stage_output_resistance(self, folded_cascode_sim):
        op = folded_cascode_sim.operating_point(
            lane_values(folded_cascode_sim, build_folded_cascode().fresh_netlist())
        )
        # The defining property: the cascoded output resistance is far above
        # a single ro at the same current.
        assert op.output_resistance > 3.0 / (0.5 * op.output_branch_current)


class TestCmOtaSimulator:
    def test_center_design_is_valid(self, ota_sim):
        result = ota_sim.simulate(build_current_mirror_ota().fresh_netlist())
        assert result.valid
        assert set(result.specs) == {"gain", "bandwidth", "slew_rate", "power"}

    def test_unit_mirrors_at_uniform_sizing(self, ota_sim):
        op = ota_sim.operating_point(
            lane_values(ota_sim, build_current_mirror_ota().fresh_netlist())
        )
        assert op.mirror_ratio_up == pytest.approx(1.0)
        assert op.mirror_ratio_down == pytest.approx(1.0)

    def test_output_mirror_ratio_scales_drive(self, ota_sim):
        benchmark = build_current_mirror_ota()
        unit = benchmark.fresh_netlist()
        doubled = benchmark.fresh_netlist()
        # Double both output branches: M6 (source) and M9 (sink).
        doubled.set_parameter("M6", "width", 80e-6)
        doubled.set_parameter("M9", "width", 80e-6)
        op_unit = ota_sim.operating_point(lane_values(ota_sim, unit))
        op_doubled = ota_sim.operating_point(lane_values(ota_sim, doubled))
        assert op_doubled.mirror_ratio_up == pytest.approx(2.0)
        assert op_doubled.mirror_ratio_down == pytest.approx(2.0)
        assert op_doubled.slew_rate == pytest.approx(2.0 * op_unit.slew_rate)
        assert op_doubled.power_w > op_unit.power_w

    def test_slew_limited_by_weaker_mirror(self, ota_sim):
        benchmark = build_current_mirror_ota()
        lopsided = benchmark.fresh_netlist()
        lopsided.set_parameter("M6", "width", 80e-6)   # strong source path only
        op = ota_sim.operating_point(lane_values(ota_sim, lopsided))
        balanced = ota_sim.operating_point(lane_values(ota_sim, benchmark.fresh_netlist()))
        assert op.slew_rate == pytest.approx(balanced.slew_rate)


class TestLnaSimulator:
    def test_center_design_is_valid(self, lna_sim):
        result = lna_sim.simulate(build_common_source_lna().fresh_netlist())
        assert result.valid
        assert set(result.specs) == {"gain", "noise_figure", "power"}
        assert 1.0 < result.specs["noise_figure"] < 20.0

    def test_width_has_a_noise_optimum(self, lna_sim):
        """NF rises for very small devices (gm term) and very large ones
        (capacitance term) — the behavioural model must keep that bathtub."""
        benchmark = build_common_source_lna()
        figures = []
        for width in (6e-6, 40e-6, 100e-6):
            netlist = benchmark.fresh_netlist()
            netlist.set_parameter("M1", "width", width)
            figures.append(lna_sim.simulate(netlist).specs["noise_figure"])
        assert figures[1] < figures[0]
        assert figures[1] < figures[2]

    def test_degeneration_trades_gain_for_input_match(self, lna_sim):
        benchmark = build_common_source_lna()
        light = benchmark.fresh_netlist()
        light.set_parameter("LS", "value", 0.1e-9)
        heavy = benchmark.fresh_netlist()
        heavy.set_parameter("LS", "value", 2.0e-9)
        op_light = lna_sim.operating_point(lane_values(lna_sim, light))
        op_heavy = lna_sim.operating_point(lane_values(lna_sim, heavy))
        assert op_heavy.gain < op_light.gain
        assert op_heavy.input_resistance > op_light.input_resistance

    def test_load_inductor_sets_gain(self, lna_sim):
        benchmark = build_common_source_lna()
        small = benchmark.fresh_netlist()
        small.set_parameter("LD", "value", 1e-9)
        large = benchmark.fresh_netlist()
        large.set_parameter("LD", "value", 10e-9)
        assert (
            lna_sim.simulate(large).specs["gain"] > lna_sim.simulate(small).specs["gain"]
        )

    def test_power_scales_with_width(self, lna_sim):
        benchmark = build_common_source_lna()
        small = benchmark.fresh_netlist()
        small.set_parameter("M1", "width", 10e-6)
        big = benchmark.fresh_netlist()
        big.set_parameter("M1", "width", 100e-6)
        assert lna_sim.simulate(big).specs["power"] > lna_sim.simulate(small).specs["power"]
