"""Tests for the two benchmark circuits against Table 1 of the paper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import DeviceType, build_rf_pa, build_two_stage_opamp
from repro.circuits.library.rf_pa import RF_PA_DEVICES
from repro.circuits.library.two_stage_opamp import OPAMP_TRANSISTORS


class TestTwoStageOpAmp:
    def test_parameter_count_matches_table1(self, opamp_benchmark):
        # 2 * 7 transistor parameters + 1 compensation capacitor = 15.
        assert opamp_benchmark.num_parameters == 15

    def test_design_space_bounds_match_table1(self, opamp_benchmark):
        space = opamp_benchmark.design_space
        width = space["M1.width"]
        assert (width.minimum, width.maximum) == (1e-6, 100e-6)
        fingers = space["M1.fingers"]
        assert (fingers.minimum, fingers.maximum) == (2, 32)
        assert fingers.integer
        cap = space["CC.value"]
        assert (cap.minimum, cap.maximum) == (pytest.approx(0.1e-12), pytest.approx(10e-12))

    def test_spec_space_matches_table1(self, opamp_benchmark):
        specs = opamp_benchmark.spec_space
        assert set(specs.names) == {"gain", "bandwidth", "phase_margin", "power"}
        assert (specs["gain"].minimum, specs["gain"].maximum) == (300.0, 500.0)
        assert (specs["bandwidth"].minimum, specs["bandwidth"].maximum) == (1e6, 2.5e7)
        assert (specs["phase_margin"].minimum, specs["phase_margin"].maximum) == (55.0, 60.0)
        assert (specs["power"].minimum, specs["power"].maximum) == (1e-4, 1e-2)
        assert specs["power"].objective.value == "minimize"

    def test_topology_has_seven_transistors_and_bias_nodes(self, opamp_benchmark):
        netlist = opamp_benchmark.netlist
        assert [t.name for t in netlist if t.dtype.is_transistor] == list(OPAMP_TRANSISTORS)
        assert len([d for d in netlist if d.dtype is DeviceType.SUPPLY]) == 1
        assert len([d for d in netlist if d.dtype is DeviceType.GROUND]) == 1
        assert len([d for d in netlist if d.dtype is DeviceType.BIAS]) == 1
        assert len([d for d in netlist if d.dtype is DeviceType.CAPACITOR]) == 2  # CC and CL

    def test_differential_pair_shares_tail_node(self, opamp_benchmark):
        netlist = opamp_benchmark.netlist
        assert netlist.device("M1").terminals["s"] == netlist.device("M2").terminals["s"]
        assert netlist.device("M5").terminals["d"] == netlist.device("M1").terminals["s"]

    def test_compensation_cap_bridges_stages(self, opamp_benchmark):
        netlist = opamp_benchmark.netlist
        cc = netlist.device("CC")
        assert set(cc.terminals.values()) == {"net2", "vout"}
        assert netlist.device("M6").terminals["g"] == "net2"
        assert netlist.device("M6").terminals["d"] == "vout"

    def test_initial_values_inside_design_space(self, opamp_benchmark):
        values = opamp_benchmark.design_space.vector_from_netlist(opamp_benchmark.netlist)
        assert np.all(values >= opamp_benchmark.design_space.lower_bounds)
        assert np.all(values <= opamp_benchmark.design_space.upper_bounds)

    def test_out_of_range_initializers_rejected(self):
        with pytest.raises(ValueError):
            build_two_stage_opamp(initial_width=500e-6)
        with pytest.raises(ValueError):
            build_two_stage_opamp(initial_fingers=64)
        with pytest.raises(ValueError):
            build_two_stage_opamp(initial_cap=100e-12)

    def test_fresh_netlist_is_independent(self, opamp_benchmark):
        fresh = opamp_benchmark.fresh_netlist()
        fresh.set_parameter("M1", "width", 99e-6)
        assert opamp_benchmark.netlist.get_parameter("M1", "width") != pytest.approx(99e-6)

    def test_summary_structure(self, opamp_benchmark):
        summary = opamp_benchmark.summary()
        assert summary["technology"] == "45nm CMOS"
        assert summary["num_device_parameters"] == 15
        assert summary["design_space_cardinality"] > 1e20


class TestRfPa:
    def test_parameter_count_matches_table1(self, rf_pa_benchmark):
        # 2 * 7 GaN devices = 14.
        assert rf_pa_benchmark.num_parameters == 14

    def test_design_space_bounds_match_table1(self, rf_pa_benchmark):
        space = rf_pa_benchmark.design_space
        width = space["M1.width"]
        assert (width.minimum, width.maximum) == (16e-6, 100e-6)
        fingers = space["D1.fingers"]
        assert (fingers.minimum, fingers.maximum) == (1, 16)
        assert fingers.integer

    def test_spec_space_matches_table1(self, rf_pa_benchmark):
        specs = rf_pa_benchmark.spec_space
        assert set(specs.names) == {"efficiency", "output_power"}
        assert (specs["efficiency"].minimum, specs["efficiency"].maximum) == (0.50, 0.60)
        assert (specs["output_power"].minimum, specs["output_power"].maximum) == (2.0, 3.0)

    def test_signal_chain_order(self, rf_pa_benchmark):
        netlist = rf_pa_benchmark.netlist
        assert [d for d in RF_PA_DEVICES] == ["D1", "D2", "D3", "D4", "D5", "DF", "M1"]
        # DF drives the power device's gate.
        assert netlist.device("DF").terminals["d"] == netlist.device("M1").terminals["g"]
        # D1's gate is the RF input node.
        assert netlist.device("D1").terminals["g"] == "vin_a"

    def test_supply_ground_bias_nodes_present(self, rf_pa_benchmark):
        netlist = rf_pa_benchmark.netlist
        assert len([d for d in netlist if d.dtype is DeviceType.SUPPLY]) == 2
        assert len([d for d in netlist if d.dtype is DeviceType.GROUND]) == 1
        assert len([d for d in netlist if d.dtype is DeviceType.BIAS]) == 2

    def test_load_resistor_value_in_metadata(self, rf_pa_benchmark):
        assert rf_pa_benchmark.netlist.get_parameter("RLOAD", "value") == pytest.approx(
            rf_pa_benchmark.metadata["load_resistance"]
        )

    def test_max_episode_steps_metadata(self, opamp_benchmark, rf_pa_benchmark):
        assert opamp_benchmark.metadata["max_episode_steps"] == 50
        assert rf_pa_benchmark.metadata["max_episode_steps"] == 30

    def test_out_of_range_initializers_rejected(self):
        with pytest.raises(ValueError):
            build_rf_pa(initial_width=200e-6)
        with pytest.raises(ValueError):
            build_rf_pa(initial_fingers=99)
