"""Tests for the fine (HB-like) and coarse RF PA simulators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import build_rf_pa
from repro.simulation.pa_sim import RfPaCoarseSimulator

def lane_values(simulator, netlist):
    """The netlist's values of ``simulator.reads``: what ``operating_point`` reads."""
    return netlist.layout.lanes(netlist.parameter_array()[None], simulator.reads)[0]


def _driver_chain(simulator, netlist):
    models = simulator._device_models(lane_values(simulator, netlist))
    return simulator.analyze_driver_chain(models, netlist.get_parameter("VBIAS1", "voltage"))



def sized_netlist(overrides=None):
    benchmark = build_rf_pa()
    netlist = benchmark.fresh_netlist()
    for (device, attribute), value in (overrides or {}).items():
        netlist.set_parameter(device, attribute, value)
    return netlist


class TestFineSimulator:
    def test_returns_both_specs(self, pa_fine_simulator):
        result = pa_fine_simulator.simulate(sized_netlist())
        assert set(result.specs) == {"output_power", "efficiency"}
        assert result.spec("output_power") > 0.0
        assert 0.0 < result.spec("efficiency") < 1.0

    def test_details_expose_waveform_quantities(self, pa_fine_simulator):
        result = pa_fine_simulator.simulate(sized_netlist())
        for key in ("drive_amplitude", "fundamental_current", "dc_current", "dc_power_driver"):
            assert key in result.details

    def test_output_power_bounded_by_supply_and_load(self, pa_fine_simulator, rf_pa_benchmark):
        """Pout can never exceed (Vdd - Vknee)^2 / (2 RL)."""
        tech = pa_fine_simulator.technology
        load = rf_pa_benchmark.metadata["load_resistance"]
        bound = (tech.drain_supply - tech.knee_voltage) ** 2 / (2.0 * load)
        netlist = sized_netlist({("M1", "width"): 100e-6, ("M1", "fingers"): 16})
        result = pa_fine_simulator.simulate(netlist)
        assert result.spec("output_power") <= bound + 1e-9

    def test_output_power_increases_with_power_device_size(self, pa_fine_simulator):
        small = pa_fine_simulator.simulate(
            sized_netlist({("M1", "width"): 20e-6, ("M1", "fingers"): 2})
        )
        large = pa_fine_simulator.simulate(
            sized_netlist({("M1", "width"): 80e-6, ("M1", "fingers"): 8})
        )
        assert large.spec("output_power") > small.spec("output_power")

    def test_oversized_drivers_hurt_efficiency(self, pa_fine_simulator):
        drivers = ("D1", "D2", "D3", "D4", "D5", "DF")
        lean_overrides = {(name, "width"): 24e-6 for name in drivers}
        lean_overrides.update({(name, "fingers"): 1 for name in drivers})
        bloated_overrides = {(name, "width"): 100e-6 for name in drivers}
        bloated_overrides.update({(name, "fingers"): 16 for name in drivers})
        lean = sized_netlist(lean_overrides)
        bloated = sized_netlist(bloated_overrides)
        assert (
            pa_fine_simulator.simulate(lean).spec("efficiency")
            > pa_fine_simulator.simulate(bloated).spec("efficiency")
        )

    def test_driver_chain_analysis(self, pa_fine_simulator):
        chain = _driver_chain(pa_fine_simulator, sized_netlist())
        assert chain.drive_amplitude > 0.0
        assert len(chain.stage_amplitudes) == 6
        assert len(chain.quiescent_currents) == 6
        assert chain.dc_power > 0.0
        swing_limit = 0.42 * pa_fine_simulator.technology.driver_supply
        assert all(a <= swing_limit + 1e-9 for a in chain.stage_amplitudes)

    def test_undersized_final_driver_limits_drive(self, pa_fine_simulator):
        weak = sized_netlist({("DF", "width"): 16e-6, ("DF", "fingers"): 1})
        strong = sized_netlist({("DF", "width"): 80e-6, ("DF", "fingers"): 8})
        weak_chain = _driver_chain(pa_fine_simulator, weak)
        strong_chain = _driver_chain(pa_fine_simulator, strong)
        assert strong_chain.drive_amplitude >= weak_chain.drive_amplitude

    def test_table1_spec_space_is_reachable(self, pa_fine_simulator, rf_pa_benchmark):
        """A known tapered design meets a mid-range (Pout, efficiency) target.

        Lean early drivers, a moderately sized final driver and a large power
        device give >2.2 W at >52 % efficiency — confirming the Table 1
        sampling space is populated with solutions.
        """
        target = {"output_power": 2.2, "efficiency": 0.52}
        good_design = {
            ("D1", "width"): 18e-6, ("D1", "fingers"): 2,
            ("D2", "width"): 82e-6, ("D2", "fingers"): 3,
            ("D3", "width"): 22e-6, ("D3", "fingers"): 4,
            ("D4", "width"): 20e-6, ("D4", "fingers"): 2,
            ("D5", "width"): 72e-6, ("D5", "fingers"): 1,
            ("DF", "width"): 44e-6, ("DF", "fingers"): 1,
            ("M1", "width"): 90e-6, ("M1", "fingers"): 5,
        }
        result = pa_fine_simulator.simulate(sized_netlist(good_design))
        assert rf_pa_benchmark.spec_space.all_met(result.specs, target)

    def test_deterministic(self, pa_fine_simulator):
        netlist = sized_netlist()
        first = pa_fine_simulator.simulate(netlist).specs
        assert first == pa_fine_simulator.simulate(netlist).specs


class TestCoarseSimulator:
    def test_returns_both_specs(self, pa_coarse_simulator):
        result = pa_coarse_simulator.simulate(sized_netlist())
        assert set(result.specs) == {"output_power", "efficiency"}

    def test_mismatch_bounds_validation(self):
        with pytest.raises(ValueError):
            RfPaCoarseSimulator(mismatch=0.9)

    def test_mismatch_factor_bounded(self, pa_coarse_simulator):
        for width in (20e-6, 47e-6, 83e-6):
            netlist = sized_netlist({("M1", "width"): width})
            factor = pa_coarse_simulator.operating_point(
                lane_values(pa_coarse_simulator, netlist)
            ).mismatch_factor
            mismatch = pa_coarse_simulator.mismatch
            assert 1.0 - mismatch <= factor <= 1.0 + mismatch

    def test_coarse_tracks_fine_on_average(self, pa_coarse_simulator, pa_fine_simulator,
                                            rf_pa_benchmark, rng):
        """Median relative error between coarse and fine output power stays small.

        This is the property the paper's transfer-learning section relies on
        ("approximated rewards are often in ±10% error range").
        """
        errors = []
        space = rf_pa_benchmark.design_space
        for _ in range(60):
            netlist = rf_pa_benchmark.fresh_netlist()
            space.apply_to_netlist(netlist, space.sample(rng))
            fine = pa_fine_simulator.simulate(netlist).spec("output_power")
            coarse = pa_coarse_simulator.simulate(netlist).spec("output_power")
            if fine > 0.05:
                errors.append(abs(fine - coarse) / fine)
        assert np.median(errors) < 0.15

    def test_zero_mismatch_still_close_to_fine(self, pa_fine_simulator):
        exact_coarse = RfPaCoarseSimulator(mismatch=0.0)
        netlist = sized_netlist()
        fine = pa_fine_simulator.simulate(netlist).spec("output_power")
        coarse = exact_coarse.simulate(netlist).spec("output_power")
        assert coarse == pytest.approx(fine, rel=0.2)

    def test_coarse_is_faster_in_operation_count(self, pa_coarse_simulator, pa_fine_simulator):
        """The coarse path never builds a waveform (structural check)."""
        result = pa_coarse_simulator.simulate(sized_netlist())
        assert "mismatch_factor" in result.details
        fine_result = pa_fine_simulator.simulate(sized_netlist())
        assert "mismatch_factor" not in fine_result.details
