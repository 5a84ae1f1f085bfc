"""Tests for the MNA mini-SPICE against closed-form circuit theory."""

from __future__ import annotations

import mna_reference as reference
import numpy as np
import pytest

from repro.simulation.mna import ConvergenceError, MnaCircuit
from repro.simulation.mosfet import MosfetModel
from repro.simulation.technology import CMOS_45NM


class TestDcLinear:
    def test_voltage_divider(self):
        circuit = MnaCircuit("divider")
        circuit.add_voltage_source("V1", "in", "0", dc=10.0)
        circuit.add_resistor("R1", "in", "mid", 1e3)
        circuit.add_resistor("R2", "mid", "0", 3e3)
        solution = circuit.dc_operating_point()
        assert solution.voltage("mid") == pytest.approx(7.5)
        assert solution.voltage("in") == pytest.approx(10.0)
        # Source current: 10 V across 4 kOhm.
        assert abs(solution.source_currents["V1"]) == pytest.approx(2.5e-3)

    def test_current_source_into_resistor(self):
        circuit = MnaCircuit("isrc")
        circuit.add_current_source("I1", "0", "out", dc=1e-3)
        circuit.add_resistor("R1", "out", "0", 2e3)
        solution = circuit.dc_operating_point()
        assert solution.voltage("out") == pytest.approx(2.0)

    def test_inductor_is_dc_short(self):
        circuit = MnaCircuit("choke")
        circuit.add_voltage_source("V1", "in", "0", dc=5.0)
        circuit.add_inductor("L1", "in", "out", 1e-6)
        circuit.add_resistor("R1", "out", "0", 1e3)
        solution = circuit.dc_operating_point()
        assert solution.voltage("out") == pytest.approx(5.0)

    def test_vccs_amplifier(self):
        # gm of 1 mS into a 10 kOhm load: gain of -10.
        circuit = MnaCircuit("vccs")
        circuit.add_voltage_source("VIN", "in", "0", dc=0.1)
        circuit.add_vccs("G1", "out", "0", "in", "0", gm=1e-3)
        circuit.add_resistor("RL", "out", "0", 10e3)
        solution = circuit.dc_operating_point()
        assert solution.voltage("out") == pytest.approx(-1.0)

    def test_ground_aliases(self):
        circuit = MnaCircuit("gnd")
        circuit.add_voltage_source("V1", "a", "vgnd", dc=1.0)
        circuit.add_resistor("R1", "a", "gnd", 1e3)
        solution = circuit.dc_operating_point()
        assert solution.voltage("a") == pytest.approx(1.0)
        assert solution.voltage("vgnd") == 0.0

    def test_duplicate_element_names_rejected(self):
        circuit = MnaCircuit()
        circuit.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(ValueError):
            circuit.add_resistor("R1", "b", "0", 1.0)

    def test_invalid_element_values_rejected(self):
        circuit = MnaCircuit()
        with pytest.raises(ValueError):
            circuit.add_resistor("R1", "a", "0", -5.0)
        with pytest.raises(ValueError):
            circuit.add_capacitor("C1", "a", "0", 0.0)
        with pytest.raises(ValueError):
            circuit.add_inductor("L1", "a", "0", -1e-9)


def _diode_connected_nmos(model: MosfetModel) -> MnaCircuit:
    circuit = MnaCircuit("diode")
    circuit.add_voltage_source("VDD", "vdd", "0", dc=1.2)
    circuit.add_resistor("R1", "vdd", "d", 10e3)
    circuit.add_mosfet("M1", drain="d", gate="d", source="0", model=model)
    return circuit


def _common_source_amplifier(model: MosfetModel) -> MnaCircuit:
    circuit = MnaCircuit("cs_amp")
    circuit.add_voltage_source("VDD", "vdd", "0", dc=1.2)
    circuit.add_voltage_source("VG", "g", "0", dc=0.55)
    circuit.add_resistor("RD", "vdd", "out", 20e3)
    circuit.add_mosfet("M1", drain="out", gate="g", source="0", model=model)
    return circuit


class TestDcNonlinear:
    def test_diode_connected_nmos_with_resistor(self):
        """NMOS with gate tied to drain, fed from VDD through a resistor.

        The solution must satisfy square-law current = resistor current.
        """
        model = MosfetModel(CMOS_45NM, "nmos", width=10e-6, fingers=4)
        circuit = _diode_connected_nmos(model)
        solution = circuit.dc_operating_point(initial_guess={"d": 0.6})
        vd = solution.voltage("d")
        assert CMOS_45NM.vth_n < vd < 1.2
        device_current = model.drain_current(vd, vd)
        resistor_current = (1.2 - vd) / 10e3
        assert device_current == pytest.approx(resistor_current, rel=1e-4)

    def test_common_source_amplifier_operating_point(self):
        """Resistively loaded common-source stage lands between the rails."""
        model = MosfetModel(CMOS_45NM, "nmos", width=5e-6, fingers=2)
        circuit = _common_source_amplifier(model)
        solution = circuit.dc_operating_point(initial_guess={"out": 0.8})
        vout = solution.voltage("out")
        assert 0.0 < vout < 1.2
        drain_current = model.drain_current(0.55, vout)
        assert drain_current == pytest.approx((1.2 - vout) / 20e3, rel=1e-4)

    @pytest.mark.parametrize(
        "build, model, guess",
        [
            (_diode_connected_nmos, MosfetModel(CMOS_45NM, "nmos", 10e-6, 4), {"d": 0.6}),
            (_common_source_amplifier, MosfetModel(CMOS_45NM, "nmos", 5e-6, 2), {"out": 0.8}),
        ],
    )
    @pytest.mark.parametrize("use_guess", [True, False])
    def test_initial_guess_matches_reference_bitwise(self, build, model, guess, use_guess):
        circuit = build(model)
        guess = guess if use_guess else None
        solution = circuit.dc_operating_point(initial_guess=guess)
        expected = reference.dc_operating_point(circuit, initial_guess=guess)
        for field in ("node_voltages", "source_currents"):
            got, want = getattr(solution, field), getattr(expected, field)
            assert list(got) == list(want)
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        assert solution.iterations == expected.iterations

    def test_nonconvergence_raises(self):
        circuit = MnaCircuit("bad")
        circuit.add_voltage_source("V1", "a", "0", dc=1.0)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_resistor("R2", "b", "0", 1e3)
        with pytest.raises(ConvergenceError):
            circuit.dc_operating_point(max_iterations=0)


class TestAcAnalysis:
    def test_rc_low_pass_pole(self):
        resistance, capacitance = 1e3, 1e-9
        pole = 1.0 / (2 * np.pi * resistance * capacitance)
        circuit = MnaCircuit("rc")
        circuit.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
        circuit.add_resistor("R1", "in", "out", resistance)
        circuit.add_capacitor("C1", "out", "0", capacitance)
        solution = circuit.ac_analysis([pole / 100.0, pole, pole * 100.0])
        magnitude = np.abs(solution.voltage("out"))
        assert magnitude[0] == pytest.approx(1.0, rel=1e-3)
        assert magnitude[1] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-3)
        assert magnitude[2] == pytest.approx(0.01, rel=0.05)
        # Phase at the pole is -45 degrees.
        phase = np.degrees(np.angle(solution.voltage("out")[1]))
        assert phase == pytest.approx(-45.0, abs=1.0)

    def test_rlc_series_resonance(self):
        inductance, capacitance, resistance = 1e-6, 1e-9, 10.0
        resonance = 1.0 / (2 * np.pi * np.sqrt(inductance * capacitance))
        circuit = MnaCircuit("rlc")
        circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
        circuit.add_inductor("L1", "in", "mid", inductance)
        circuit.add_capacitor("C1", "mid", "out", capacitance)
        circuit.add_resistor("R1", "out", "0", resistance)
        solution = circuit.ac_analysis([resonance])
        # At resonance the L and C impedances cancel: all of VIN appears on R.
        assert np.abs(solution.voltage("out")[0]) == pytest.approx(1.0, rel=1e-3)

    def test_transfer_and_magnitude_helpers(self):
        circuit = MnaCircuit("divider_ac")
        circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_resistor("R2", "out", "0", 1e3)
        solution = circuit.ac_analysis([1e3, 1e6])
        np.testing.assert_allclose(np.abs(solution.transfer("out", "in")), 0.5, rtol=1e-9)

    def test_linearized_mosfet_common_source_gain(self):
        """AC gain of a common-source stage is -gm * (RD || ro)."""
        model = MosfetModel(CMOS_45NM, "nmos", width=5e-6, fingers=2)
        circuit = MnaCircuit("cs_ac")
        circuit.add_voltage_source("VDD", "vdd", "0", dc=1.2)
        circuit.add_voltage_source("VG", "g", "0", dc=0.55, ac=1.0)
        circuit.add_resistor("RD", "vdd", "out", 20e3)
        circuit.add_mosfet("M1", drain="out", gate="g", source="0", model=model)
        op = circuit.dc_operating_point(initial_guess={"out": 0.8})
        solution = circuit.ac_analysis([1e3], operating_point=op)
        device_op = model.operating_point(0.55, op.voltage("out"))
        load = 1.0 / (1.0 / 20e3 + device_op.gds)
        expected_gain = device_op.gm * load
        assert np.abs(solution.voltage("out")[0]) == pytest.approx(expected_gain, rel=0.02)

    def test_ac_validation(self):
        circuit = MnaCircuit()
        circuit.add_voltage_source("V1", "a", "0", ac=1.0)
        circuit.add_resistor("R1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            circuit.ac_analysis([])
        with pytest.raises(ValueError):
            circuit.ac_analysis([-1.0])
