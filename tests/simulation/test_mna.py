"""Tests for the MNA mini-SPICE against closed-form circuit theory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.mna import MnaCircuit


#: A sweep point far below every pole of the checks that have one.
LOW_FREQUENCY = [1.0]


class TestLowFrequencyAc:
    """Resistive closed forms at a low frequency: the shared G stamps."""

    def test_voltage_divider(self):
        circuit = MnaCircuit("divider")
        circuit.add_voltage_source("V1", "in", "0", ac=10.0)
        circuit.add_resistor("R1", "in", "mid", 1e3)
        circuit.add_resistor("R2", "mid", "0", 3e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("mid")[0] == pytest.approx(7.5)
        assert solution.voltage("in")[0] == pytest.approx(10.0)
        # Source current: 10 V across 4 kOhm.
        current = (solution.voltage("in")[0] - solution.voltage("mid")[0]) / 1e3
        assert current == pytest.approx(2.5e-3)

    def test_current_source_into_resistor(self):
        circuit = MnaCircuit("isrc")
        circuit.add_current_source("I1", "0", "out", ac=1e-3)
        circuit.add_resistor("R1", "out", "0", 2e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("out")[0] == pytest.approx(2.0)

    def test_inductor_is_a_low_frequency_short(self):
        circuit = MnaCircuit("choke")
        circuit.add_voltage_source("V1", "in", "0", ac=5.0)
        circuit.add_inductor("L1", "in", "out", 1e-6)
        circuit.add_resistor("R1", "out", "0", 1e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("out")[0] == pytest.approx(5.0)

    def test_vccs_amplifier(self):
        # gm of 1 mS into a 10 kOhm load: gain of -10.
        circuit = MnaCircuit("vccs")
        circuit.add_voltage_source("VIN", "in", "0", ac=0.1)
        circuit.add_vccs("G1", "out", "0", "in", "0", gm=1e-3)
        circuit.add_resistor("RL", "out", "0", 10e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("out")[0] == pytest.approx(-1.0)

    def test_ground_aliases(self):
        circuit = MnaCircuit("gnd")
        circuit.add_voltage_source("V1", "a", "vgnd", ac=1.0)
        circuit.add_resistor("R1", "a", "gnd", 1e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("a")[0] == pytest.approx(1.0)
        assert (solution.voltage("vgnd") == 0.0).all()

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


    def test_floating_voltage_sources_stack(self):
        circuit = MnaCircuit("stack")
        circuit.add_voltage_source("V1", "a", "0", ac=1.0)
        circuit.add_voltage_source("V2", "b", "a", ac=2.0)
        circuit.add_resistor("R1", "b", "0", 1e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("a")[0] == pytest.approx(1.0)
        assert solution.voltage("b")[0] == pytest.approx(3.0)

    def test_floating_vccs_stamps_all_four_terminals(self):
        # 1 mS times v(a, b) = 0.75 V leaves x through the source and enters
        # y, so the two 1 kOhm loads sit at -0.75 V and +0.75 V.
        circuit = MnaCircuit("floating_vccs")
        circuit.add_voltage_source("VA", "a", "0", ac=1.0)
        circuit.add_voltage_source("VB", "b", "0", ac=0.25)
        circuit.add_vccs("G1", "x", "y", "a", "b", gm=1e-3)
        circuit.add_resistor("RX", "x", "0", 1e3)
        circuit.add_resistor("RY", "y", "0", 1e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("x")[0] == pytest.approx(-0.75)
        assert solution.voltage("y")[0] == pytest.approx(0.75)

    def test_capacitor_is_a_low_frequency_open(self):
        # |v(out)| = ωRC while ωRC << 1.
        circuit = MnaCircuit("blocker")
        circuit.add_voltage_source("V1", "in", "0", ac=1.0)
        circuit.add_capacitor("C1", "in", "out", 1e-9)
        circuit.add_resistor("R1", "out", "0", 1e3)
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert abs(solution.voltage("out")[0]) == pytest.approx(2 * np.pi * 1e3 * 1e-9, rel=1e-9)

    def test_ground_names_are_case_insensitive(self):
        circuit = MnaCircuit("upper")
        circuit.add_voltage_source("V1", "a", "GND", ac=2.0)
        circuit.add_resistor("R1", "a", "Ground", 1e3)
        assert circuit.node_names == ["a"]
        solution = circuit.ac_analysis(LOW_FREQUENCY)
        assert solution.voltage("a")[0] == pytest.approx(2.0)
        assert (solution.voltage("GND") == 0.0).all()


class TestCircuitStructure:
    def test_nodes_are_numbered_in_first_appearance_order(self):
        # Resistors are visited first, then capacitors, inductors, sources.
        circuit = MnaCircuit("order")
        circuit.add_voltage_source("V1", "v", "0", ac=1.0)
        circuit.add_capacitor("C1", "c", "v", 1e-12)
        circuit.add_resistor("R1", "r", "c", 1e3)
        circuit.add_inductor("L1", "l", "r", 1e-9)
        assert circuit.node_names == ["r", "c", "v", "l"]
        assert list(circuit.ac_analysis([1e3]).node_voltages) == ["r", "c", "v", "l"]

    def test_structure_signature_ignores_values_but_not_wiring(self):
        def divider(top, bottom, tap="mid"):
            circuit = MnaCircuit("divider")
            circuit.add_voltage_source("V1", "in", "0", ac=1.0)
            circuit.add_resistor("R1", "in", tap, top)
            circuit.add_resistor("R2", tap, "0", bottom)
            return circuit

        signature = divider(1e3, 3e3).structure_signature()
        assert signature == divider(5e3, 7e3).structure_signature()
        assert hash(signature) == hash(divider(5e3, 7e3).structure_signature())
        assert signature != divider(1e3, 3e3, tap="other").structure_signature()

    def test_element_views_are_read_only_and_ordered(self):
        circuit = MnaCircuit()
        circuit.add_resistor("R1", "a", "0", 1e3)
        circuit.add_resistor("R2", "a", "b", 2e3)
        circuit.add_vccs("G1", "b", "0", "a", "0", gm=1e-3)
        assert isinstance(circuit.resistors, tuple)
        assert [r.name for r in circuit.resistors] == ["R1", "R2"]
        assert [r.value for r in circuit.resistors] == [1e3, 2e3]
        assert [g.gm for g in circuit.vccs_elements] == [1e-3]
        assert circuit.capacitors == circuit.inductors == ()


class TestAcAnalysis:
    def test_rl_high_pass_corner(self):
        resistance, inductance = 1e3, 1e-3
        corner = resistance / (2 * np.pi * inductance)
        circuit = MnaCircuit("rl")
        circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
        circuit.add_resistor("R1", "in", "out", resistance)
        circuit.add_inductor("L1", "out", "0", inductance)
        solution = circuit.ac_analysis([corner / 1e4, corner, corner * 1e4])
        magnitude = np.abs(solution.voltage("out"))
        assert magnitude[0] == pytest.approx(1e-4, rel=1e-6)
        assert magnitude[1] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)
        assert magnitude[2] == pytest.approx(1.0, rel=1e-6)
        assert np.degrees(np.angle(solution.voltage("out")[1])) == pytest.approx(45.0)

    def test_parallel_tank_peaks_at_resonance(self):
        # At resonance the L and C admittances cancel: v = I·R.
        inductance, capacitance, resistance = 1e-6, 1e-9, 50.0
        resonance = 1.0 / (2 * np.pi * np.sqrt(inductance * capacitance))
        circuit = MnaCircuit("tank")
        circuit.add_current_source("I1", "0", "a", ac=1e-3)
        circuit.add_resistor("R1", "a", "0", resistance)
        circuit.add_inductor("L1", "a", "0", inductance)
        circuit.add_capacitor("C1", "a", "0", capacitance)
        solution = circuit.ac_analysis([resonance / 10.0, resonance, resonance * 10.0])
        magnitude = np.abs(solution.voltage("a"))
        assert magnitude[1] == pytest.approx(1e-3 * resistance, rel=1e-9)
        assert magnitude[0] < 0.25 * magnitude[1]
        assert magnitude[2] < 0.25 * magnitude[1]

    def test_response_is_linear_in_the_sources(self):
        def circuit(v_ac, i_ac):
            c = MnaCircuit("superposition")
            c.add_voltage_source("V1", "in", "0", ac=v_ac)
            c.add_resistor("R1", "in", "out", 1e3)
            c.add_capacitor("C1", "out", "0", 1e-9)
            c.add_current_source("I1", "0", "out", ac=i_ac)
            return c

        frequencies = np.logspace(2, 8, 13)
        both = circuit(2.0, 1e-3).ac_analysis(frequencies).voltage("out")
        alone = (circuit(2.0, 0.0).ac_analysis(frequencies).voltage("out")
                 + circuit(0.0, 1e-3).ac_analysis(frequencies).voltage("out"))
        np.testing.assert_allclose(both, alone, rtol=1e-12)
        silent = circuit(0.0, 0.0).ac_analysis(frequencies)
        assert not any(values.any() for values in silent.node_voltages.values())

    def test_rc_low_pass_pole(self):
        resistance, capacitance = 1e3, 1e-9
        pole = 1.0 / (2 * np.pi * resistance * capacitance)
        circuit = MnaCircuit("rc")
        circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
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

    def test_ac_validation(self):
        circuit = MnaCircuit()
        circuit.add_voltage_source("V1", "a", "0", ac=1.0)
        circuit.add_resistor("R1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            circuit.ac_analysis([])
        with pytest.raises(ValueError):
            circuit.ac_analysis([-1.0])
        with pytest.raises(ValueError):
            circuit.ac_analysis([[1e3, 1e4]])
