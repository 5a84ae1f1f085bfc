"""Cross-check the analytic op-amp evaluator against the MNA small-signal sweep.

The analytic path uses closed-form pole/zero expressions; the MNA path builds
the two-stage small-signal equivalent circuit and extracts gain, unity-gain
bandwidth and phase margin numerically from a frequency sweep.  Both must
agree on the quantities the RL environment exposes (the analytic pole
formulas are approximations, so tolerances are loose but meaningful).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import build_two_stage_opamp
from repro.simulation.opamp_sim import OpAmpSimulator


# Two properly Miller-compensated sizings (second-stage gm well above the
# input-pair gm).  The analytic pole/zero formulas are textbook
# approximations that hold for compensated designs, which is the regime the
# trained policy operates in; the cross-check therefore uses such sizings.
_COMPENSATED_SIZINGS = {
    "moderate_power": {
        ("M1", "width"): 10e-6, ("M1", "fingers"): 4,
        ("M2", "width"): 10e-6, ("M2", "fingers"): 4,
        ("M5", "width"): 8e-6, ("M5", "fingers"): 4,
        ("M6", "width"): 80e-6, ("M6", "fingers"): 16,
        ("M7", "width"): 40e-6, ("M7", "fingers"): 8,
        ("CC", "value"): 3e-12,
    },
    "low_power": {
        ("M1", "width"): 4e-6, ("M1", "fingers"): 2,
        ("M2", "width"): 4e-6, ("M2", "fingers"): 2,
        ("M5", "width"): 4e-6, ("M5", "fingers"): 2,
        ("M6", "width"): 60e-6, ("M6", "fingers"): 8,
        ("M7", "width"): 20e-6, ("M7", "fingers"): 4,
        ("CC", "value"): 2e-12,
    },
}

def lane_values(simulator, netlist):
    """The netlist's values of ``simulator.reads``: what ``operating_point`` reads."""
    return netlist.layout.lanes(netlist.parameter_array()[None], simulator.reads)[0]



@pytest.fixture(params=sorted(_COMPENSATED_SIZINGS))
def sized_netlist(request):
    benchmark = build_two_stage_opamp()
    netlist = benchmark.fresh_netlist()
    for (device, attribute), value in _COMPENSATED_SIZINGS[request.param].items():
        netlist.set_parameter(device, attribute, value)
    return netlist


class TestAnalyticVsMna:
    def test_dc_gain_matches(self, sized_netlist):
        analytic = OpAmpSimulator(method="analytic").simulate(sized_netlist)
        numeric = OpAmpSimulator(method="mna").simulate(sized_netlist)
        assert numeric.spec("gain") == pytest.approx(analytic.spec("gain"), rel=0.05)

    def test_unity_gain_bandwidth_matches(self, sized_netlist):
        analytic = OpAmpSimulator(method="analytic").simulate(sized_netlist)
        numeric = OpAmpSimulator(method="mna").simulate(sized_netlist)
        assert numeric.spec("bandwidth") == pytest.approx(analytic.spec("bandwidth"), rel=0.35)

    def test_phase_margin_close(self, sized_netlist):
        analytic = OpAmpSimulator(method="analytic").simulate(sized_netlist)
        numeric = OpAmpSimulator(method="mna").simulate(sized_netlist)
        assert abs(numeric.spec("phase_margin") - analytic.spec("phase_margin")) < 15.0

    def test_power_identical_between_methods(self, sized_netlist):
        # Power is a DC quantity: both paths share the same bias computation.
        analytic = OpAmpSimulator(method="analytic").simulate(sized_netlist)
        numeric = OpAmpSimulator(method="mna").simulate(sized_netlist)
        assert numeric.spec("power") == pytest.approx(analytic.spec("power"))


class TestSmallSignalCircuit:
    def test_low_frequency_response_equals_dc_gain(self):
        benchmark = build_two_stage_opamp()
        simulator = OpAmpSimulator()
        netlist = benchmark.fresh_netlist()
        op = simulator.operating_point(lane_values(simulator, netlist))
        circuit = simulator.build_small_signal_circuit(op)
        solution = circuit.ac_analysis([1.0, 10.0])
        gain = np.abs(solution.voltage("out")[0])
        expected = op.first_stage_gain * op.second_stage_gain
        assert gain == pytest.approx(expected, rel=0.02)

    def test_response_rolls_off_with_frequency(self):
        benchmark = build_two_stage_opamp()
        simulator = OpAmpSimulator()
        netlist = benchmark.fresh_netlist()
        circuit = simulator.build_small_signal_circuit(
            simulator.operating_point(lane_values(simulator, netlist))
        )
        solution = circuit.ac_analysis(np.logspace(1, 10, 40))
        magnitude = np.abs(solution.voltage("out"))
        assert magnitude[0] > magnitude[-1]
        assert magnitude[-1] < 1.0
