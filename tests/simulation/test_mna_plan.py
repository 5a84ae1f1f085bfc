"""BatchedMNAPlan against the per-frequency reference engine.

``mna_reference`` holds the original one-system-per-frequency loops.  DC
analysis must reproduce them bit for bit.  The AC sweep reduces each circuit
to Schur form once instead of solving every frequency, so it rounds
differently and is held to the tolerance contract in the "Numerical
contract" section of ``repro.simulation.mna`` (``AC_RTOL`` below).  What
stays bitwise is lane invariance: a circuit's sweep does not depend on the
batch it is solved in.
"""

from __future__ import annotations

import hashlib

import mna_reference as reference
import numpy as np
import pytest

import repro
from repro.parallel.cache import SimulationCache
from repro.simulation.mna import (
    SWEEP_FREQUENCIES,
    BatchedMNAPlan,
    ConvergenceError,
    MnaCircuit,
    frequency_response_metrics,
)
from repro.simulation.mosfet import MosfetModel
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.technology import CMOS_45NM

FREQUENCIES = np.logspace(1, 9, 57)

#: Normwise AC contract: per frequency, the largest node-voltage error is at
#: most AC_RTOL times the largest reference node voltage (see the contract in
#: ``repro.simulation.mna`` for the measured maxima).
AC_RTOL = 1e-9


def _two_pole_circuit(gm=1e-3, r1=5e4, c1=2e-12, r2=2e5, c2=1e-12) -> MnaCircuit:
    """Linear two-stage small-signal circuit (vsource, VCCS, RC loads)."""
    circuit = MnaCircuit("two_pole")
    circuit.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    circuit.add_vccs("GM1", "mid", "0", "in", "0", gm=-gm)
    circuit.add_resistor("R1", "mid", "0", r1)
    circuit.add_capacitor("C1", "mid", "0", c1)
    circuit.add_vccs("GM2", "out", "0", "mid", "0", gm=2.0 * gm)
    circuit.add_resistor("R2", "out", "0", r2)
    circuit.add_capacitor("C2", "out", "0", c2)
    return circuit


def _rlc_circuit(inductance=1e-6) -> MnaCircuit:
    """Inductor branch rows, a current source and a floating capacitor."""
    circuit = MnaCircuit("rlc")
    circuit.add_voltage_source("VIN", "in", "0", dc=1.0, ac=1.0)
    circuit.add_inductor("L1", "in", "mid", inductance)
    circuit.add_capacitor("C1", "mid", "out", 1e-9)
    circuit.add_resistor("R1", "out", "0", 10.0)
    circuit.add_current_source("I1", "0", "out", dc=1e-3, ac=0.5)
    return circuit


def _mosfet_amplifier(width=2e-6, vg=0.7) -> MnaCircuit:
    """Nonlinear common-source stage: DC Newton + linearized AC."""
    circuit = MnaCircuit("cs_amp")
    circuit.add_voltage_source("VDD", "vdd", "0", dc=1.1)
    circuit.add_voltage_source("VG", "g", "0", dc=vg, ac=1.0)
    circuit.add_resistor("RD", "vdd", "d", 2e4)
    circuit.add_capacitor("CL", "d", "0", 1e-13)
    circuit.add_mosfet("M1", "d", "g", "0", MosfetModel(CMOS_45NM, "nmos", width, 2))
    return circuit


def _cascade(resistance=1e4, capacitance=1e-12) -> MnaCircuit:
    """Two identical RC stages: ``G⁻¹C`` has one eigenvalue in a Jordan block."""
    circuit = MnaCircuit("cascade")
    circuit.add_voltage_source("VIN", "in", "0", dc=0.0, ac=1.0)
    circuit.add_vccs("GM1", "mid", "0", "in", "0", gm=-1e-3)
    circuit.add_resistor("R1", "mid", "0", resistance)
    circuit.add_capacitor("C1", "mid", "0", capacitance)
    circuit.add_vccs("GM2", "out", "0", "mid", "0", gm=-1e-3)
    circuit.add_resistor("R2", "out", "0", resistance)
    circuit.add_capacitor("C2", "out", "0", capacitance)
    return circuit


def _dc_floating(capacitance=1e-12) -> MnaCircuit:
    """Current source → series C → R: node ``a`` has no DC path, so G is singular."""
    circuit = MnaCircuit("dc_floating")
    circuit.add_current_source("I1", "0", "a", dc=0.0, ac=1.0)
    circuit.add_capacitor("C1", "a", "b", capacitance)
    circuit.add_resistor("R1", "b", "0", 1e3)
    return circuit


def _variants(build, key, values):
    return [build(**{key: value}) for value in values]


def _assert_ac_equal(solution, expected) -> None:
    assert solution.frequencies.tobytes() == expected.frequencies.tobytes()
    assert list(solution.node_voltages) == list(expected.node_voltages)
    for node, values in expected.node_voltages.items():
        assert solution.voltage(node).tobytes() == values.tobytes(), node


def _normwise_error(solution, expected) -> float:
    """Largest per-frequency ``max_node |x - x_ref| / max_node |x_ref|``."""
    got = np.array([solution.voltage(node) for node in expected.node_voltages])
    want = np.array(list(expected.node_voltages.values()))
    return float(np.max(np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)))


def _assert_ac_close(solution, expected) -> None:
    assert solution.frequencies.tobytes() == expected.frequencies.tobytes()
    assert list(solution.node_voltages) == list(expected.node_voltages)
    assert _normwise_error(solution, expected) <= AC_RTOL


def _bits(values: dict):
    return list(values), np.array(list(values.values()), dtype=np.float64).tobytes()


def _assert_dc_equal(solution, expected) -> None:
    assert _bits(solution.node_voltages) == _bits(expected.node_voltages)
    assert _bits(solution.source_currents) == _bits(expected.source_currents)
    assert solution.iterations == expected.iterations


class TestAcContract:
    @pytest.mark.parametrize(
        "build, key, values",
        [
            (_two_pole_circuit, "gm", [5e-4, 1e-3, 2.5e-3, 8e-3]),
            (_rlc_circuit, "inductance", [1e-7, 1e-6, 1e-5]),
            (_mosfet_amplifier, "width", [1e-6, 2e-6, 4e-6]),
            (_cascade, "resistance", [1e3, 1e4, 2e4]),
            (_dc_floating, "capacitance", [1e-15, 1e-12, 1e-9]),
        ],
        ids=["two_pole", "rlc", "mosfet", "cascade", "dc_floating"],
    )
    def test_stacked_sweep_meets_the_contract(self, build, key, values):
        circuits = _variants(build, key, values)
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.ac_sweep(FREQUENCIES)):
            _assert_ac_close(solution, reference.ac_analysis(circuit, FREQUENCIES))

    @pytest.mark.parametrize(
        "build", [_two_pole_circuit, _rlc_circuit, _mosfet_amplifier, _cascade, _dc_floating]
    )
    def test_single_circuit_ac_analysis_meets_the_contract(self, build):
        circuit = build()
        _assert_ac_close(
            circuit.ac_analysis(FREQUENCIES), reference.ac_analysis(circuit, FREQUENCIES)
        )

    def test_jordan_block_cascade_matches_closed_form(self):
        """Equal time constants: v(out) is the square of one stage's gm·R / (1 + jωRC)."""
        solution = _cascade().ac_analysis(FREQUENCIES)
        stage = -1e-3 * 1e4 / (1.0 + 1j * 2.0 * np.pi * FREQUENCIES * 1e4 * 1e-12)
        np.testing.assert_allclose(solution.voltage("mid"), -stage, rtol=1e-12)
        np.testing.assert_allclose(solution.voltage("out"), stage * stage, rtol=1e-12)

    def test_dc_floating_node_matches_closed_form(self):
        """All of I1 flows through C1 and R1: v(b) = I·R, v(a) = v(b) + I/(jωC)."""
        solution = _dc_floating().ac_analysis(FREQUENCIES)
        v_b = np.full(FREQUENCIES.size, 1e3 + 0j)
        v_a = v_b + 1.0 / (1j * 2.0 * np.pi * FREQUENCIES * 1e-12)
        got = np.array([solution.voltage("a"), solution.voltage("b")])
        want = np.array([v_a, v_b])
        error = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
        assert error.max() <= AC_RTOL

    def test_supplied_operating_point_is_used(self):
        circuit = _mosfet_amplifier()
        op = reference.dc_operating_point(circuit, initial_guess={"d": 0.9})
        _assert_ac_close(
            circuit.ac_analysis(FREQUENCIES, operating_point=op),
            reference.ac_analysis(circuit, FREQUENCIES, operating_point=op),
        )

    @pytest.mark.parametrize("num_circuits", [8, 64])
    def test_stacked_sweep_is_bitwise_lane_invariant(self, num_circuits):
        """Each lane of a K-circuit sweep equals that circuit swept alone (K = 1).

        Lanes mix regular circuits with ones whose R1 is infinite, whose G
        is singular and takes the shifted reduction.
        """
        rng = np.random.default_rng(num_circuits)
        circuits = [
            _two_pole_circuit(
                gm=10 ** rng.uniform(-5, -2),
                r1=np.inf if k % 3 == 2 else 10 ** rng.uniform(3, 7),
                c1=10 ** rng.uniform(-14, -11),
                r2=10 ** rng.uniform(3, 7),
                c2=10 ** rng.uniform(-14, -11),
            )
            for k in range(num_circuits)
        ]
        stacked = BatchedMNAPlan.from_circuits(circuits).ac_sweep(FREQUENCIES)
        for circuit, solution in zip(circuits, stacked):
            _assert_ac_equal(solution, circuit.ac_analysis(FREQUENCIES))
        floating = _variants(_dc_floating, "capacitance", 10 ** rng.uniform(-15, -9, 8))
        stacked = BatchedMNAPlan.from_circuits(floating).ac_sweep(FREQUENCIES)
        for circuit, solution in zip(floating, stacked):
            _assert_ac_equal(solution, circuit.ac_analysis(FREQUENCIES))

    def test_non_finite_values_give_nan_only_in_their_lane(self):
        circuits = [_two_pole_circuit(), _two_pole_circuit(c2=np.inf), _two_pole_circuit()]
        solutions = BatchedMNAPlan.from_circuits(circuits).ac_sweep(FREQUENCIES)
        assert np.isnan(solutions[1].voltage("out")).all()
        _assert_ac_equal(solutions[0], circuits[0].ac_analysis(FREQUENCIES))
        _assert_ac_equal(solutions[2], solutions[0])

    def test_ac_input_validation(self):
        plan = BatchedMNAPlan.from_circuits([_two_pole_circuit()])
        with pytest.raises(ValueError):
            plan.ac_sweep([])
        with pytest.raises(ValueError):
            plan.ac_sweep([0.0, 10.0])

    def test_singular_system_reports_circuit_and_frequency(self):
        # Node "a" sees only the current source: its matrix row is all
        # zeros, so every frequency's system is singular.
        circuit = MnaCircuit("floating")
        circuit.add_current_source("I1", "a", "0", ac=1.0)
        circuit.add_resistor("R1", "b", "0", 1e3)
        with pytest.raises(ConvergenceError) as planned:
            circuit.ac_analysis([10.0, 100.0])
        with pytest.raises(ConvergenceError) as interpreted:
            reference.ac_analysis(circuit, [10.0, 100.0])
        assert str(planned.value) == str(interpreted.value)

    def test_singular_frequency_is_named_like_the_reference(self):
        """Only the middle sweep point is singular; both paths must name it.

        An undamped tank with L = 1 H and C = 1 F has its poles at ±j rad/s.
        At the middle point, f = 1/(2π) Hz, the reference's G + jωC is
        singular and the engine's pivot 1 + jω·tᵢᵢ vanishes to rounding.
        Stacked behind a tank resonating far off the sweep, the singular
        one is the second circuit.
        """
        frequencies = [0.01, 1.0 / (2.0 * np.pi), 100.0]

        def tank(name, inductance, capacitance):
            circuit = MnaCircuit(name)
            circuit.add_current_source("I1", "0", "a", ac=1.0)
            circuit.add_inductor("L1", "a", "0", inductance)
            circuit.add_capacitor("C1", "a", "0", capacitance)
            return circuit

        singular = tank("resonant_tank", 1.0, 1.0)
        regular = tank("detuned_tank", 1e-6, 1e-12)
        with pytest.raises(ConvergenceError) as interpreted:
            reference.ac_analysis(singular, frequencies)
        assert "f=0.159 Hz" in str(interpreted.value)
        with pytest.raises(ConvergenceError) as single:
            singular.ac_analysis(frequencies)
        with pytest.raises(ConvergenceError) as stacked:
            BatchedMNAPlan.from_circuits([regular, singular]).ac_sweep(frequencies)
        assert str(single.value) == str(interpreted.value)
        assert str(stacked.value) == str(interpreted.value)
        reference.ac_analysis(regular, frequencies)
        regular.ac_analysis(frequencies)


class TestDcParity:
    def test_linear_dc_is_bitwise_per_circuit(self):
        circuits = _variants(_two_pole_circuit, "r1", [1e4, 5e4, 9e4])
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.dc_operating_points()):
            _assert_dc_equal(solution, reference.dc_operating_point(circuit))

    def test_inductor_short_dc_is_bitwise(self):
        circuit = _rlc_circuit()
        _assert_dc_equal(circuit.dc_operating_point(), reference.dc_operating_point(circuit))

    def test_newton_dc_is_bitwise_per_circuit(self):
        """MOSFET circuits converge per-slice exactly like the scalar Newton."""
        circuits = _variants(_mosfet_amplifier, "vg", [0.5, 0.7, 0.9, 1.05])
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.dc_operating_points()):
            # Converging circuits at different iteration counts exercises the
            # not-yet-converged active-slice bookkeeping.
            _assert_dc_equal(solution, reference.dc_operating_point(circuit))

    def test_per_circuit_initial_guesses(self):
        circuits = _variants(_mosfet_amplifier, "vg", [0.6, 0.8, 1.0])
        guesses = [{"d": 0.9}, None, {"d": 0.2, "not_a_net": 5.0}]
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, guess, solution in zip(
            circuits, guesses, plan.dc_operating_points(initial_guess=guesses)
        ):
            _assert_dc_equal(
                solution, reference.dc_operating_point(circuit, initial_guess=guess)
            )

    def test_initial_guess_count_must_match(self):
        plan = BatchedMNAPlan.from_circuits([_mosfet_amplifier()])
        with pytest.raises(ValueError):
            plan.dc_operating_points(initial_guess=[None, None])

    def test_nonconvergence_message_matches_reference(self):
        circuit = _mosfet_amplifier()
        with pytest.raises(ConvergenceError) as planned:
            circuit.dc_operating_point(max_iterations=2)
        with pytest.raises(ConvergenceError) as interpreted:
            reference.dc_operating_point(circuit, max_iterations=2)
        assert str(planned.value) == str(interpreted.value)


def test_response_metrics_match_reference_bitwise():
    """Every branch: crossings, never/always above one, a late re-crossing."""
    frequencies = SWEEP_FREQUENCIES
    rng = np.random.default_rng(0)
    responses = [
        gain / ((1 + 1j * frequencies / p1) * (1 + 1j * frequencies / p2))
        for gain, p1, p2 in zip(
            10 ** rng.uniform(-1, 6, 40), 10 ** rng.uniform(1, 8, 40), 10 ** rng.uniform(5, 12, 40)
        )
    ]
    dip = np.full(frequencies.size, 2.0 + 1j)
    dip[100:300] = 0.5j  # below one mid-sweep, above again at the end
    responses += [np.full(frequencies.size, 3.0 + 0j), np.full(frequencies.size, 0.5 + 0j), dip]
    for response in responses:
        got = frequency_response_metrics(frequencies, response)
        want = reference.response_metrics(frequencies, response)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_sweep_grid_is_one_read_only_constant():
    assert SWEEP_FREQUENCIES.tobytes() == np.logspace(1, 11, 401).tobytes()
    assert not SWEEP_FREQUENCIES.flags.writeable
    solution = _two_pole_circuit().ac_analysis(SWEEP_FREQUENCIES)
    assert solution.frequencies.flags.writeable  # each solution owns a copy


class TestPlanConstruction:
    def test_restamp_restamps_one_element(self):
        """Template lanes restamped with restamp sweep like the circuits alone."""
        plan = BatchedMNAPlan.from_template(_two_pole_circuit(), 3)
        plan.restamp([{"R2": 1e5}, {"R2": 2e5}, {"R2": 4e5}])
        circuits = [_two_pole_circuit(r2=r) for r in (1e5, 2e5, 4e5)]
        for circuit, solution in zip(circuits, plan.ac_sweep(FREQUENCIES)):
            _assert_ac_equal(solution, circuit.ac_analysis(FREQUENCIES))

    def test_lane_ac_analysis_is_bitwise_each_circuit(self):
        """``ac_analysis(lane_values=...)`` stacks each lane's own sweep."""
        lanes = [{"R2": 1e5, "C2": 1e-12}, {"R2": 2e5, "C2": 3e-12}]
        solution = _two_pole_circuit().ac_analysis(FREQUENCIES, lane_values=lanes)
        for k, values in enumerate(lanes):
            circuit = _two_pole_circuit(r2=values["R2"], c2=values["C2"])
            expected = circuit.ac_analysis(FREQUENCIES)
            assert solution.frequencies.tobytes() == expected.frequencies.tobytes()
            assert list(solution.node_voltages) == list(expected.node_voltages)
            for node, voltages in expected.node_voltages.items():
                assert solution.voltage(node)[k].tobytes() == voltages.tobytes(), node

    def test_topology_is_built_once_per_signature(self):
        first = BatchedMNAPlan.from_circuits([_two_pole_circuit(gm=1e-3)])
        second = BatchedMNAPlan.from_template(_two_pole_circuit(gm=5e-3), 4)
        other = BatchedMNAPlan.from_circuits([_rlc_circuit()])
        assert first._topology is second._topology
        assert first._topology is not other._topology
        assert list(first._topology.nodes) == _two_pole_circuit().node_names

    def test_restamp_unknown_element(self):
        plan = BatchedMNAPlan.from_template(_two_pole_circuit(), 2)
        with pytest.raises(KeyError):
            plan.restamp([{"R99": 0.0}, {"R99": 0.0}])

    def test_topology_mismatch_is_rejected(self):
        other = _two_pole_circuit()
        other.add_resistor("REXTRA", "out", "0", 1e6)
        with pytest.raises(ValueError):
            BatchedMNAPlan.from_circuits([_two_pole_circuit(), other])

    def test_template_mode_rejects_mosfets(self):
        with pytest.raises(ValueError):
            BatchedMNAPlan.from_template(_mosfet_amplifier(), 2)

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ValueError):
            BatchedMNAPlan.from_circuits([])


# sha256 prefixes of each simulate() result (spec values, detail values,
# validity) at fixed probe points (the former build-time probes of the env's
# batched step), recorded from the Schur-form sweep.  Against the
# per-frequency engine these points move only by rounding (largest relative
# spec change 3.4e-13, no validity flips).
_GOLDEN_SIMULATE = {
    "opamp-mna-v0": [
        "ee1d96e94365323b", "98d77f4041b8a7de", "340b8d0f46d562a0", "deed38183b9459ed",
        "7a2d3328c0e5f34f", "6f5956bb05407d74", "bc4e5ea050884093", "a6f4c3cdbc0b1b5b",
    ],
    "current_mirror_ota-mna-v0": [
        "332d6371dee431d5", "1e0a728a129b8910", "a09bba5dea1d6ef9", "41432cf1ca7c0327",
        "3faa686c53ec1dcc", "3b5362c69828d563", "fd4893b6ff26370f", "f439041048de64b9",
    ],
}

# The same digests for the analytic simulators, recorded from the
# closed-form scalar code before the hand-written batched twins were deleted.
_GOLDEN_SIMULATE_ANALYTIC = {
    "opamp-p2s-v0": [
        "c4a3c7bc8d28bbd7", "fb57d8c00510768c", "25ec473a4bf17aaa", "26c4081a2d1b3fc0",
        "a65e9cf35f78beb2", "dadbd9be2813f946", "ef947be6d0d73df6", "48e80f1a0e3d69b6",
    ],
    "current_mirror_ota-p2s-v0": [
        "579050c98c2d7034", "d866080dc2d10a8f", "2f6f663797e4a4da", "4954161f9c5d5e04",
        "ec6180e722683011", "5660a606268639d7", "e7e30a11f48b19f6", "7d832ae7de54ea90",
    ],
}

#: Seeded random on-grid sizings probed beyond the center and both bounds.
_PROBE_RANDOM_POINTS = 5

#: Relative spec tolerance of ``simulate`` against the per-frequency engine.
SPEC_RTOL = 1e-9


def _probe_netlists(env_id):
    """The golden probe points as netlists.

    The design-space center, the snapped lower and upper bounds, then
    ``_PROBE_RANDOM_POINTS`` sizings drawn from ``default_rng(0)``.
    """
    env = repro.make_env(env_id, seed=0)
    simulator = env.simulator
    if isinstance(simulator, SimulationCache):
        simulator = simulator.simulator
    space = env.benchmark.design_space
    points = [
        space.center(),
        space.snap_vector(space.lower_bounds),
        space.snap_vector(space.upper_bounds),
    ]
    rng = np.random.default_rng(0)
    points += [space.sample(rng) for _ in range(_PROBE_RANDOM_POINTS)]
    netlists = []
    for row in points:
        netlist = env.netlist.copy()
        for parameter, value in zip(space, row):
            netlist.set_parameter(parameter.device, parameter.attribute, value)
        netlists.append(netlist)
    return simulator, netlists


def _result_bytes(result) -> bytes:
    values = list(result.specs.values()) + list(result.details.values())
    return np.array(values, dtype=np.float64).tobytes() + (b"1" if result.valid else b"0")


def _digests(simulator, netlists):
    return [
        hashlib.sha256(_result_bytes(simulator.simulate(n))).hexdigest()[:16]
        for n in netlists
    ]


@pytest.mark.parametrize("env_id", sorted(_GOLDEN_SIMULATE_ANALYTIC))
def test_analytic_simulate_matches_recorded_results(env_id):
    simulator, netlists = _probe_netlists(env_id)
    assert simulator.method == "analytic"
    assert _digests(simulator, netlists) == _GOLDEN_SIMULATE_ANALYTIC[env_id]


@pytest.mark.parametrize("env_id", sorted(_GOLDEN_SIMULATE))
class TestMnaSimulators:
    def test_simulate_matches_recorded_results(self, env_id):
        simulator, netlists = _probe_netlists(env_id)
        assert simulator.method == "mna"
        assert _digests(simulator, netlists) == _GOLDEN_SIMULATE[env_id]

    def test_simulate_matches_reference_engine(self, env_id):
        """Details and validity are exact; the AC-derived specs meet SPEC_RTOL."""
        simulator, netlists = _probe_netlists(env_id)
        for netlist in netlists:
            result = simulator.simulate(netlist)
            expected = _reference_simulate(simulator, netlist)
            assert result.valid == expected.valid
            assert result.details == expected.details
            assert list(result.specs) == list(expected.specs)
            np.testing.assert_allclose(
                list(result.specs.values()), list(expected.specs.values()), rtol=SPEC_RTOL
            )


def _reference_simulate(simulator, netlist):
    """``simulate`` with the small-signal sweep run by the per-frequency engine."""
    op = simulator.operating_point(netlist)
    circuit = simulator.build_small_signal_circuit(netlist, op)
    solution = reference.ac_analysis(circuit, SWEEP_FREQUENCIES)
    gain, bandwidth, phase_margin = frequency_response_metrics(
        SWEEP_FREQUENCIES, solution.voltage("out")
    )
    if isinstance(simulator, OpAmpSimulator):
        return simulator._result(op, (gain, bandwidth, phase_margin))
    return simulator._result(op, (gain, bandwidth))
