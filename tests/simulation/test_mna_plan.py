"""BatchedMNAPlan: stacked AC/DC solves bitwise-identical to the per-frequency reference.

``mna_reference`` holds the original one-system-per-frequency loops; every
test here asserts the engine reproduces them bit for bit, whether it runs
many circuits stacked or one circuit through ``MnaCircuit``.
"""

from __future__ import annotations

import hashlib

import mna_reference as reference
import numpy as np
import pytest

import repro
from repro.parallel.cache import SimulationCache
from repro.simulation.mna import (
    BatchedMNAPlan,
    ConvergenceError,
    MnaCircuit,
    frequency_response_metrics,
    solve_chunk_rows,
)
from repro.simulation.mosfet import MosfetModel
from repro.simulation.technology import CMOS_45NM

FREQUENCIES = np.logspace(1, 9, 57)


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


def _variants(build, key, values):
    return [build(**{key: value}) for value in values]


def _assert_ac_equal(solution, expected) -> None:
    assert solution.frequencies.tobytes() == expected.frequencies.tobytes()
    assert list(solution.node_voltages) == list(expected.node_voltages)
    for node, values in expected.node_voltages.items():
        assert solution.voltage(node).tobytes() == values.tobytes(), node


def _bits(values: dict):
    return list(values), np.array(list(values.values()), dtype=np.float64).tobytes()


def _assert_dc_equal(solution, expected) -> None:
    assert _bits(solution.node_voltages) == _bits(expected.node_voltages)
    assert _bits(solution.source_currents) == _bits(expected.source_currents)
    assert solution.iterations == expected.iterations


class TestAcParity:
    def test_linear_ac_sweep_is_bitwise_per_circuit(self):
        circuits = _variants(_two_pole_circuit, "gm", [5e-4, 1e-3, 2.5e-3, 8e-3])
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.ac_sweep(FREQUENCIES)):
            _assert_ac_equal(solution, reference.ac_analysis(circuit, FREQUENCIES))

    def test_inductor_and_current_source_sweep_is_bitwise(self):
        circuits = _variants(_rlc_circuit, "inductance", [1e-7, 1e-6, 1e-5])
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.ac_sweep(FREQUENCIES)):
            _assert_ac_equal(solution, reference.ac_analysis(circuit, FREQUENCIES))

    def test_mosfet_ac_sweep_is_bitwise_per_circuit(self):
        circuits = _variants(_mosfet_amplifier, "width", [1e-6, 2e-6, 4e-6])
        plan = BatchedMNAPlan.from_circuits(circuits)
        for circuit, solution in zip(circuits, plan.ac_sweep(FREQUENCIES)):
            _assert_ac_equal(solution, reference.ac_analysis(circuit, FREQUENCIES))

    @pytest.mark.parametrize("build", [_two_pole_circuit, _rlc_circuit, _mosfet_amplifier])
    def test_single_circuit_ac_analysis_is_bitwise(self, build):
        circuit = build()
        _assert_ac_equal(
            circuit.ac_analysis(FREQUENCIES), reference.ac_analysis(circuit, FREQUENCIES)
        )

    def test_supplied_operating_point_is_used(self):
        circuit = _mosfet_amplifier()
        op = reference.dc_operating_point(circuit, initial_guess={"d": 0.9})
        _assert_ac_equal(
            circuit.ac_analysis(FREQUENCIES, operating_point=op),
            reference.ac_analysis(circuit, FREQUENCIES, operating_point=op),
        )

    def test_chunking_is_bitwise_invariant(self):
        circuits = _variants(_two_pole_circuit, "r2", [1e5, 2e5, 4e5])
        small = BatchedMNAPlan.from_circuits(circuits)
        small._chunk = 7  # force many partial chunks over K * F rows
        large = BatchedMNAPlan.from_circuits(circuits)
        large._chunk = 10**9
        for a, b in zip(small.ac_sweep(FREQUENCIES), large.ac_sweep(FREQUENCIES)):
            _assert_ac_equal(a, b)

    def test_stacked_rhs_stays_a_column_stack(self):
        """Regression: a (B, n) RHS is read as ONE matrix by the solve gufunc.

        With a chunk size differing from the matrix dimension, a plain 2-D
        right-hand side makes ``np.linalg.solve`` raise a core-dimension
        mismatch instead of solving B independent systems.
        """
        circuits = _variants(_two_pole_circuit, "gm", [1e-3] * 5)
        plan = BatchedMNAPlan.from_circuits(circuits)
        assert plan._chunk != plan.size
        solutions = plan.ac_sweep(FREQUENCIES)  # raised ValueError before the fix
        assert len(solutions) == 5

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

        The smallest subnormal capacitance makes ``1j * omega * C`` underflow
        to an exact zero at 0.01 Hz but not at 100 Hz or 1 kHz, so the one
        singular system sits in the middle of the sweep — and, stacked, in
        the second circuit.
        """
        frequencies = [100.0, 0.01, 1000.0]
        singular = MnaCircuit("tiny_cap")
        singular.add_current_source("I1", "0", "a", ac=1.0)
        singular.add_capacitor("C1", "a", "0", 5e-324)
        regular = MnaCircuit("regular_cap")
        regular.add_current_source("I1", "0", "a", ac=1.0)
        regular.add_capacitor("C1", "a", "0", 1e-12)
        with pytest.raises(ConvergenceError) as interpreted:
            reference.ac_analysis(singular, frequencies)
        assert "f=0.01 Hz" in str(interpreted.value)
        with pytest.raises(ConvergenceError) as single:
            singular.ac_analysis(frequencies)
        with pytest.raises(ConvergenceError) as stacked:
            BatchedMNAPlan.from_circuits([regular, singular]).ac_sweep(frequencies)
        assert str(single.value) == str(interpreted.value)
        assert str(stacked.value) == str(interpreted.value)


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
    frequencies = np.logspace(1, 11, 401)
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


class TestPlanConstruction:
    def test_set_values_restamps_one_element(self):
        plan = BatchedMNAPlan.from_template(_two_pole_circuit(), 3)
        plan.set_values("R2", np.array([1e5, 2e5, 4e5]))
        circuits = [_two_pole_circuit(r2=r) for r in (1e5, 2e5, 4e5)]
        for circuit, solution in zip(circuits, plan.ac_sweep(FREQUENCIES)):
            _assert_ac_equal(solution, reference.ac_analysis(circuit, FREQUENCIES))

    def test_set_values_unknown_element(self):
        plan = BatchedMNAPlan.from_template(_two_pole_circuit(), 2)
        with pytest.raises(KeyError):
            plan.set_values("R99", np.zeros(2))

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

    def test_chunk_rows_bounded_on_single_core(self):
        assert solve_chunk_rows(1) == 128
        assert solve_chunk_rows(8) == 1024


# sha256 prefixes of each simulate() result (spec values, detail values,
# validity) at the compiled env's build-time probe points, recorded from the
# per-frequency engine before it was replaced.
_GOLDEN_SIMULATE = {
    "opamp-mna-v0": [
        "9c211e17a1e9ff7d", "66f89786abb52aa1", "e48039b53e5be207", "7ab234dee883ffec",
        "b30724e882ee32e6", "abbb8cfa65e46852", "ab681f3200b5558e", "c2891c4bae996b5b",
    ],
    "current_mirror_ota-mna-v0": [
        "f44b942ddea4084d", "1e0a728a129b8910", "a09bba5dea1d6ef9", "3ceb0aa491e863c0",
        "7d1dfefd72ffd58e", "3b5362c69828d563", "fd4893b6ff26370f", "f439041048de64b9",
    ],
}


def _probe_netlists(env_id):
    """The points ``CompiledEpisodePlan._probe_points`` checks, as netlists."""
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
    points += [space.sample(rng) for _ in range(5)]
    netlists = []
    for row in points:
        netlist = env.data_processor.netlist.copy()
        for parameter, value in zip(space, row):
            netlist.set_parameter(parameter.device, parameter.attribute, value)
        netlists.append(netlist)
    return simulator, netlists


def _result_bytes(result) -> bytes:
    values = list(result.specs.values()) + list(result.details.values())
    return np.array(values, dtype=np.float64).tobytes() + (b"1" if result.valid else b"0")


@pytest.mark.parametrize("env_id", sorted(_GOLDEN_SIMULATE))
class TestMnaSimulatorsUnchanged:
    def test_simulate_matches_recorded_results(self, env_id):
        simulator, netlists = _probe_netlists(env_id)
        assert simulator.method == "mna"
        digests = [
            hashlib.sha256(_result_bytes(simulator.simulate(n))).hexdigest()[:16]
            for n in netlists
        ]
        assert digests == _GOLDEN_SIMULATE[env_id]

    def test_simulate_matches_reference_engine(self, env_id, monkeypatch):
        simulator, netlists = _probe_netlists(env_id)
        engine = [_result_bytes(simulator.simulate(n)) for n in netlists]
        monkeypatch.setattr(MnaCircuit, "ac_analysis", reference.ac_analysis)
        assert [_result_bytes(simulator.simulate(n)) for n in netlists] == engine
