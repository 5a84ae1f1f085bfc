"""The MNA lane sweep against the per-frequency reference engine.

``mna_reference`` holds the original one-system-per-frequency loop.  The
sweep reduces each lane to Schur form once instead of solving every
frequency, so it rounds differently and is held to the tolerance contract in
the "Numerical contract" section of ``repro.simulation.mna`` (``AC_RTOL``
below).  What stays bitwise is lane invariance: a circuit's sweep does not
depend on the lanes it is swept with.
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
    AcSolution,
    BatchedMNAPlan,
    ConvergenceError,
    MnaCircuit,
    _topology,
    frequency_response_metrics,
    template_sweep_metrics,
)
from repro.simulation.opamp_sim import OpAmpSimulator

FREQUENCIES = np.logspace(1, 9, 57)

#: Normwise AC contract: per frequency, the largest node-voltage error is at
#: most AC_RTOL times the largest reference node voltage (see the contract in
#: ``repro.simulation.mna`` for the measured maxima).
AC_RTOL = 1e-9


def _two_pole_circuit(gm=1e-3, r1=5e4, c1=2e-12, r2=2e5, c2=1e-12) -> MnaCircuit:
    """Linear two-stage small-signal circuit (vsource, VCCS, RC loads)."""
    circuit = MnaCircuit("two_pole")
    circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
    circuit.add_vccs("GM1", "mid", "0", "in", "0", gm=-gm)
    circuit.add_resistor("R1", "mid", "0", r1)
    circuit.add_capacitor("C1", "mid", "0", c1)
    circuit.add_vccs("GM2", "out", "0", "mid", "0", gm=2.0 * gm)
    circuit.add_resistor("R2", "out", "0", r2)
    circuit.add_capacitor("C2", "out", "0", c2)
    return circuit


def _two_pole_lane(gm=1e-3, r1=5e4, c1=2e-12, r2=2e5, c2=1e-12) -> dict:
    """The element values of ``_two_pole_circuit`` with the same arguments."""
    return {"GM1": -gm, "R1": r1, "C1": c1, "GM2": 2.0 * gm, "R2": r2, "C2": c2}


def _rlc_circuit(inductance=1e-6) -> MnaCircuit:
    """Inductor branch rows, a current source and a floating capacitor."""
    circuit = MnaCircuit("rlc")
    circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
    circuit.add_inductor("L1", "in", "mid", inductance)
    circuit.add_capacitor("C1", "mid", "out", 1e-9)
    circuit.add_resistor("R1", "out", "0", 10.0)
    circuit.add_current_source("I1", "0", "out", ac=0.5)
    return circuit


def _cascade(resistance=1e4, capacitance=1e-12) -> MnaCircuit:
    """Two identical RC stages: ``G⁻¹C`` has one eigenvalue in a Jordan block."""
    circuit = MnaCircuit("cascade")
    circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
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
    circuit.add_current_source("I1", "0", "a", ac=1.0)
    circuit.add_capacitor("C1", "a", "b", capacitance)
    circuit.add_resistor("R1", "b", "0", 1e3)
    return circuit


def _lane(solution: AcSolution, k: int) -> AcSolution:
    """Lane ``k`` of a lane sweep, as a one-circuit solution."""
    return AcSolution(
        solution.frequencies, {node: values[k] for node, values in solution.node_voltages.items()}
    )


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


#: ``(build, key, values, elements)``: lane ``k`` of ``build()`` restamped
#: with ``elements(values[k])`` is the circuit ``build(key=values[k])``.
#: Between them the cases restamp every restampable kind: VCCS, inductor,
#: resistor and capacitor.
_LANE_CASES = pytest.mark.parametrize(
    "build, key, values, elements",
    [
        (_two_pole_circuit, "gm", [5e-4, 1e-3, 2.5e-3, 8e-3],
         lambda gm: {"GM1": -gm, "GM2": 2.0 * gm}),
        (_rlc_circuit, "inductance", [1e-7, 1e-6, 1e-5], lambda value: {"L1": value}),
        (_cascade, "resistance", [1e3, 1e4, 2e4], lambda value: {"R1": value, "R2": value}),
        (_dc_floating, "capacitance", [1e-15, 1e-12, 1e-9], lambda value: {"C1": value}),
    ],
    ids=["two_pole", "rlc", "cascade", "dc_floating"],
)


class TestAcContract:
    @_LANE_CASES
    def test_stacked_sweep_meets_the_contract(self, build, key, values, elements):
        """Each lane of one template's sweep meets the contract for its own circuit."""
        solution = build().ac_analysis(FREQUENCIES, lane_values=[elements(v) for v in values])
        for k, value in enumerate(values):
            expected = reference.ac_analysis(build(**{key: value}), FREQUENCIES)
            _assert_ac_close(_lane(solution, k), expected)

    @pytest.mark.parametrize(
        "build",
        [_two_pole_circuit, _rlc_circuit, _cascade, _dc_floating],
        ids=["two_pole", "rlc", "cascade", "dc_floating"],
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

    @pytest.mark.parametrize("num_circuits", [8, 64])
    def test_stacked_sweep_is_bitwise_lane_invariant(self, num_circuits):
        """Each lane of a K-lane sweep equals that circuit swept alone (K = 1).

        Lanes mix regular circuits with ones whose R1 is infinite, whose G
        is singular and takes the shifted reduction.
        """
        rng = np.random.default_rng(num_circuits)
        lanes = [
            dict(
                gm=10 ** rng.uniform(-5, -2),
                r1=np.inf if k % 3 == 2 else 10 ** rng.uniform(3, 7),
                c1=10 ** rng.uniform(-14, -11),
                r2=10 ** rng.uniform(3, 7),
                c2=10 ** rng.uniform(-14, -11),
            )
            for k in range(num_circuits)
        ]
        stacked = _two_pole_circuit().ac_analysis(
            FREQUENCIES, lane_values=[_two_pole_lane(**lane) for lane in lanes]
        )
        for k, lane in enumerate(lanes):
            _assert_ac_equal(_lane(stacked, k), _two_pole_circuit(**lane).ac_analysis(FREQUENCIES))
        capacitances = 10 ** rng.uniform(-15, -9, 8)
        stacked = _dc_floating().ac_analysis(
            FREQUENCIES, lane_values=[{"C1": value} for value in capacitances]
        )
        for k, value in enumerate(capacitances):
            _assert_ac_equal(_lane(stacked, k), _dc_floating(value).ac_analysis(FREQUENCIES))

    def test_non_finite_values_give_nan_only_in_their_lane(self):
        lanes = [{"C2": 1e-12}, {"C2": np.inf}, {"C2": 1e-12}]
        solution = _two_pole_circuit().ac_analysis(FREQUENCIES, lane_values=lanes)
        assert np.isnan(solution.voltage("out")[1]).all()
        _assert_ac_equal(_lane(solution, 0), _two_pole_circuit().ac_analysis(FREQUENCIES))
        _assert_ac_equal(_lane(solution, 2), _lane(solution, 0))

    def test_ac_input_validation(self):
        circuit = _two_pole_circuit()
        for lane_values in (None, [{"R2": 1e5}]):
            with pytest.raises(ValueError):
                circuit.ac_analysis([], lane_values=lane_values)
            with pytest.raises(ValueError):
                circuit.ac_analysis([0.0, 10.0], lane_values=lane_values)

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
        Swept behind a lane resonating far off the sweep, the singular one
        is the second lane of the template.
        """
        frequencies = [0.01, 1.0 / (2.0 * np.pi), 100.0]

        def tank(inductance, capacitance):
            circuit = MnaCircuit("tank")
            circuit.add_current_source("I1", "0", "a", ac=1.0)
            circuit.add_inductor("L1", "a", "0", inductance)
            circuit.add_capacitor("C1", "a", "0", capacitance)
            return circuit

        singular = tank(1.0, 1.0)
        regular = tank(1e-6, 1e-12)
        with pytest.raises(ConvergenceError) as interpreted:
            reference.ac_analysis(singular, frequencies)
        assert "f=0.159 Hz" in str(interpreted.value)
        with pytest.raises(ConvergenceError) as single:
            singular.ac_analysis(frequencies)
        with pytest.raises(ConvergenceError) as stacked:
            regular.ac_analysis(
                frequencies, lane_values=[{"L1": 1e-6, "C1": 1e-12}, {"L1": 1.0, "C1": 1.0}]
            )
        assert str(single.value) == str(interpreted.value)
        assert str(stacked.value) == str(interpreted.value)
        reference.ac_analysis(regular, frequencies)
        regular.ac_analysis(frequencies)


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


class TestLaneSweep:
    def test_restamp_restamps_one_element(self):
        """Lanes restamped through ``lane_values`` sweep like the circuits alone."""
        resistances = (1e5, 2e5, 4e5)
        solution = _two_pole_circuit().ac_analysis(
            FREQUENCIES, lane_values=[{"R2": r} for r in resistances]
        )
        for k, r in enumerate(resistances):
            _assert_ac_equal(_lane(solution, k), _two_pole_circuit(r2=r).ac_analysis(FREQUENCIES))

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

    def test_lane_sweep_ground_voltage_has_the_lane_axis(self):
        circuit = MnaCircuit("rc")
        circuit.add_voltage_source("VIN", "in", "0", ac=1.0)
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_capacitor("C1", "out", "0", 1e-9)
        frequencies = [1e3, 1e5, 1e7]
        solution = circuit.ac_analysis(frequencies, lane_values=[{"R1": 1e3}, {"R1": 2e3}])
        for ground in ("gnd", "0"):
            assert solution.voltage(ground).shape == solution.voltage("out").shape == (2, 3)
            assert not solution.voltage(ground).any()
        assert circuit.ac_analysis(frequencies).voltage("gnd").shape == (3,)

    def test_topology_is_built_once_per_signature(self):
        first, second = _two_pole_circuit(gm=1e-3), _two_pole_circuit(gm=5e-3)
        other = _rlc_circuit()
        first.ac_analysis(FREQUENCIES)
        misses = _topology.cache_info().misses
        second.ac_analysis(FREQUENCIES, lane_values=[{"R2": 1e5}] * 4)
        assert _topology.cache_info().misses == misses
        built = _topology(first.structure_signature())
        assert built is _topology(second.structure_signature())
        assert built is not _topology(other.structure_signature())
        assert list(built.nodes) == first.node_names

    @_LANE_CASES
    def test_restamped_lanes_are_bitwise_their_circuits(self, build, key, values, elements):
        solution = build().ac_analysis(FREQUENCIES, lane_values=[elements(v) for v in values])
        for k, value in enumerate(values):
            _assert_ac_equal(_lane(solution, k), build(**{key: value}).ac_analysis(FREQUENCIES))

    def test_lanes_start_at_the_circuit_values(self):
        """A plan's unrestamped lanes each hold the circuit's own sweep."""
        circuit = _rlc_circuit()
        plan = BatchedMNAPlan(circuit, 3)
        assert plan.nodes == tuple(circuit.node_names)
        frequencies, voltages = plan.sweep(FREQUENCIES)
        expected = circuit.ac_analysis(FREQUENCIES)
        assert frequencies.tobytes() == expected.frequencies.tobytes()
        assert voltages.shape == (3, len(plan.nodes), FREQUENCIES.size)
        for k in range(3):
            for i, node in enumerate(plan.nodes):
                assert voltages[k, i].tobytes() == expected.voltage(node).tobytes(), (k, node)

    def test_lane_sweep_leaves_the_template_unchanged(self):
        template = _two_pole_circuit()
        before = template.ac_analysis(FREQUENCIES)
        template.ac_analysis(FREQUENCIES, lane_values=[{"R2": 1e3, "GM1": -5e-3}] * 2)
        assert [r.value for r in template.resistors] == [5e4, 2e5]
        _assert_ac_equal(template.ac_analysis(FREQUENCIES), before)

    def test_sources_are_not_restampable(self):
        with pytest.raises(KeyError, match="VIN"):
            _two_pole_circuit().ac_analysis(FREQUENCIES, lane_values=[{"VIN": 2.0}])
        with pytest.raises(KeyError, match="I1"):
            _rlc_circuit().ac_analysis(FREQUENCIES, lane_values=[{"I1": 2.0}])

    def test_every_lane_names_the_first_lanes_elements(self):
        with pytest.raises(KeyError):
            _two_pole_circuit().ac_analysis(
                FREQUENCIES, lane_values=[{"R2": 1e5}, {"C2": 1e-12}]
            )

    def test_lane_sweep_singular_everywhere_names_the_circuit(self):
        circuit = MnaCircuit("floating")
        circuit.add_current_source("I1", "a", "0", ac=1.0)
        circuit.add_resistor("R1", "b", "0", 1e3)
        with pytest.raises(ConvergenceError) as interpreted:
            reference.ac_analysis(circuit, [10.0, 100.0])
        with pytest.raises(ConvergenceError) as stacked:
            circuit.ac_analysis([10.0, 100.0], lane_values=[{"R1": 1e3}, {"R1": 2e3}])
        assert str(stacked.value) == str(interpreted.value)

    def test_template_sweep_metrics_are_each_lanes_metrics(self):
        gms = (2e-4, 1e-3, 4e-3)
        lanes = [_two_pole_lane(gm=gm) for gm in gms]
        got = template_sweep_metrics(_two_pole_circuit(), lanes)
        assert len(got) == len(gms)
        for metrics, gm in zip(got, gms):
            response = _two_pole_circuit(gm=gm).ac_analysis(SWEEP_FREQUENCIES).voltage("out")
            want = frequency_response_metrics(SWEEP_FREQUENCIES, response)
            assert np.array(metrics).tobytes() == np.array(want).tobytes()
        mid = template_sweep_metrics(_two_pole_circuit(), lanes, node="mid")
        assert mid != got

    def test_restamp_unknown_element(self):
        with pytest.raises(KeyError):
            _two_pole_circuit().ac_analysis(FREQUENCIES, lane_values=[{"R99": 0.0}, {"R99": 0.0}])

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ValueError):
            _two_pole_circuit().ac_analysis(FREQUENCIES, lane_values=[])


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

# The same digests for the rest of the zoo: the folded cascode, the LNA, both
# RF PA fidelities and every corner sweep (the merged worst-corner result).
_GOLDEN_SIMULATE_ZOO = {
    "common_source_lna-corners-v0": [
        "f662a1463e41dd8a", "e8744a5b65c8c580", "1cd2235a1099a6fb", "1cf292670d6578fe",
        "54b379253bca81d5", "c9fb9008174dea8e", "d6ee0f6dcd172bc1", "76a845667fdb5a23",
    ],
    "common_source_lna-p2s-v0": [
        "4f3af12650497f21", "910f60bb1baab9f1", "11fff0f6a6f296ee", "133c66815aa017a3",
        "ea9ebf2544b996a1", "a9dcfc7b237d9a7c", "abcb5e5b5d860c5b", "4bedf5e95630f6e0",
    ],
    "current_mirror_ota-corners-v0": [
        "8770e5abfcd8376d", "2d67ad1cb8553283", "4987100d2d7fd3c1", "bf5edcfb0d653980",
        "0a4246359bfbc2cb", "123919801b74c210", "3f607c84da07fdd0", "0770f1361534ffd3",
    ],
    "folded_cascode-corners-v0": [
        "602c9db386f74ff4", "a0d821246638fcc6", "c3349db8aac53d39", "c9bcc87c46fec170",
        "0a6c77fae6145e47", "b484f38d33ce1731", "a0c0d5ab51c90ed5", "fcad253a14e4444c",
    ],
    "folded_cascode-p2s-v0": [
        "1a8480c27d6b58a4", "d29014e3c15d825d", "38120ad313dc75c9", "ba5d7b94240f4473",
        "1fe1c2891e4f8a80", "e76450122d921be5", "9436e33c94b5ef08", "e7f7ef020fe37949",
    ],
    "opamp-corners-v0": [
        "2b22f4d87e20a441", "df0932dbf9587017", "f377ed1873b8935c", "c7b0847964db9533",
        "d91e836f6211cc00", "c0a26f0118896fb3", "878b71e9613efbc8", "9cd9eeb1789fcf45",
    ],
    "rf_pa-coarse-v0": [
        "a1f69855b693ad35", "7dd5027f77907979", "00ea50b55bc7995d", "62a20d5e456d420a",
        "622a23d543f4a9c6", "2d103d10fca0cce3", "c80827587b309eeb", "8cf924cd885ceee4",
    ],
    "rf_pa-corners-v0": [
        "12052b4f88a4b210", "df16b6f9b0ab98b4", "da4fab64318b9d07", "2b6e52b4560f1f68",
        "b363ea69cacaa6ed", "58cc0ba55da02fe5", "3f40f6203dbb354b", "5c7322aed0ef56c3",
    ],
    "rf_pa-fine-v0": [
        "0a1560b041b72e5b", "b25208fa38fcf7e7", "964693f959dbc359", "de7b40928db5622b",
        "f0682739da89f311", "0942cf793431b45e", "ec3892494ab0e5f4", "75476f7e4315b0d8",
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


@pytest.mark.parametrize("env_id", sorted(_GOLDEN_SIMULATE_ZOO))
def test_zoo_simulate_matches_recorded_results(env_id):
    simulator, netlists = _probe_netlists(env_id)
    assert _digests(simulator, netlists) == _GOLDEN_SIMULATE_ZOO[env_id]


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
    values = netlist.layout.lanes(netlist.parameter_array()[None], simulator.reads)[0]
    op = simulator.operating_point(values)
    circuit = simulator.build_small_signal_circuit(op)
    solution = reference.ac_analysis(circuit, SWEEP_FREQUENCIES)
    gain, bandwidth, phase_margin = frequency_response_metrics(
        SWEEP_FREQUENCIES, solution.voltage("out")
    )
    if isinstance(simulator, OpAmpSimulator):
        return simulator._result(op, (gain, bandwidth, phase_margin))
    return simulator._result(op, (gain, bandwidth))
