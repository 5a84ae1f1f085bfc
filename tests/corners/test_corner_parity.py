"""Bitwise parity: corner-lane batched sweep == sequential per-corner loop.

The acceptance bar for the corner lanes is *bitwise* equality, not
``allclose`` — the batched path must be a pure re-vectorization of the
sequential clone loop (``corner_reference.SequentialCornerSimulator``) on
every topology, including both the analytic and MNA methods of the
op-amp and CM-OTA simulators.
"""

from __future__ import annotations

import numpy as np
import pytest
from corner_reference import SequentialCornerSimulator

from repro.circuits import BENCHMARK_BUILDERS
from repro.corners import CornerSimulator, default_corner_set
from repro.simulation.folded_cascode_sim import FoldedCascodeSimulator
from repro.simulation.lna_sim import LnaSimulator
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.ota_sim import CmOtaSimulator
from repro.simulation.pa_sim import RfPaFineSimulator

#: (case id, circuit, simulator factory) — the zoo plus the MNA methods.
PARITY_CASES = [
    ("two_stage_opamp-analytic", "two_stage_opamp", lambda: OpAmpSimulator()),
    ("two_stage_opamp-mna", "two_stage_opamp", lambda: OpAmpSimulator(method="mna")),
    ("folded_cascode", "folded_cascode", lambda: FoldedCascodeSimulator()),
    ("current_mirror_ota-analytic", "current_mirror_ota", lambda: CmOtaSimulator()),
    ("current_mirror_ota-mna", "current_mirror_ota",
     lambda: CmOtaSimulator(method="mna")),
    ("common_source_lna", "common_source_lna", lambda: LnaSimulator()),
    ("rf_pa", "rf_pa", lambda: RfPaFineSimulator()),
]

NUM_SIZINGS = 4


def _bitwise_equal(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _sampled_netlists(circuit: str):
    """The center sizing plus random on-grid sizings of the design space."""
    benchmark = BENCHMARK_BUILDERS[circuit]()
    rng = np.random.default_rng(7)
    netlists = [benchmark.fresh_netlist()]
    for _ in range(NUM_SIZINGS - 1):
        netlist = benchmark.fresh_netlist()
        benchmark.design_space.apply_to_netlist(
            netlist, benchmark.design_space.sample(rng)
        )
        netlists.append(netlist)
    return netlists


@pytest.mark.parametrize(
    "circuit,factory",
    [pytest.param(circuit, factory, id=case_id)
     for case_id, circuit, factory in PARITY_CASES],
)
def test_batched_sweep_is_bitwise_sequential(circuit, factory):
    batched = CornerSimulator(
        factory(), corner_set=default_corner_set(),
        spec_space=BENCHMARK_BUILDERS[circuit]().spec_space,
    )
    sequential = SequentialCornerSimulator(
        factory(), corner_set=default_corner_set(),
        spec_space=BENCHMARK_BUILDERS[circuit]().spec_space,
    )
    for netlist in _sampled_netlists(circuit):
        merged_b = batched.simulate(netlist)
        merged_s = sequential.simulate(netlist)
        assert merged_b.valid == merged_s.valid
        assert set(merged_b.specs) == set(merged_s.specs)
        for name, value in merged_b.specs.items():
            assert _bitwise_equal(value, merged_s.specs[name]), (
                f"{circuit}: spec {name!r} diverged "
                f"({value!r} batched vs {merged_s.specs[name]!r} sequential)"
            )


@pytest.mark.parametrize(
    "circuit,factory",
    [pytest.param(circuit, factory, id=case_id)
     for case_id, circuit, factory in PARITY_CASES],
)
def test_per_corner_results_are_bitwise_sequential(circuit, factory):
    """corner_results() rows, not just the merged view, must match."""
    corner_set = default_corner_set()
    batched = CornerSimulator(factory(), corner_set=corner_set)
    sequential = SequentialCornerSimulator(factory(), corner_set=corner_set)
    netlist = _sampled_netlists(circuit)[-1]
    rows_b = batched.corner_results(netlist)
    rows_s = sequential.corner_results(netlist)
    assert len(rows_b) == len(rows_s) == len(corner_set)
    for row_b, row_s in zip(rows_b, rows_s):
        assert row_b.valid == row_s.valid
        assert set(row_b.specs) == set(row_s.specs)
        for name, value in row_b.specs.items():
            assert _bitwise_equal(value, row_s.specs[name])


@pytest.mark.parametrize(
    "circuit,factory",
    [pytest.param(circuit, factory, id=case_id)
     for case_id, circuit, factory in PARITY_CASES],
)
def test_simulate_rows_is_bitwise_per_netlist_simulate(circuit, factory):
    """A batch of rows equals the reference loop netlist by netlist."""
    spec_space = BENCHMARK_BUILDERS[circuit]().spec_space
    batched = CornerSimulator(factory(), spec_space=spec_space)
    sequential = SequentialCornerSimulator(factory(), spec_space=spec_space)
    netlists = _sampled_netlists(circuit)
    rows = np.array([netlist.parameter_array() for netlist in netlists])
    _assert_rows_bitwise(
        batched.simulate_rows(netlists[0].layout, rows),
        [sequential.simulate(n) for n in netlists],
    )


#: The simulators whose corner sweep runs as one batch.
BATCHED_CASES = [
    pytest.param(circuit, factory, id=case_id)
    for case_id, circuit, factory in PARITY_CASES
    if circuit in ("two_stage_opamp", "current_mirror_ota")
]


def _assert_rows_bitwise(rows_b, rows_s):
    assert len(rows_b) == len(rows_s)
    for row_b, row_s in zip(rows_b, rows_s):
        assert row_b.valid == row_s.valid
        assert list(row_b.specs) == list(row_s.specs)
        assert list(row_b.details) == list(row_s.details)
        for name, value in row_s.specs.items():
            assert _bitwise_equal(row_b.specs[name], value), name
        for name, value in row_s.details.items():
            assert _bitwise_equal(row_b.details[name], value), name


@pytest.mark.parametrize("circuit,factory", BATCHED_CASES)
def test_corners_of_every_netlist_are_lanes_of_one_batch(monkeypatch, circuit, factory):
    """The opamp/cm_ota sweeps run every (netlist, corner) pair in one batch."""
    simulator = CornerSimulator(factory())
    batch = simulator.base_simulator.results
    calls = []

    def spy(operating_points):
        calls.append(len(operating_points))
        return batch(operating_points)

    monkeypatch.setattr(simulator.base_simulator, "results", spy)
    netlists = _sampled_netlists(circuit)
    rows = np.array([netlist.parameter_array() for netlist in netlists])
    simulator.simulate_rows(netlists[0].layout, rows)
    assert calls == [NUM_SIZINGS * len(simulator.corner_set)]


@pytest.mark.parametrize("circuit,factory", BATCHED_CASES)
def test_batched_sweep_reads_each_netlists_fixed_values(circuit, factory):
    """A second netlist of the same structure is not simulated with the
    first one's supply, bias or load values."""
    batched = CornerSimulator(factory())
    sequential = SequentialCornerSimulator(factory())
    first = BENCHMARK_BUILDERS[circuit]().fresh_netlist()
    _assert_rows_bitwise(batched.corner_results(first), sequential.corner_results(first))
    changed = first.copy()
    changed.set_parameter("CL", "value", 4.0 * first.get_parameter("CL", "value"))
    changed.set_parameter(
        "VBIAS", "voltage", first.get_parameter("VBIAS", "voltage") + 0.05
    )
    rows_b = batched.corner_results(changed)
    rows_s = sequential.corner_results(changed)
    _assert_rows_bitwise(rows_b, rows_s)
    assert rows_s[0].specs["gain"] != sequential.corner_results(first)[0].specs["gain"]


@pytest.mark.parametrize("circuit,factory", BATCHED_CASES)
@pytest.mark.parametrize(
    "kind", [CornerSimulator, SequentialCornerSimulator], ids=["batched", "sequential"]
)
def test_non_positive_width_raises_on_both_paths(circuit, factory, kind):
    netlist = BENCHMARK_BUILDERS[circuit]().fresh_netlist()
    netlist.set_parameter("M1", "width", 0.0)
    simulator = kind(factory())
    with pytest.raises(ValueError, match="width and fingers must be positive"):
        simulator.simulate(netlist)
