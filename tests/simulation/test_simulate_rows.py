"""``simulate_rows``: every row's result is what a batch of one gives.

A simulator is handed ``(n, P)`` parameter rows and their layout and nothing
else.  Each row's result depends on that row alone: the op-amp and CM-OTA
keep one copy of their circuit equations, the scalar ``operating_point``,
and for ``method="mna"`` sweep every lane's small-signal circuit in one
stacked ``BatchedMNAPlan``.  These tests pin that a lane's result does not
depend on the batch it rides in: K = 1, 8 and 16 lanes of random on-grid
sizings whose load capacitances differ from lane to lane (so the stacked
sweep must restamp every element rather than keep the template's values),
with lanes biased off (``VBIAS = 0``) so that they are invalid; and, on
every catalog environment, 8 seeded rows against 8 batches of one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.ota_sim import CmOtaSimulator

ENV_IDS = [
    "opamp-p2s-v0",
    "opamp-mna-v0",
    "current_mirror_ota-p2s-v0",
    "current_mirror_ota-mna-v0",
]

#: (lane count, invalid lanes)
LANE_CASES = [
    pytest.param(1, (), id="K1"),
    pytest.param(1, (0,), id="K1-invalid"),
    pytest.param(8, (3,), id="K8"),
    pytest.param(16, (0, 15), id="K16"),
]


def _lane_rows(env_id, num_lanes, invalid_lanes):
    env = repro.make_env(env_id, seed=0)
    space = env.benchmark.design_space
    rng = np.random.default_rng(num_lanes)
    netlists = []
    for lane in range(num_lanes):
        netlist = env.netlist.copy()
        space.apply_to_netlist(netlist, space.sample(rng))
        load = netlist.get_parameter("CL", "value")
        netlist.set_parameter("CL", "value", load * (1.0 + lane / num_lanes))
        if lane in invalid_lanes:
            netlist.set_parameter("VBIAS", "voltage", 0.0)
        netlists.append(netlist)
    rows = np.array([netlist.parameter_array() for netlist in netlists])
    return env.simulator, env.netlist.layout, rows, netlists


def _bits(result):
    """Names, raw float bits and validity of one result."""
    return (
        list(result.specs),
        np.array(list(result.specs.values()), dtype=np.float64).tobytes(),
        list(result.details),
        np.array(list(result.details.values()), dtype=np.float64).tobytes(),
        result.valid,
    )


@pytest.mark.parametrize("env_id", ENV_IDS)
@pytest.mark.parametrize("num_lanes,invalid_lanes", LANE_CASES)
def test_lanes_are_bitwise_simulate(env_id, num_lanes, invalid_lanes):
    simulator, layout, rows, netlists = _lane_rows(env_id, num_lanes, invalid_lanes)
    assert simulator.method == ("mna" if "mna" in env_id else "analytic")
    batch = simulator.simulate_rows(layout, rows)
    assert len(batch) == num_lanes
    for lane, (result, netlist) in enumerate(zip(batch, netlists)):
        assert _bits(result) == _bits(simulator.simulate(netlist)), lane
        assert result.valid == (lane not in invalid_lanes)


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_batch_keeps_no_state_on_the_simulator(env_id):
    simulator, layout, rows, _ = _lane_rows(env_id, 8, (3,))
    before = dict(vars(simulator))
    first = [_bits(result) for result in simulator.simulate_rows(layout, rows)]
    assert vars(simulator) == before
    second = [_bits(result) for result in simulator.simulate_rows(layout, rows[::-1])]
    assert second == first[::-1]
    assert simulator.simulate_rows(layout, rows[:0]) == []


def test_simulator_method_validation():
    with pytest.raises(ValueError):
        OpAmpSimulator(method="spice")
    with pytest.raises(ValueError):
        CmOtaSimulator(method="spice")


def test_a_missing_parameter_is_named():
    simulator, layout, rows, _ = _lane_rows("opamp-p2s-v0", 1, ())
    lna = repro.make_env("common_source_lna-p2s-v0", seed=0).netlist
    with pytest.raises(KeyError, match="has no parameter"):
        simulator.simulate_rows(lna.layout, lna.parameter_array()[None])


@pytest.mark.parametrize("env_id", repro.list_envs())
def test_rows_equal_batches_of_one(env_id):
    """8 seeded rows in one call equal 8 one-row calls, bit for bit."""
    env = repro.make_env(env_id, seed=0)
    space = env.benchmark.design_space
    layout = env.netlist.layout
    rows = env.netlist.parameter_array()[None].repeat(8, 0)
    knobs = layout.columns(tuple((p.device, p.attribute) for p in space))
    rows[:, knobs] = space.sample_batch(np.random.default_rng(8), 8)
    batch = env.simulator.simulate_rows(layout, rows)
    singles = [env.simulator.simulate_rows(layout, rows[row : row + 1])[0] for row in range(8)]
    assert [_bits(result) for result in batch] == [_bits(result) for result in singles]
