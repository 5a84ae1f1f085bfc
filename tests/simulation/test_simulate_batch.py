"""``simulate_batch``: every lane bitwise equal to ``simulate`` of its netlist.

The op-amp and CM-OTA simulators keep one copy of their circuit equations,
the scalar ``operating_point``.  ``simulate_batch`` loops its lanes through
it and, for ``method="mna"``, sweeps every lane's small-signal circuit in
one stacked ``BatchedMNAPlan``.  These tests pin that a lane's result does
not depend on the batch it rides in: K = 1, 8 and 16 lanes of random
on-grid sizings whose load capacitances differ from lane to lane (so the
stacked sweep must restamp every element rather than keep the template's
values), with lanes biased off (``VBIAS = 0``) so that they are invalid.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.simulation import simulate_batch
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


def _lane_netlists(env_id, num_lanes, invalid_lanes):
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
    return env.simulator, netlists


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
    simulator, netlists = _lane_netlists(env_id, num_lanes, invalid_lanes)
    assert simulator.method == ("mna" if "mna" in env_id else "analytic")
    batch = simulator.simulate_batch(netlists)
    assert len(batch) == num_lanes
    for lane, (result, netlist) in enumerate(zip(batch, netlists)):
        assert _bits(result) == _bits(simulator.simulate(netlist)), lane
        assert result.valid == (lane not in invalid_lanes)


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_batch_keeps_no_state_on_the_simulator(env_id):
    simulator, netlists = _lane_netlists(env_id, 8, (3,))
    before = dict(vars(simulator))
    first = [_bits(result) for result in simulator.simulate_batch(netlists)]
    assert vars(simulator) == before
    second = [_bits(result) for result in simulator.simulate_batch(netlists[::-1])]
    assert second == first[::-1]


@pytest.mark.parametrize("env_id", ["opamp-mna-v0", "current_mirror_ota-mna-v0"])
def test_operating_points_stand_in_for_the_netlists(env_id):
    simulator, netlists = _lane_netlists(env_id, 4, ())
    points = [simulator.operating_point(netlist) for netlist in netlists]
    assert [_bits(r) for r in simulator.simulate_batch(netlists, points)] == [
        _bits(r) for r in simulator.simulate_batch(netlists)
    ]
    with pytest.raises(ValueError, match="3 operating points for 4 netlists"):
        simulator.simulate_batch(netlists, points[:3])
    assert simulator.simulate_batch([]) == []


def test_simulator_method_validation():
    with pytest.raises(ValueError):
        OpAmpSimulator(method="spice")
    with pytest.raises(ValueError):
        CmOtaSimulator(method="spice")


class _ScaledOpAmp(OpAmpSimulator):
    """Overrides only ``simulate``; the inherited batch entry would bypass it."""

    def simulate(self, netlist):
        result = super().simulate(netlist)
        result.specs["gain"] *= 1.5
        return result


class _ScaledBatchOpAmp(OpAmpSimulator):
    """Overrides both entries in one class."""

    def simulate(self, netlist):
        return self.simulate_batch([netlist])[0]

    def simulate_batch(self, netlists, operating_points=None):
        results = OpAmpSimulator.simulate_batch(self, netlists, operating_points)
        for result in results:
            result.specs["gain"] *= 1.5
        return results


@pytest.mark.parametrize("kind", [OpAmpSimulator, _ScaledOpAmp, _ScaledBatchOpAmp])
def test_helper_calls_what_a_loop_of_simulate_would(kind, monkeypatch):
    _, netlists = _lane_netlists("opamp-mna-v0", 3, ())
    simulator = kind(method="mna")
    expected = [_bits(simulator.simulate(netlist)) for netlist in netlists]
    calls = []
    batch = simulator.simulate_batch
    monkeypatch.setattr(simulator, "simulate_batch", lambda ns: calls.append(len(ns)) or batch(ns))
    assert [_bits(result) for result in simulate_batch(simulator, netlists)] == expected
    # A class whose simulate_batch is at least as derived as its simulate
    # gets one batch call; the other loops its simulate (which here reaches
    # the batch entry once per netlist).
    assert calls == ([1, 1, 1] if kind is _ScaledOpAmp else [3])
