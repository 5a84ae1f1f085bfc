"""Tests for the netlist container."""

from __future__ import annotations

import pytest

from repro.circuits.devices import DeviceType, capacitor, ground, nmos, resistor, supply
from repro.circuits.netlist import Netlist


@pytest.fixture
def small_netlist() -> Netlist:
    netlist = Netlist("amp")
    netlist.add_device(nmos("M1", "out", "in", "vgnd"))
    netlist.add_device(resistor("RL", "vdd", "out", 10e3))
    netlist.add_device(capacitor("CL", "out", "vgnd", 1e-12))
    netlist.add_device(supply("VP", "vdd", 1.2))
    netlist.add_device(ground("VGND", "vgnd"))
    return netlist


class TestConstruction:
    def test_duplicate_names_rejected(self, small_netlist):
        with pytest.raises(ValueError):
            small_netlist.add_device(resistor("RL", "a", "b", 1.0))

    def test_len_iter_contains(self, small_netlist):
        assert len(small_netlist) == 5
        assert "M1" in small_netlist
        assert "MX" not in small_netlist
        assert {d.name for d in small_netlist} == {"M1", "RL", "CL", "VP", "VGND"}

    def test_lookup(self, small_netlist):
        assert small_netlist.device("M1").dtype is DeviceType.NMOS
        with pytest.raises(KeyError):
            small_netlist.device("M99")

    def test_type_queries(self, small_netlist):
        assert [d.name for d in small_netlist.transistors] == ["M1"]
        assert [d.name for d in small_netlist.devices_of_type(DeviceType.CAPACITOR)] == ["CL"]


class TestConnectivity:
    def test_nets(self, small_netlist):
        assert set(small_netlist.nets) == {"out", "in", "vgnd", "vdd"}

    def test_connections_are_shared_net_pairs(self, small_netlist):
        edges = set(small_netlist.connections())
        assert ("M1", "RL") in edges
        assert ("M1", "CL") in edges
        assert ("RL", "VP") in edges
        assert ("M1", "VGND") in edges
        # RL (vdd,out) and VGND (vgnd) share no net.
        assert ("RL", "VGND") not in edges and ("VGND", "RL") not in edges


class TestParameterRewriting:
    def test_get_set_parameter(self, small_netlist):
        small_netlist.set_parameter("RL", "value", 22e3)
        assert small_netlist.get_parameter("RL", "value") == pytest.approx(22e3)


class TestCopyAndExport:
    def test_copy_is_deep(self, small_netlist):
        clone = small_netlist.copy()
        clone.set_parameter("M1", "width", 77e-6)
        assert small_netlist.get_parameter("M1", "width") != pytest.approx(77e-6)
