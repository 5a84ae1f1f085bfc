"""Tests for the circuit graph construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.devices import nmos, resistor
from repro.circuits.netlist import Netlist
from repro.graph import CircuitGraph


class TestFullGraph:
    def test_opamp_node_set_includes_sources(self, opamp_benchmark):
        graph = CircuitGraph(opamp_benchmark.netlist)
        assert graph.num_nodes == len(opamp_benchmark.netlist)
        assert "VP" in graph.node_names
        assert "VGND" in graph.node_names
        assert "VBIAS" in graph.node_names

    def test_adjacency_is_symmetric_binary(self, opamp_benchmark):
        graph = CircuitGraph(opamp_benchmark.netlist)
        adjacency = graph.adjacency_matrix
        np.testing.assert_allclose(adjacency, adjacency.T)
        assert set(np.unique(adjacency)) <= {0.0, 1.0}
        assert np.all(np.diag(adjacency) == 0.0)

    def test_graph_is_connected(self, opamp_benchmark, rf_pa_benchmark):
        assert CircuitGraph(opamp_benchmark.netlist).is_connected()
        assert CircuitGraph(rf_pa_benchmark.netlist).is_connected()

    def test_expected_edges_from_topology(self, opamp_benchmark):
        graph = CircuitGraph(opamp_benchmark.netlist)
        # Differential pair transistors share the tail node.
        assert "M2" in graph.neighbors("M1")
        # The compensation cap connects to both the M6 gate node and vout.
        assert "M6" in graph.neighbors("CC")
        assert "M7" in graph.neighbors("CC")
        # The supply node touches the PMOS devices.
        assert "M3" in graph.neighbors("VP")

    def test_degree_and_index(self, opamp_benchmark):
        graph = CircuitGraph(opamp_benchmark.netlist)
        assert graph.degree("VGND") >= 3
        assert graph.node_index("M1") == graph.node_names.index("M1")
        with pytest.raises(KeyError):
            graph.node_index("not_a_device")

    def test_adjacency_copy_is_defensive(self, opamp_benchmark):
        graph = CircuitGraph(opamp_benchmark.netlist)
        adjacency = graph.adjacency_matrix
        adjacency[0, 1] = 99.0
        assert graph.adjacency_matrix[0, 1] != 99.0

    def test_networkx_export(self, opamp_benchmark):
        graph = CircuitGraph(opamp_benchmark.netlist)
        exported = graph.to_networkx()
        assert exported.number_of_nodes() == graph.num_nodes
        assert exported.number_of_edges() == graph.num_edges


    def test_every_device_is_a_node_in_netlist_order(self, opamp_benchmark, rf_pa_benchmark):
        for netlist in (opamp_benchmark.netlist, rf_pa_benchmark.netlist):
            graph = CircuitGraph(netlist)
            assert graph.node_names == [device.name for device in netlist]

    def test_two_devices_make_the_smallest_graph(self):
        shared = Netlist("pair", [
            nmos("M1", "d", "g", "s", width=10e-6, fingers=4),
            resistor("R1", "d", "vdd", 1e3),
        ])
        graph = CircuitGraph(shared)
        assert graph.num_nodes == 2 and graph.num_edges == 1
        assert graph.neighbors("M1") == ["R1"]
        assert graph.is_connected()
        apart = Netlist("apart", [
            nmos("M1", "d", "g", "s", width=10e-6, fingers=4),
            resistor("R1", "x", "y", 1e3),
        ])
        graph = CircuitGraph(apart)
        assert graph.num_edges == 0
        assert not graph.is_connected()


class TestFeatureMatrices:
    def test_static_features_do_not_track_netlist(self, opamp_benchmark):
        netlist = opamp_benchmark.fresh_netlist()
        graph = CircuitGraph(netlist)
        before = graph.static_feature_matrix().copy()
        netlist.set_parameter("M1", "width", 99e-6)
        np.testing.assert_allclose(before, graph.static_feature_matrix())

    def test_requires_at_least_two_nodes(self):
        netlist = Netlist("single", [nmos("M1", "d", "g", "s", width=10e-6, fingers=4)])
        with pytest.raises(ValueError, match="at least two nodes"):
            CircuitGraph(netlist)
