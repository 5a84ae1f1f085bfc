"""Tests for the circuit graph construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.devices import DeviceType
from repro.graph import (
    CircuitGraph,
    build_full_graph,
    build_partial_graph,
)


class TestFullGraph:
    def test_opamp_node_set_includes_sources(self, opamp_benchmark):
        graph = build_full_graph(opamp_benchmark.netlist)
        assert graph.num_nodes == len(opamp_benchmark.netlist)
        assert "VP" in graph.node_names
        assert "VGND" in graph.node_names
        assert "VBIAS" in graph.node_names

    def test_adjacency_is_symmetric_binary(self, opamp_benchmark):
        graph = build_full_graph(opamp_benchmark.netlist)
        adjacency = graph.adjacency_matrix
        np.testing.assert_allclose(adjacency, adjacency.T)
        assert set(np.unique(adjacency)) <= {0.0, 1.0}
        assert np.all(np.diag(adjacency) == 0.0)

    def test_graph_is_connected(self, opamp_benchmark, rf_pa_benchmark):
        assert build_full_graph(opamp_benchmark.netlist).is_connected()
        assert build_full_graph(rf_pa_benchmark.netlist).is_connected()

    def test_expected_edges_from_topology(self, opamp_benchmark):
        graph = build_full_graph(opamp_benchmark.netlist)
        # Differential pair transistors share the tail node.
        assert "M2" in graph.neighbors("M1")
        # The compensation cap connects to both the M6 gate node and vout.
        assert "M6" in graph.neighbors("CC")
        assert "M7" in graph.neighbors("CC")
        # The supply node touches the PMOS devices.
        assert "M3" in graph.neighbors("VP")

    def test_degree_and_index(self, opamp_benchmark):
        graph = build_full_graph(opamp_benchmark.netlist)
        assert graph.degree("VGND") >= 3
        assert graph.node_index("M1") == graph.node_names.index("M1")
        with pytest.raises(KeyError):
            graph.node_index("not_a_device")

    def test_adjacency_copy_is_defensive(self, opamp_benchmark):
        graph = build_full_graph(opamp_benchmark.netlist)
        adjacency = graph.adjacency_matrix
        adjacency[0, 1] = 99.0
        assert graph.adjacency_matrix[0, 1] != 99.0

    def test_networkx_export(self, opamp_benchmark):
        graph = build_full_graph(opamp_benchmark.netlist)
        exported = graph.to_networkx()
        assert exported.number_of_nodes() == graph.num_nodes
        assert exported.number_of_edges() == graph.num_edges


class TestPartialGraph:
    def test_partial_excludes_supply_and_bias(self, opamp_benchmark):
        partial = build_partial_graph(opamp_benchmark.netlist)
        full = build_full_graph(opamp_benchmark.netlist)
        assert partial.num_nodes == full.num_nodes - 3
        for name in ("VP", "VGND", "VBIAS"):
            assert name not in partial.node_names


class TestFeatureMatrices:
    def test_static_features_do_not_track_netlist(self, opamp_benchmark):
        netlist = opamp_benchmark.fresh_netlist()
        graph = CircuitGraph(netlist)
        before = graph.static_feature_matrix().copy()
        netlist.set_parameter("M1", "width", 99e-6)
        np.testing.assert_allclose(before, graph.static_feature_matrix())

    def test_requires_at_least_two_nodes(self, opamp_benchmark):
        with pytest.raises(ValueError):
            CircuitGraph(opamp_benchmark.netlist, exclude_types=tuple(DeviceType))
