"""The circuit graph ``G = (V, E)`` consumed by the policy's GNN branch.

Each node is a device (transistors, passives, and — unlike the prior GCN-RL
work the paper criticizes — also the supply, ground and bias sources).  Two
nodes share an edge when the corresponding devices share a net.  The graph
structure is fixed for a given topology; only the node features change as the
agent tunes device parameters, which is why :class:`CircuitGraph` caches the
adjacency matrix and the plan that reads the dynamic features.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import networkx as nx
import numpy as np

from repro.circuits.devices import DeviceType
from repro.circuits.netlist import Netlist
from repro.graph.features import (
    device_feature_vector,
    dynamic_parameter_reads,
    feature_dimension,
    static_feature_vector,
)


class CircuitGraph:
    """Device-level graph view of a netlist.

    Parameters
    ----------
    netlist:
        The circuit.  The graph keeps a reference; the dynamic node
        features are read from a sizing by the episode engine.
    exclude_types:
        Device types to drop from the graph.  The paper's Baseline B uses a
        *partial* topology that excludes supply and bias nodes; passing
        ``(DeviceType.SUPPLY, DeviceType.GROUND, DeviceType.BIAS)`` reproduces
        that ablation.  The full graph (default) is the paper's contribution.
    """

    def __init__(
        self,
        netlist: Netlist,
        exclude_types: Sequence[DeviceType] = (),
    ) -> None:
        self._netlist = netlist
        self._excluded = tuple(exclude_types)
        self._node_names: List[str] = [
            device.name for device in netlist if device.dtype not in self._excluded
        ]
        if len(self._node_names) < 2:
            raise ValueError("circuit graph needs at least two nodes")
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._node_names)}
        self._adjacency = self._build_adjacency()
        self._build_feature_reads()

    def _build_feature_reads(self) -> None:
        """Build the dynamic node-feature assembly once.

        The one-hot type block of every node feature is constant, and the
        dynamic block is a fixed set of ``device parameter -> (row, column)``
        reads with fixed scales (:func:`dynamic_parameter_reads`, in node
        order).  The episode engine
        (:class:`~repro.env.circuit_env.BatchedCircuitEnv`) turns that plan
        into one gather + one vectorized multiply per step for a whole batch.
        """
        one_hot_width = feature_dimension() - 2  # PARAMETER_SLOTS trailing columns
        base = np.zeros((len(self._node_names), feature_dimension()))
        rows: List[int] = []
        cols: List[int] = []
        scales: List[float] = []
        for row, name in enumerate(self._node_names):
            device = self._netlist.device(name)
            base[row] = device_feature_vector(device)
            base[row, one_hot_width:] = 0.0
            for key, scale, slot in dynamic_parameter_reads(device):
                rows.append(row)
                cols.append(one_hot_width + slot)
                scales.append(scale)
        self._base_features = base
        self._feature_rows = np.array(rows, dtype=np.intp)
        self._feature_cols = np.array(cols, dtype=np.intp)
        self._feature_scales = np.array(scales)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> np.ndarray:
        size = len(self._node_names)
        adjacency = np.zeros((size, size))
        for first, second in self._netlist.connections():
            if first in self._index and second in self._index:
                i, j = self._index[first], self._index[second]
                adjacency[i, j] = 1.0
                adjacency[j, i] = 1.0
        return adjacency

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def netlist(self) -> Netlist:
        return self._netlist

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    @property
    def num_nodes(self) -> int:
        return len(self._node_names)

    @property
    def num_edges(self) -> int:
        return int(self._adjacency.sum() / 2)

    @property
    def adjacency_matrix(self) -> np.ndarray:
        """Symmetric binary adjacency (copy — callers may not mutate ours)."""
        return self._adjacency.copy()

    def node_index(self, device_name: str) -> int:
        try:
            return self._index[device_name]
        except KeyError as exc:
            raise KeyError(f"device '{device_name}' is not a node of this graph") from exc

    def neighbors(self, device_name: str) -> List[str]:
        row = self._adjacency[self.node_index(device_name)]
        return [self._node_names[j] for j in np.nonzero(row)[0]]

    def degree(self, device_name: str) -> int:
        return int(self._adjacency[self.node_index(device_name)].sum())

    def is_connected(self) -> bool:
        """Whether the circuit graph is a single connected component."""
        return nx.is_connected(self.to_networkx())

    def to_networkx(self) -> nx.Graph:
        """Export to ``networkx`` for connectivity checks and visualization."""
        graph = nx.Graph()
        graph.add_nodes_from(self._node_names)
        rows, cols = np.nonzero(np.triu(self._adjacency))
        graph.add_edges_from(
            (self._node_names[i], self._node_names[j]) for i, j in zip(rows, cols)
        )
        return graph

    # ------------------------------------------------------------------
    # Feature matrices
    # ------------------------------------------------------------------
    def static_feature_matrix(self) -> np.ndarray:
        """Baseline B style static features (no device parameters)."""
        return np.stack(
            [static_feature_vector(self._netlist.device(name)) for name in self._node_names]
        )

    @property
    def feature_dimension(self) -> int:
        return feature_dimension()
