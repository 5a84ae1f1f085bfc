"""Data-processing module (DPM) of the circuit design environment.

In Fig. 2 of the paper the environment contains, besides the simulator, a
"data processor" that (a) converts the agent's actions into device-parameter
updates and rewrites the netlist, and (b) converts simulated specifications
into rewards and state features.  :class:`DataProcessor` holds one
environment's side of that: its working netlist, the sizing last written
into it, and the topology constants (graph, static node features,
adjacency).  The batched rewrite and the observation assembly themselves
live in the episode engine,
:class:`~repro.env.circuit_env.BatchedCircuitEnv`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.circuits.library.benchmark import CircuitBenchmark
from repro.circuits.netlist import Netlist
from repro.graph.circuit_graph import CircuitGraph


class DataProcessor:
    """One environment's working netlist, its sizing and topology constants.

    Parameters
    ----------
    benchmark:
        Circuit benchmark providing the design space and spec space.
    netlist:
        The working netlist this processor rewrites in place.
    technology_constants:
        Constants used for the Baseline B static node features.
    """

    def __init__(
        self,
        benchmark: CircuitBenchmark,
        netlist: Netlist,
        technology_constants: Optional[Dict[str, float]] = None,
    ) -> None:
        self.benchmark = benchmark
        self.netlist = netlist
        self.graph = CircuitGraph(netlist)
        self.technology_constants = technology_constants or {}
        self._values: Optional[np.ndarray] = None
        # Static node features and the adjacency depend only on the topology
        # and the technology constants, both fixed for this processor's
        # lifetime — compute them once instead of on every observation.
        self._static_features = self.graph.static_feature_matrix(self.technology_constants)
        self._adjacency = self.graph.adjacency_matrix

    @property
    def adjacency(self) -> np.ndarray:
        """The processor's stable adjacency object (shared into observations).

        Every :class:`~repro.env.spaces.Observation` of this topology carries
        this exact array object, so identity-keyed operator caches (e.g.
        ``GraphEncoder``) can rely on it.  Treat it as read-only.
        """
        return self._adjacency

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    @property
    def parameter_values(self) -> np.ndarray:
        """Current device-parameter vector of the working netlist.

        Served from a cached copy of the last vector written (by
        :meth:`set_parameters` or the engine's step) — every rewrite of this
        processor's netlist records it, so the cache cannot go stale.  The
        first access (before any write) reads the netlist directly.
        """
        if self._values is None:
            self._values = self.benchmark.design_space.vector_from_netlist(self.netlist)
        return self._values.copy()

    def set_parameters(self, values: np.ndarray) -> np.ndarray:
        """Write a parameter vector into the netlist (clipped to the grid)."""
        self._values = self.benchmark.design_space.apply_to_netlist(self.netlist, values)
        return self._values.copy()

    @property
    def spec_feature_dimension(self) -> int:
        """Length of an observation's spec features (3 entries per specification)."""
        return 3 * len(self.benchmark.spec_space)

    @property
    def node_feature_dimension(self) -> int:
        return self.graph.feature_dimension

    @property
    def num_graph_nodes(self) -> int:
        return self.graph.num_nodes
