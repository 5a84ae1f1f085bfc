"""Helpers mapping netlists to the graphs used by policies.

The paper distinguishes between the *full* circuit topology (its
contribution: supply, ground, and bias nodes included) and the *partial*
topology used by the prior GCN-RL method (Baseline B).  These helpers give
each construction a name so environments and ablation benches read clearly.
"""

from __future__ import annotations

from repro.circuits.devices import DeviceType
from repro.circuits.netlist import Netlist
from repro.graph.circuit_graph import CircuitGraph

#: Device types excluded by the partial-topology (Baseline B style) graph.
PARTIAL_TOPOLOGY_EXCLUDES = (DeviceType.SUPPLY, DeviceType.GROUND, DeviceType.BIAS)


def build_full_graph(netlist: Netlist) -> CircuitGraph:
    """Full circuit topology: every device plus supply/ground/bias nodes."""
    return CircuitGraph(netlist)


def build_partial_graph(netlist: Netlist) -> CircuitGraph:
    """Partial topology excluding power-supply and bias nodes (Baseline B)."""
    return CircuitGraph(netlist, exclude_types=PARTIAL_TOPOLOGY_EXCLUDES)
