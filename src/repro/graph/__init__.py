"""Circuit-topology graphs and node-feature encodings (Sec. 3 of the paper)."""

from repro.graph.circuit_graph import CircuitGraph
from repro.graph.features import (
    PARAMETER_SCALES,
    PARAMETER_SLOTS,
    device_feature_vector,
    device_parameter_vector,
    feature_dimension,
    node_type_one_hot,
    static_feature_vector,
)

__all__ = [
    "CircuitGraph",
    "PARAMETER_SCALES",
    "PARAMETER_SLOTS",
    "device_feature_vector",
    "device_parameter_vector",
    "feature_dimension",
    "node_type_one_hot",
    "static_feature_vector",
]
