"""Node-feature encoding for circuit graphs.

Following Sec. 3 ("State Representation") of the paper, every graph node is a
device (including supply, ground and bias sources) and its feature vector is
``(t, p)`` where

* ``t`` is the one-hot encoding of the node type, and
* ``p`` is the parameter vector of the node — width and finger count for
  transistors, the element value for passives, the voltage for supply /
  ground / bias nodes — zero-padded so every node has the same length.

The parameter entries are the *dynamic* state the paper emphasizes: they are
re-encoded at every RL step from the current netlist so the GNN branch of the
policy sees where in the design space the agent currently sits (unlike
Baseline B which only sees static technology constants).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.circuits.devices import DEVICE_TYPE_ORDER, Device, DeviceType

#: Maximum number of numeric parameters encoded per node; transistors use two
#: (width, fingers), everything else uses one (value or voltage), so two is
#: enough and keeps the padding small.
PARAMETER_SLOTS = 2

#: Scale factors applied to raw device parameters so all node features are
#: O(1) for the neural network (tanh-based GNN layers saturate otherwise).
#: Keys are parameter names on the devices; the scales map the Table 1 design
#: ranges roughly onto [0, 1].
PARAMETER_SCALES: Dict[str, float] = {
    "width": 1e4,       # metres -> fraction of the 100 um maximum width
    "fingers": 1.0 / 32.0,
    "value": 1e11,      # farads -> fraction of the 10 pF maximum capacitance
    "voltage": 1.0 / 30.0,
    "current": 1e3,
}


def node_type_one_hot(dtype: DeviceType) -> np.ndarray:
    """One-hot encoding of a device type using the canonical ordering."""
    encoding = np.zeros(len(DEVICE_TYPE_ORDER))
    encoding[DEVICE_TYPE_ORDER.index(dtype)] = 1.0
    return encoding


def dynamic_parameter_reads(device: Device) -> List[tuple]:
    """The ``(parameter key, scale, slot)`` triples encoded for one device.

    Single source of truth for which device parameters enter the dynamic
    node features: :func:`device_parameter_vector` consumes it per device,
    and :class:`repro.graph.circuit_graph.CircuitGraph` pre-compiles the
    triples of a whole netlist into one vectorized gather per step.
    """
    if device.dtype.is_transistor:
        return [
            ("width", PARAMETER_SCALES["width"], 0),
            ("fingers", PARAMETER_SCALES["fingers"], 1),
        ]
    if device.dtype.is_passive:
        return [("value", PARAMETER_SCALES["value"], 0)]
    if device.dtype is DeviceType.CURRENT_SOURCE:
        return [("current", PARAMETER_SCALES["current"], 0)]
    # supply, ground, bias
    return [("voltage", PARAMETER_SCALES["voltage"], 0)]


def device_parameter_vector(device: Device) -> np.ndarray:
    """Scaled, zero-padded parameter vector ``p`` of one device."""
    vector = np.zeros(PARAMETER_SLOTS)
    for key, scale, slot in dynamic_parameter_reads(device):
        vector[slot] = device.get_parameter(key) * scale
    return vector


def device_feature_vector(device: Device) -> np.ndarray:
    """Full node feature ``(t, p)`` for one device."""
    return np.concatenate([node_type_one_hot(device.dtype), device_parameter_vector(device)])


def feature_dimension() -> int:
    """Length of every node-feature vector."""
    return len(DEVICE_TYPE_ORDER) + PARAMETER_SLOTS


def static_feature_vector(device: Device) -> np.ndarray:
    """Baseline B style features: node type plus *static* technology constants.

    The prior GCN-RL method [11] encodes only static technology information
    (threshold voltage, mobility, …) in the node features.  We reproduce that
    choice for the Baseline B policy so the ablation "dynamic vs static node
    features" can be measured: a transistor carries a 0.4 V threshold and a
    unit mobility scale, a passive a unit quality factor, and a source its
    scaled voltage.  The returned vector has the same length as
    :func:`device_feature_vector` so policies are size-compatible.
    """
    vector = np.zeros(PARAMETER_SLOTS)
    if device.dtype.is_transistor:
        vector[0] = 0.4
        vector[1] = 1.0
    elif device.dtype.is_passive:
        vector[0] = 1.0
    else:
        vector[0] = device.get_parameter("voltage") * PARAMETER_SCALES["voltage"]
    return np.concatenate([node_type_one_hot(device.dtype), vector])
