"""Netlist container: the circuit description the RL environment rewrites.

In the paper's design loop (Fig. 2) the data-processing module updates device
parameters and rewrites the netlist at every RL step before invoking the
simulator.  :class:`Netlist` is that mutable circuit description.  It offers

* device lookup and parameter rewriting (the "Updated netlist" arrow),
* connectivity queries used to build the circuit graph,
* a SPICE-style text export for inspection and golden-file tests, and
* deep copies so parallel episodes never alias each other's state.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.circuits.devices import Device, DeviceType


class Netlist:
    """An ordered collection of :class:`~repro.circuits.devices.Device`.

    Parameters
    ----------
    name:
        Human-readable circuit name (e.g. ``"two_stage_opamp"``).
    devices:
        Devices in schematic order.  Names must be unique.
    """

    def __init__(self, name: str, devices: Iterable[Device] = ()) -> None:
        self.name = name
        self._devices: Dict[str, Device] = {}
        for device in devices:
            self.add_device(device)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_device(self, device: Device) -> None:
        if device.name in self._devices:
            raise ValueError(f"duplicate device name '{device.name}' in netlist '{self.name}'")
        self._devices[device.name] = device

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices.values())

    def __contains__(self, device_name: str) -> bool:
        return device_name in self._devices

    @property
    def devices(self) -> List[Device]:
        return list(self._devices.values())

    def device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError as exc:
            raise KeyError(f"netlist '{self.name}' has no device '{name}'") from exc

    def devices_of_type(self, dtype: DeviceType) -> List[Device]:
        return [d for d in self._devices.values() if d.dtype is dtype]

    @property
    def transistors(self) -> List[Device]:
        return [d for d in self._devices.values() if d.dtype.is_transistor]

    # ------------------------------------------------------------------
    # Nets and connectivity
    # ------------------------------------------------------------------
    @property
    def nets(self) -> List[str]:
        """All net names, order of first appearance."""
        seen: Dict[str, None] = {}
        for device in self._devices.values():
            for net in device.terminals.values():
                seen.setdefault(net, None)
        return list(seen)

    def connections(self) -> List[Tuple[str, str]]:
        """Device–device adjacency: pairs of device names sharing a net.

        This is the edge set ``E`` of the circuit graph ``G = (V, E)`` used
        by the policy's GNN branch (Sec. 3, State Representation).
        """
        edges: Dict[Tuple[str, str], None] = {}
        devices = self.devices
        for i, first in enumerate(devices):
            first_nets = set(first.terminals.values())
            for second in devices[i + 1:]:
                if first_nets.intersection(second.terminals.values()):
                    edges.setdefault((first.name, second.name), None)
        return list(edges)

    # ------------------------------------------------------------------
    # Parameter rewriting (the DPM's "update device parameters" step)
    # ------------------------------------------------------------------
    def get_parameter(self, device_name: str, key: str) -> float:
        return self.device(device_name).get_parameter(key)

    def set_parameter(self, device_name: str, key: str, value: float) -> None:
        self.device(device_name).set_parameter(key, value)

    # ------------------------------------------------------------------
    # Copying and fingerprinting
    # ------------------------------------------------------------------
    def copy(self) -> "Netlist":
        return Netlist(self.name, (device.copy() for device in self._devices.values()))

    def parameter_array(self) -> np.ndarray:
        """Every device parameter as one flat array (netlist insertion order).

        For a fixed topology the ordering is deterministic, so this array is
        a complete, cheap fingerprint of the simulator-relevant state — it is
        what :class:`repro.parallel.SimulationCache` hashes.
        """
        values: List[float] = []
        for device in self._devices.values():
            values.extend(device.parameters.values())
        return np.array(values, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Netlist(name={self.name!r}, devices={len(self)})"
