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

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.circuits.devices import Device

#: A parameter's address in a netlist: ``(device name, parameter key)``.
ParameterRead = Tuple[str, str]


class ParameterLayout:
    """The column of every device parameter in a netlist's parameter rows.

    A parameter row (:meth:`Netlist.parameter_array`, and each row of the
    ``(n, P)`` arrays every simulator is handed) holds the devices'
    parameters in netlist insertion order, each device's in its own order.
    The layout names the circuit and maps ``(device, key)`` to its column.
    It is read-only; a netlist caches its own (:attr:`Netlist.layout`).
    """

    __slots__ = ("name", "_columns", "_resolved")

    def __init__(self, name: str, columns: Dict[ParameterRead, int]) -> None:
        self.name = name
        self._columns = columns
        self._resolved: Dict[Tuple[ParameterRead, ...], np.ndarray] = {}

    def columns(self, reads: Tuple[ParameterRead, ...]) -> np.ndarray:
        """The columns of ``reads``, resolved once per layout."""
        columns = self._resolved.get(reads)
        if columns is None:
            try:
                columns = np.array([self._columns[read] for read in reads], dtype=np.intp)
            except KeyError as exc:
                raise KeyError(f"netlist '{self.name}' has no parameter {exc.args[0]}") from None
            columns.flags.writeable = False
            self._resolved[reads] = columns
        return columns

    def lanes(self, rows: np.ndarray, reads: Tuple[ParameterRead, ...]) -> List[List[float]]:
        """Each row's values of ``reads``, as Python floats (one slice for all rows)."""
        return rows[:, self.columns(reads)].tolist()


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
        self._layout: Optional[ParameterLayout] = None
        for device in devices:
            self.add_device(device)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_device(self, device: Device) -> None:
        if device.name in self._devices:
            raise ValueError(f"duplicate device name '{device.name}' in netlist '{self.name}'")
        self._devices[device.name] = device
        self._layout = None

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

    @property
    def layout(self) -> ParameterLayout:
        """The columns of :meth:`parameter_array`, rebuilt after :meth:`add_device`."""
        layout = self._layout
        if layout is None or layout.name != self.name:
            columns: Dict[ParameterRead, int] = {}
            for device in self._devices.values():
                for key in device.parameters:
                    columns[device.name, key] = len(columns)
            layout = self._layout = ParameterLayout(self.name, columns)
        return layout

    def parameter_array(self) -> np.ndarray:
        """Every device parameter as one flat row, in the columns of :attr:`layout`.

        For a fixed topology the ordering is deterministic, so this row is
        a complete, cheap fingerprint of the simulator-relevant state — it is
        what :class:`repro.parallel.SimulationCache` hashes.
        """
        values: List[float] = []
        for device in self._devices.values():
            values.extend(device.parameters.values())
        return np.array(values, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Netlist(name={self.name!r}, devices={len(self)})"
