"""Device primitives used to describe analog/RF circuit netlists.

Every circuit in the paper (the 45 nm CMOS two-stage op-amp of Fig. 2 and the
150 nm GaN RF power amplifier of Fig. 4) is described as a set of devices
connected between named nets.  A device carries

* a :class:`DeviceType` (which also drives the one-hot part of the graph node
  features, Sec. 3 "State Representation"),
* a terminal→net mapping, and
* a parameter dictionary (width/fingers for transistors, value for passives,
  voltage for supplies/bias sources).

The tunable subset of those parameters is managed separately by
:mod:`repro.circuits.parameters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple


class DeviceType(Enum):
    """All device categories that may appear in a circuit graph.

    The paper's node-feature encoding uses "the binary representation of the
    node type"; the enum ordering below fixes that encoding for the whole
    library (see :mod:`repro.graph.features`).
    """

    NMOS = "nmos"
    PMOS = "pmos"
    GAN_HEMT = "gan_hemt"
    RESISTOR = "resistor"
    CAPACITOR = "capacitor"
    INDUCTOR = "inductor"
    SUPPLY = "supply"
    GROUND = "ground"
    BIAS = "bias"
    CURRENT_SOURCE = "current_source"

    @property
    def is_transistor(self) -> bool:
        return self in (DeviceType.NMOS, DeviceType.PMOS, DeviceType.GAN_HEMT)

    @property
    def is_passive(self) -> bool:
        return self in (DeviceType.RESISTOR, DeviceType.CAPACITOR, DeviceType.INDUCTOR)


#: Canonical ordering used for one-hot node-type encodings.
DEVICE_TYPE_ORDER: Tuple[DeviceType, ...] = tuple(DeviceType)


@dataclass
class Device:
    """A single circuit element.

    Parameters
    ----------
    name:
        Unique instance name within a netlist (e.g. ``"M1"``, ``"CC"``).
    dtype:
        The :class:`DeviceType`.
    terminals:
        Mapping of terminal name to net name, e.g.
        ``{"d": "net1", "g": "vin_p", "s": "tail", "b": "vgnd"}``.
    parameters:
        Numeric device parameters.  Transistors use ``width`` (metres) and
        ``fingers`` (dimensionless count); passives use ``value`` (SI units);
        sources use ``voltage`` (volts) or ``current`` (amperes).
    """

    name: str
    dtype: DeviceType
    terminals: Dict[str, str]
    parameters: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name must be non-empty")
        if not self.terminals:
            raise ValueError(f"device '{self.name}' must have at least one terminal")
        self.terminals = {str(k): str(v) for k, v in self.terminals.items()}
        self.parameters = {str(k): float(v) for k, v in self.parameters.items()}

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def get_parameter(self, key: str) -> float:
        try:
            return self.parameters[key]
        except KeyError as exc:
            raise KeyError(f"device '{self.name}' has no parameter '{key}'") from exc

    def set_parameter(self, key: str, value: float) -> None:
        if key not in self.parameters:
            raise KeyError(f"device '{self.name}' has no parameter '{key}'")
        self.parameters[key] = float(value)

    # ------------------------------------------------------------------
    # Net helpers
    # ------------------------------------------------------------------
    @property
    def nets(self) -> Tuple[str, ...]:
        """All nets this device touches (deduplicated, order-preserving)."""
        seen: Dict[str, None] = {}
        for net in self.terminals.values():
            seen.setdefault(net, None)
        return tuple(seen)

    def copy(self) -> "Device":
        return Device(
            name=self.name,
            dtype=self.dtype,
            terminals=dict(self.terminals),
            parameters=dict(self.parameters),
        )


# ----------------------------------------------------------------------
# Convenience constructors — keep circuit builders readable.
# ----------------------------------------------------------------------
def nmos(name: str, drain: str, gate: str, source: str, bulk: Optional[str] = None,
         width: float = 10e-6, fingers: int = 2) -> Device:
    """N-type MOSFET with ``width`` in metres and integer ``fingers``."""
    return Device(
        name=name,
        dtype=DeviceType.NMOS,
        terminals={"d": drain, "g": gate, "s": source, "b": bulk if bulk is not None else source},
        parameters={"width": width, "fingers": float(fingers)},
    )


def pmos(name: str, drain: str, gate: str, source: str, bulk: Optional[str] = None,
         width: float = 10e-6, fingers: int = 2) -> Device:
    """P-type MOSFET with ``width`` in metres and integer ``fingers``."""
    return Device(
        name=name,
        dtype=DeviceType.PMOS,
        terminals={"d": drain, "g": gate, "s": source, "b": bulk if bulk is not None else source},
        parameters={"width": width, "fingers": float(fingers)},
    )


def gan_hemt(name: str, drain: str, gate: str, source: str,
             width: float = 50e-6, fingers: int = 4) -> Device:
    """GaN high-electron-mobility transistor (the RF PA's active device)."""
    return Device(
        name=name,
        dtype=DeviceType.GAN_HEMT,
        terminals={"d": drain, "g": gate, "s": source},
        parameters={"width": width, "fingers": float(fingers)},
    )


def resistor(name: str, plus: str, minus: str, value: float) -> Device:
    return Device(
        name=name,
        dtype=DeviceType.RESISTOR,
        terminals={"p": plus, "n": minus},
        parameters={"value": value},
    )


def capacitor(name: str, plus: str, minus: str, value: float) -> Device:
    return Device(
        name=name,
        dtype=DeviceType.CAPACITOR,
        terminals={"p": plus, "n": minus},
        parameters={"value": value},
    )


def inductor(name: str, plus: str, minus: str, value: float) -> Device:
    return Device(
        name=name,
        dtype=DeviceType.INDUCTOR,
        terminals={"p": plus, "n": minus},
        parameters={"value": value},
    )


def supply(name: str, net: str, voltage: float) -> Device:
    """Power-supply node (``VP`` in the paper's graphs)."""
    return Device(
        name=name,
        dtype=DeviceType.SUPPLY,
        terminals={"p": net},
        parameters={"voltage": voltage},
    )


def ground(name: str, net: str = "vgnd") -> Device:
    """Ground node (``VGND``), fixed at 0 V."""
    return Device(
        name=name,
        dtype=DeviceType.GROUND,
        terminals={"p": net},
        parameters={"voltage": 0.0},
    )


def bias(name: str, net: str, voltage: float) -> Device:
    """DC bias voltage node (``Vbias,k`` in the paper's state encoding)."""
    return Device(
        name=name,
        dtype=DeviceType.BIAS,
        terminals={"p": net},
        parameters={"voltage": voltage},
    )


def current_source(name: str, plus: str, minus: str, current: float) -> Device:
    return Device(
        name=name,
        dtype=DeviceType.CURRENT_SOURCE,
        terminals={"p": plus, "n": minus},
        parameters={"current": current},
    )
