"""Tunable design parameters and the discrete design space.

The paper's action space is discrete: each tunable parameter ``x`` moves by
``+Δx``, ``0`` or ``-Δx`` within ``[x_min, x_max]`` at every step
(Sec. 3, Action Representation).  :class:`DesignParameter` describes one such
knob (bound to a device attribute in the netlist) and :class:`DesignSpace`
manages the full vector of them — Table 1's "design space of device
parameters":

* the two-stage op-amp has ``2·7 + 1 = 15`` parameters (width and finger
  count of 7 transistors plus the compensation capacitor), and
* the RF PA has ``2·7 = 14`` parameters (width and finger count of the five
  driver devices, the final driver and the power device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.netlist import Netlist

#: Action encoding shared with the environment: index into this tuple is the
#: per-parameter categorical choice produced by the policy.
ACTION_DELTAS: Tuple[int, int, int] = (-1, 0, +1)

_DELTAS = np.asarray(ACTION_DELTAS, dtype=np.float64)

#: The clip ufunc itself: ``np.clip``'s Python-level wrapper costs more than
#: the clip on the few-row arrays of an environment step, and ends in this
#: same ufunc call (so results are bitwise those of ``np.clip``).
_clip = np._core.umath.clip


@dataclass(frozen=True)
class DesignParameter:
    """One tunable device attribute.

    Parameters
    ----------
    name:
        Unique knob name, e.g. ``"M1.width"``.
    device:
        Device instance name in the netlist.
    attribute:
        Parameter key on that device (``"width"``, ``"fingers"``, ``"value"``).
    minimum, maximum:
        Inclusive bounds in SI units.
    step:
        The smallest tuning unit ``Δx``.
    integer:
        Whether the parameter is integral (finger counts).
    """

    name: str
    device: str
    attribute: str
    minimum: float
    maximum: float
    step: float
    integer: bool = False

    def __post_init__(self) -> None:
        if self.minimum >= self.maximum:
            raise ValueError(f"{self.name}: minimum must be < maximum")
        if self.step <= 0:
            raise ValueError(f"{self.name}: step must be positive")
        if self.step > (self.maximum - self.minimum):
            raise ValueError(f"{self.name}: step larger than the parameter range")

    @property
    def num_levels(self) -> int:
        """Number of grid points between the bounds (inclusive)."""
        return int(np.floor((self.maximum - self.minimum) / self.step + 1e-9)) + 1

    def clip(self, value: float) -> float:
        """Clamp ``value`` into the bounds (and round integers)."""
        clipped = float(np.clip(value, self.minimum, self.maximum))
        if self.integer:
            clipped = float(round(clipped))
        return clipped

    def snap(self, value: float) -> float:
        """Snap ``value`` onto the discrete grid defined by ``step``."""
        levels = round((value - self.minimum) / self.step)
        levels = int(np.clip(levels, 0, self.num_levels - 1))
        return self.clip(self.minimum + levels * self.step)

    def apply_delta(self, value: float, direction: int) -> float:
        """Move ``value`` by ``direction`` steps (−1, 0, +1) within bounds."""
        if direction not in (-1, 0, 1):
            raise ValueError(f"direction must be -1, 0 or +1, got {direction}")
        return self.snap(value + direction * self.step)

    def normalize(self, value: float) -> float:
        """Map a value into [0, 1] relative to the bounds."""
        return (self.clip(value) - self.minimum) / (self.maximum - self.minimum)

    def denormalize(self, unit_value: float) -> float:
        """Inverse of :meth:`normalize` (clipped to [0, 1] first)."""
        unit_value = float(np.clip(unit_value, 0.0, 1.0))
        return self.snap(self.minimum + unit_value * (self.maximum - self.minimum))


class DesignSpace:
    """Ordered collection of design parameters with vector conversions.

    The ordering defines the row ordering of the policy's ``M × 3`` action
    matrix, so it must stay stable for a trained policy to remain valid.
    """

    def __init__(self, parameters: Sequence[DesignParameter]) -> None:
        if not parameters:
            raise ValueError("design space must contain at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("design parameter names must be unique")
        self._parameters: List[DesignParameter] = list(parameters)
        self._index: Dict[str, int] = {p.name: i for i, p in enumerate(self._parameters)}
        # Pre-stacked per-parameter constants so the hot vector operations
        # (snapping, action application, normalization) run as single numpy
        # expressions instead of per-parameter Python loops.  All vector
        # methods are elementwise, so they produce bitwise-identical results
        # to the scalar DesignParameter methods.
        self._mins = np.array([p.minimum for p in self._parameters])
        self._maxs = np.array([p.maximum for p in self._parameters])
        self._steps = np.array([p.step for p in self._parameters])
        self._integer_mask = np.array([p.integer for p in self._parameters])
        self._max_levels = np.array([float(p.num_levels - 1) for p in self._parameters])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self):
        return iter(self._parameters)

    def __getitem__(self, key) -> DesignParameter:
        if isinstance(key, str):
            return self._parameters[self._index[key]]
        return self._parameters[key]

    @property
    def names(self) -> List[str]:
        return [p.name for p in self._parameters]

    @property
    def num_parameters(self) -> int:
        return len(self._parameters)

    @property
    def lower_bounds(self) -> np.ndarray:
        return np.array([p.minimum for p in self._parameters])

    @property
    def upper_bounds(self) -> np.ndarray:
        return np.array([p.maximum for p in self._parameters])

    @property
    def steps(self) -> np.ndarray:
        return np.array([p.step for p in self._parameters])

    def cardinality(self) -> float:
        """Total number of grid points in the discrete design space."""
        return float(np.prod([float(p.num_levels) for p in self._parameters]))

    # ------------------------------------------------------------------
    # Vector <-> netlist conversions
    # ------------------------------------------------------------------
    def vector_from_netlist(self, netlist: Netlist) -> np.ndarray:
        """Read the current value of every knob out of a netlist."""
        return np.array(
            [netlist.get_parameter(p.device, p.attribute) for p in self._parameters]
        )

    def apply_to_netlist(self, netlist: Netlist, values: np.ndarray) -> np.ndarray:
        """Write a parameter vector into a netlist (with clipping/snapping).

        Returns the snapped vector actually written, so callers can track the
        netlist state without re-reading it device by device.
        """
        values = self.clip_vector(values)
        for parameter, value in zip(self._parameters, values):
            netlist.set_parameter(parameter.device, parameter.attribute, value)
        return values

    def _check_last_axis(self, values: np.ndarray, what: str) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 0 or values.shape[-1] != len(self):
            raise ValueError(
                f"expected {what} with last axis of length {len(self)}, got shape {values.shape}"
            )
        return values

    def snap_vector(self, values: np.ndarray) -> np.ndarray:
        """Snap values onto the parameter grids; accepts any ``(..., M)`` batch.

        Equivalent to applying :meth:`DesignParameter.snap` per entry — both
        use the same float64 elementwise operations (round-half-even level
        rounding, bound clipping, integer rounding), so results are bitwise
        identical to the scalar path.
        """
        values = self._check_last_axis(values, "parameter values")
        levels = _clip(np.rint((values - self._mins) / self._steps), 0.0, self._max_levels)
        snapped = _clip(self._mins + levels * self._steps, self._mins, self._maxs)
        return np.where(self._integer_mask, np.rint(snapped), snapped)

    def clip_vector(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self),):
            raise ValueError(f"expected vector of length {len(self)}, got shape {values.shape}")
        return self.snap_vector(values)

    def apply_actions(self, values: np.ndarray, action_indices: np.ndarray) -> np.ndarray:
        """Apply categorical actions (0=−Δx, 1=keep, 2=+Δx); accepts ``(..., M)``."""
        action_indices = np.asarray(action_indices, dtype=np.int64)
        if action_indices.ndim == 0 or action_indices.shape[-1] != len(self):
            raise ValueError(
                f"expected {len(self)} actions along the last axis, "
                f"got shape {action_indices.shape}"
            )
        # One comparison covers both bounds: a negative int64 viewed as
        # uint64 is at least 2**63.
        if (action_indices.view(np.uint64) >= len(ACTION_DELTAS)).any():
            raise ValueError("action index out of range [0, 2]")
        values = np.asarray(values, dtype=np.float64)
        return self.snap_vector(values + _DELTAS[action_indices] * self._steps)

    # ------------------------------------------------------------------
    # Normalization and sampling
    # ------------------------------------------------------------------
    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Map values into ``[0, 1]^M``; accepts any ``(..., M)`` batch."""
        values = self._check_last_axis(values, "parameter values")
        clipped = _clip(values, self._mins, self._maxs)
        clipped = np.where(self._integer_mask, np.rint(clipped), clipped)
        return (clipped - self._mins) / (self._maxs - self._mins)

    def denormalize(self, unit_values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`normalize`; accepts any ``(..., M)`` batch."""
        unit_values = self._check_last_axis(unit_values, "unit values")
        unit_values = _clip(unit_values, 0.0, 1.0)
        return self.snap_vector(self._mins + unit_values * (self._maxs - self._mins))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sample a grid point per parameter."""
        return np.array(
            [p.snap(rng.uniform(p.minimum, p.maximum)) for p in self._parameters]
        )

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample ``count`` grid points as a ``(count, M)`` population.

        Draws the underlying uniforms in the same C order as ``count``
        successive :meth:`sample` calls, so the sampled designs (and the
        generator state afterwards) are identical to the sequential path.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        raw = rng.uniform(self._mins, self._maxs, size=(count, len(self)))
        return self.snap_vector(raw)

    def center(self) -> np.ndarray:
        """Mid-range starting point used as the default initial state."""
        return np.array([p.snap(0.5 * (p.minimum + p.maximum)) for p in self._parameters])
