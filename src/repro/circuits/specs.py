"""Circuit specifications and the sampling space of design targets.

The P2S problem asks for device parameters that *meet* a group of desired
specifications.  Table 1 of the paper defines the sampling space used during
training and deployment:

* two-stage op-amp — gain ``G ∈ [300, 500]``, bandwidth ``B ∈ [1e6, 2.5e7]``
  Hz, phase margin ``PM ∈ [55°, 60°]``, power ``P ∈ [1e-4, 1e-2]`` W, and
* RF PA — power efficiency ``E ∈ [50 %, 60 %]`` and output power
  ``P ∈ [2, 3]`` W.

Some specifications are "at least" targets (gain, bandwidth, efficiency) and
some are "at most" targets (power consumption) — the paper notes "the smaller
the power consumption is, the better".  :class:`Specification` captures that
direction, and :class:`SpecificationSpace` samples target groups, normalizes
spec vectors for the policy's FCNN branch, and decides whether a simulated
result satisfies a target group.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Sequence

import numpy as np


class Objective(Enum):
    """Whether a larger or a smaller measured value is better."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class Specification:
    """One circuit specification with its Table 1 sampling range.

    Parameters
    ----------
    name:
        Key used in spec dictionaries (e.g. ``"gain"``).
    minimum, maximum:
        Sampling range from which design targets are drawn.
    objective:
        :class:`Objective`; MAXIMIZE means the design meets the target when
        the measured value is at least the target.
    unit:
        Unit string for reports.
    log_uniform:
        Sample targets log-uniformly (useful when the range spans decades,
        e.g. bandwidth and power of the op-amp).
    """

    name: str
    minimum: float
    maximum: float
    objective: Objective = Objective.MAXIMIZE
    unit: str = ""
    log_uniform: bool = False

    def __post_init__(self) -> None:
        if self.minimum >= self.maximum:
            raise ValueError(f"{self.name}: minimum must be < maximum")
        if self.log_uniform and self.minimum <= 0:
            raise ValueError(f"{self.name}: log-uniform sampling requires positive bounds")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one target value from the sampling range."""
        if self.log_uniform:
            return float(np.exp(rng.uniform(np.log(self.minimum), np.log(self.maximum))))
        return float(rng.uniform(self.minimum, self.maximum))

    def is_met(self, measured: float, target: float, rel_tol: float = 0.0) -> bool:
        """Whether a measured value satisfies a target.

        ``rel_tol`` allows a small relative slack, used when judging
        "design accuracy" so that floating-point-adjacent results count.
        """
        slack = rel_tol * abs(target)
        if self.objective is Objective.MAXIMIZE:
            return measured >= target - slack
        return measured <= target + slack

    def normalized_error(self, measured: float, target: float) -> float:
        """The paper's normalized difference, clipped at zero when met.

        For a MAXIMIZE spec this is ``min((g - g*) / (|g| + |g*|), 0)`` and
        for a MINIMIZE spec the sign of the difference is flipped so that
        exceeding the budget is penalized instead.  The value is always in
        ``[-1, 0]``.
        """
        denominator = abs(measured) + abs(target)
        if denominator <= 0.0:
            return 0.0
        difference = (measured - target) / denominator
        if self.objective is Objective.MINIMIZE:
            difference = -difference
        return float(min(difference, 0.0))

    def normalize_value(self, value: float) -> float:
        """Scale a value by the sampling range (for network inputs)."""
        return float((value - self.minimum) / (self.maximum - self.minimum))


class SpecificationSpace:
    """Ordered set of specifications forming the design-target vector."""

    def __init__(self, specifications: Sequence[Specification]) -> None:
        if not specifications:
            raise ValueError("specification space must contain at least one spec")
        names = [s.name for s in specifications]
        if len(set(names)) != len(names):
            raise ValueError("specification names must be unique")
        self._specs: List[Specification] = list(specifications)
        self._index: Dict[str, int] = {s.name: i for i, s in enumerate(self._specs)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs)

    def __getitem__(self, key) -> Specification:
        if isinstance(key, str):
            return self._specs[self._index[key]]
        return self._specs[key]

    @property
    def names(self) -> List[str]:
        return [s.name for s in self._specs]

    # ------------------------------------------------------------------
    # Sampling and vector conversion
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> Dict[str, float]:
        """Sample one target group (one value per specification)."""
        return {spec.name: spec.sample(rng) for spec in self._specs}

    def sample_batch(self, rng: np.random.Generator, count: int) -> List[Dict[str, float]]:
        """Sample ``count`` independent target groups (deployment batches)."""
        return [self.sample(rng) for _ in range(count)]

    def to_dict(self, vector: np.ndarray) -> Dict[str, float]:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (len(self),):
            raise ValueError(f"expected vector of length {len(self)}, got {vector.shape}")
        return {name: float(value) for name, value in zip(self.names, vector)}

    def normalize(self, values: Mapping[str, float]) -> np.ndarray:
        """Range-normalize a spec dictionary for use as a network input."""
        return np.array([spec.normalize_value(float(values[spec.name])) for spec in self._specs])

    # ------------------------------------------------------------------
    # Target satisfaction / reward helpers
    # ------------------------------------------------------------------
    def normalized_errors(
        self, measured: Mapping[str, float], targets: Mapping[str, float]
    ) -> np.ndarray:
        """Per-spec clipped normalized differences (each in ``[-1, 0]``)."""
        return np.array(
            [
                spec.normalized_error(float(measured[spec.name]), float(targets[spec.name]))
                for spec in self._specs
            ]
        )

    def all_met(
        self,
        measured: Mapping[str, float],
        targets: Mapping[str, float],
        rel_tol: float = 0.0,
    ) -> bool:
        """True when every specification in the group is satisfied."""
        return all(
            spec.is_met(float(measured[spec.name]), float(targets[spec.name]), rel_tol=rel_tol)
            for spec in self._specs
        )

    def met_fraction(
        self,
        measured: Mapping[str, float],
        targets: Mapping[str, float],
        rel_tol: float = 0.0,
    ) -> float:
        """Fraction of specifications satisfied (progress diagnostic)."""
        met = sum(
            spec.is_met(float(measured[spec.name]), float(targets[spec.name]), rel_tol=rel_tol)
            for spec in self._specs
        )
        return met / len(self._specs)
