"""Observation and action space descriptions for the circuit environment.

The action space follows the paper exactly: for each of the ``M`` tunable
device parameters the policy picks one of three moves — decrease by one step,
keep, or increase by one step — so an action is an integer vector of length
``M`` with entries in ``{0, 1, 2}``.

The observation bundles everything any of the compared policies may need:

* the circuit graph (adjacency + *dynamic* node features) for the GNN branch
  of the proposed policy,
* static-technology node features for the Baseline B reproduction,
* the specification context (normalized target specs, normalized measured
  specs, and their normalized gap) for the FCNN branch, and
* the normalized device-parameter vector for the AutoCkt-style Baseline A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: Number of choices per parameter (decrease / keep / increase).
NUM_ACTION_CHOICES = 3

#: Action index meanings, matching :data:`repro.circuits.parameters.ACTION_DELTAS`.
ACTION_DECREASE, ACTION_KEEP, ACTION_INCREASE = 0, 1, 2


@dataclass(frozen=True)
class ActionSpace:
    """Discrete ``M x 3`` action space."""

    num_parameters: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_parameters, NUM_ACTION_CHOICES)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniformly random action vector (used by random-policy baselines)."""
        return rng.integers(0, NUM_ACTION_CHOICES, size=self.num_parameters)

    def no_op(self) -> np.ndarray:
        """The all-keep action."""
        return np.full(self.num_parameters, ACTION_KEEP, dtype=np.int64)

    def contains(self, action: np.ndarray) -> bool:
        action = np.asarray(action)
        return (
            action.shape == (self.num_parameters,)
            and np.issubdtype(action.dtype, np.integer)
            and bool(np.all((action >= 0) & (action < NUM_ACTION_CHOICES)))
        )


@dataclass
class Observation:
    """One environment observation (see module docstring)."""

    node_features: np.ndarray
    static_node_features: np.ndarray
    adjacency: np.ndarray
    spec_features: np.ndarray
    normalized_parameters: np.ndarray
    measured_specs: Dict[str, float]
    target_specs: Dict[str, float]

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_parameters(self) -> int:
        return self.normalized_parameters.shape[0]


@dataclass
class BatchedObservation:
    """``N`` stacked observations from a :class:`~repro.parallel.VectorCircuitEnv`.

    All sub-environments of a vector env share one circuit topology, so the
    adjacency matrix is stored once while the per-environment quantities are
    stacked along a leading batch axis:

    * ``node_features`` / ``static_node_features`` — ``(N, nodes, features)``
    * ``spec_features`` — ``(N, 3 * num_specs)``
    * ``normalized_parameters`` — ``(N, M)``

    The stacked arrays feed the policy's batched forward pass
    (:meth:`repro.agents.policy.ActorCriticPolicy.act_batch`) directly;
    ``__getitem__`` recovers the per-environment :class:`Observation` (rows
    are bitwise-identical to what the sequential environment would produce,
    because they are assembled by the very same code and then stacked).
    """

    node_features: np.ndarray
    static_node_features: np.ndarray
    adjacency: np.ndarray
    spec_features: np.ndarray
    normalized_parameters: np.ndarray
    measured_specs: List[Dict[str, float]]
    target_specs: List[Dict[str, float]]

    @classmethod
    def stack(cls, observations: Sequence[Observation]) -> "BatchedObservation":
        """Stack per-environment observations sharing one topology."""
        if not observations:
            raise ValueError("cannot stack an empty observation batch")
        first = observations[0]
        for other in observations[1:]:
            if other.adjacency.shape != first.adjacency.shape:
                raise ValueError("all observations in a batch must share one topology")
        # ``np.array`` over equal-shaped float arrays is ``np.stack``'s exact
        # copy at a fraction of its call overhead, which dominates at the
        # batch-of-one the single-observation policy calls use.
        return cls(
            node_features=np.array([o.node_features for o in observations]),
            static_node_features=np.array([o.static_node_features for o in observations]),
            adjacency=first.adjacency,
            spec_features=np.array([o.spec_features for o in observations]),
            normalized_parameters=np.array([o.normalized_parameters for o in observations]),
            measured_specs=[dict(o.measured_specs) for o in observations],
            target_specs=[dict(o.target_specs) for o in observations],
        )

    @property
    def num_envs(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[1]

    @property
    def num_parameters(self) -> int:
        return self.normalized_parameters.shape[1]

    def __len__(self) -> int:
        return self.num_envs

    def __getitem__(self, index: int) -> Observation:
        """Per-environment view (arrays are slices of the stacked storage)."""
        return Observation(
            node_features=self.node_features[index],
            static_node_features=self.static_node_features[index],
            adjacency=self.adjacency,
            spec_features=self.spec_features[index],
            normalized_parameters=self.normalized_parameters[index],
            measured_specs=self.measured_specs[index],
            target_specs=self.target_specs[index],
        )

    def take(self, rows: Sequence[int]) -> "BatchedObservation":
        """The sub-batch of ``rows``, in the given order (arrays copied)."""
        rows = list(rows)
        return BatchedObservation(
            node_features=self.node_features[rows],
            static_node_features=self.static_node_features[rows],
            adjacency=self.adjacency,
            spec_features=self.spec_features[rows],
            normalized_parameters=self.normalized_parameters[rows],
            measured_specs=[self.measured_specs[row] for row in rows],
            target_specs=[self.target_specs[row] for row in rows],
        )

    def flat_matrix(self) -> np.ndarray:
        """Stacked Baseline A inputs, shape ``(N, 3 * num_specs + M)``."""
        return np.concatenate([self.spec_features, self.normalized_parameters], axis=-1)
