"""The per-environment reference loop for ``VectorCircuitEnv``'s step.

:class:`ReferenceVectorEnv` steps every lane through the sequential
``CircuitDesignEnv.step``, then resets the lanes whose episodes ended (under
autoreset, in lane order), and stacks the observations — the definition the
single batched step must reproduce bit for bit.  The parity tests compare the
two, and ``benchmarks/bench_parallel_rollout.py`` and ``bench_serve.py`` time
it as the "interpreted" side (loaded by file path, like
``tests/agents/ppo_reference.py``).

Unlike the batched step it is not atomic: an invalid action or a finished lane
raises part-way, after the lanes before it have stepped — exactly like
calling ``CircuitDesignEnv.step`` in a loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.env.spaces import BatchedObservation
from repro.parallel import VectorCircuitEnv

StepOutput = Tuple[BatchedObservation, np.ndarray, np.ndarray, List[Dict[str, object]]]


class ReferenceVectorEnv(VectorCircuitEnv):
    """``VectorCircuitEnv`` whose step loops over ``CircuitDesignEnv.step``."""

    def step(self, actions: np.ndarray) -> StepOutput:
        return self._loop(actions, None)

    def step_selected(self, indices: Sequence[int], actions: np.ndarray) -> StepOutput:
        return self._loop(actions, list(indices))

    def _loop(self, actions: np.ndarray, indices: Optional[List[int]]) -> StepOutput:
        """``indices=None`` steps every lane and applies autoreset; otherwise
        only the named lanes step, in the given order, and none is reset."""
        lanes = range(self.num_envs) if indices is None else indices
        if not lanes:
            raise ValueError("no sub-environment selected to step")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (len(lanes), self.num_parameters):
            raise ValueError(
                f"expected actions of shape ({len(lanes)}, {self.num_parameters}), "
                f"got {actions.shape}"
            )
        autoreset = indices is None and self.autoreset
        observations = []
        rewards = np.zeros(len(lanes))
        dones = np.zeros(len(lanes), dtype=bool)
        infos: List[Dict[str, object]] = []
        for row, index in enumerate(lanes):
            observation, reward, done, info = self.envs[index].step(actions[row])
            observations.append(observation)
            rewards[row] = reward
            dones[row] = done
            infos.append(info)
        # Every lane steps first; then the finished ones reset, in lane order.
        for row, index in enumerate(lanes):
            if dones[row] and autoreset:
                infos[row]["terminal_observation"] = observations[row]
                observations[row] = self.envs[index].reset()
        return BatchedObservation.stack(observations), rewards, dones, infos
