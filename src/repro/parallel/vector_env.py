"""Vectorized circuit-design environment: N episodes stepped as one batch.

The paper's experiments spend nearly all wall-clock in the environment inner
loop — one simulation plus one policy inference per step per seed.
:class:`VectorCircuitEnv` batches that loop: it owns ``N`` sub-environments
that share one circuit topology and (typically) one memoizing
:class:`~repro.parallel.cache.SimulationCache`, exposes ``reset``/``step``
over stacked action matrices, and assembles
:class:`~repro.env.spaces.BatchedObservation` batches that feed the policy's
batched forward pass.

The step and the reset are those of the one episode engine,
:class:`~repro.env.circuit_env.BatchedCircuitEnv` (its module docstring
states what is built once, what is read live, the one simulation call and
the step-then-reset order); this class adds the shared cache.

Parity contract
---------------
Sub-environment ``i`` of ``VectorCircuitEnv.from_env(env, num_envs=k,
seed=s)`` behaves bitwise-identically to a sequential
:class:`~repro.env.circuit_env.CircuitDesignEnv` built with ``seed=s + i``:
observations, rewards, termination flags, info dicts, trajectory records and
shared-cache statistics match exactly.  A ``CircuitDesignEnv`` is itself one
lane of the same engine.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.env.circuit_env import BatchedCircuitEnv, CircuitDesignEnv
from repro.parallel.cache import DEFAULT_CACHE_SIZE, SimulationCache


class VectorCircuitEnv(BatchedCircuitEnv):
    """Batch of :class:`CircuitDesignEnv` instances behind one step interface.

    Parameters
    ----------
    envs:
        Sub-environments (the engine's lanes).  All must share one benchmark
        object and agree on the netlist's fixed parameters and graph; they
        may share a simulator — typically one :class:`SimulationCache` — so
        repeated candidate evaluations across the batch are simulated once.
    autoreset:
        When True (the default), a sub-environment that finishes its episode
        during :meth:`step` is reset after every lane has stepped; the
        returned observation row is the fresh post-reset observation and the
        terminal observation rides along in ``info["terminal_observation"]``.
        When False, stepping a finished sub-environment raises, exactly like
        the sequential environment.
    cache:
        The shared :class:`SimulationCache`, if any, kept for stats
        introspection (``vector_env.cache.stats.hit_rate``).
    """

    # perfbench's train-mna workload is the only reader of ``compiled_plan``,
    # ``fallback_steps`` and ``compiled_fallback_reason``: they keep its
    # checks of the former compiled step working, and go with the next
    # change to perfbench.
    fallback_steps = 0
    compiled_fallback_reason = None

    def __init__(
        self,
        envs: Sequence[CircuitDesignEnv],
        autoreset: bool = True,
        cache: Optional[SimulationCache] = None,
    ) -> None:
        super().__init__(envs, autoreset=autoreset)
        self.cache = cache

    @classmethod
    def from_env(
        cls,
        env: CircuitDesignEnv,
        num_envs: int,
        seed: Optional[int] = None,
        cache_size: Optional[int] = DEFAULT_CACHE_SIZE,
        autoreset: bool = True,
    ) -> "VectorCircuitEnv":
        """Replicate a template environment into an ``num_envs``-wide batch.

        Sub-environment ``i`` receives seed ``seed + i`` (all unseeded when
        ``seed`` is None) and a fresh netlist; the benchmark and reward
        function are shared (both are stateless), and the template's
        simulator is wrapped in one shared :class:`SimulationCache` unless
        ``cache_size`` is None.  The template itself is left untouched.
        """
        if num_envs <= 0:
            raise ValueError("num_envs must be positive")
        simulator = env.simulator
        cache: Optional[SimulationCache] = None
        if cache_size is not None:
            if isinstance(simulator, SimulationCache):
                cache = simulator
            else:
                cache = SimulationCache(simulator, max_entries=cache_size)
                simulator = cache
        envs = [
            CircuitDesignEnv(
                benchmark=env.benchmark,
                simulator=simulator,
                reward_fn=env.reward_fn,
                max_steps=env.max_steps,
                initial_sizing=env.initial_sizing,
                goal_tolerance=env.goal_tolerance,
                seed=None if seed is None else seed + index,
            )
            for index in range(num_envs)
        ]
        return cls(envs, autoreset=autoreset, cache=cache)

    @property
    def compiled_plan(self) -> "VectorCircuitEnv":
        """This env (see the note on :attr:`fallback_steps`)."""
        return self
