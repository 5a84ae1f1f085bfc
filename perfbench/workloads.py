"""The three benchmark workloads: train-mna, serve-opamp and size-mna.

Each workload builds its inputs from the run seed alone and hands the
program only those inputs (targets, requests).  The shared life cycle is

``setup()``
    set the workload up; ``setup_samples`` collects one time per set-up,
    and every workload sets up more than once per run.
``measure(seconds, tracer)``
    run work items until ``seconds`` of measured time have passed, at least
    one; returns a :class:`Phase`.  A run calls it once per chunk.
``complete()``
    whether the fixed prefix the digest covers is done.
``counters()``
    cumulative counts read from the program's public stats objects.
``checks()``
    output checks, as ``(name, passed)`` pairs.
``record()``
    the digest of the simulated outputs plus the deterministic metrics.

A work item is one unit of the workload's throughput, of about equal cost:
a training episode (timed by collect + update cycle), a served request, or
one simulation of the sizing loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import queue
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from tracing import Tracer

#: Scratch files (the serving checkpoint, span dumps) live here, inside the
#: checkout the benchmark runs from.
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Phase:
    """What one ``measure`` call did."""

    items: int = 0
    seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    operations: int = 0
    failed: int = 0
    queue_waits_ms: List[float] = field(default_factory=list)

    def scaled(self, slowdown: float) -> "Phase":
        """A copy with every time divided by the host's ``slowdown``."""
        return replace(
            self,
            seconds=self.seconds / slowdown,
            latencies_ms=[value / slowdown for value in self.latencies_ms],
            queue_waits_ms=[value / slowdown for value in self.queue_waits_ms],
        )

    def add(self, other: "Phase") -> None:
        """Fold another ``measure`` call's figures into this one."""
        self.items += other.items
        self.seconds += other.seconds
        self.latencies_ms += other.latencies_ms
        self.operations += other.operations
        self.failed += other.failed
        self.queue_waits_ms += other.queue_waits_ms


def digest(value: object) -> str:
    """sha256 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _floats(values: Dict[str, float]) -> Dict[str, float]:
    return {name: float(value) for name, value in values.items()}


class Workload:
    """Base of the workloads: sizes are class constants.

    ``tiny=True`` replaces them with the class's ``tiny_sizes``, the small
    preset the benchmark's own smoke tests run.
    """

    name = ""
    tiny_sizes: Dict[str, object] = {}

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        if tiny:
            vars(self).update(self.tiny_sizes)
        self.setup_samples: List[float] = []


# ----------------------------------------------------------------------
# train-mna
# ----------------------------------------------------------------------
class TrainMna(Workload):
    """PPO training of a gcn_fc policy on the compiled MNA vector env.

    One training session is a fresh env, policy and trainer trained for a
    fixed episode budget; every session of a run is seeded identically, so
    each must reproduce the first one's history exactly.  A work item is
    one collect + update cycle; a session left unfinished by one ``measure``
    call goes on in the next.
    """

    name = "train-mna"
    env_id = "opamp-mna-v0"
    episodes = 16
    episodes_per_update = 8
    num_envs = 8
    tiny_sizes = {"episodes": 4, "episodes_per_update": 2, "num_envs": 2}

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.histories: List[list] = []
        self.fallback_steps: List[int] = []
        self._cache_hits = 0
        self._cache_misses = 0
        self._session = None

    def _build(self):
        start = time.perf_counter()
        env = repro.make_env(self.env_id, seed=self.seed, num_envs=self.num_envs, compile=True)
        policy = repro.make_policy("gcn_fc", env.envs[0], np.random.default_rng(self.seed))
        trainer = repro.PPOTrainer(
            env, policy, config=repro.PPOConfig(), seed=self.seed, method_name="gcn_fc"
        )
        if env.compiled_plan is None:
            raise RuntimeError(f"no compiled plan: {env.compiled_fallback_reason}")
        self.setup_samples.append(time.perf_counter() - start)
        return env, trainer

    def setup(self) -> None:
        self._session = self._build()

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        phase = Phase()
        while phase.seconds < seconds or (phase.items == 0 and phase.failed < 3):
            if self._session is None:
                mark = len(tracer.spans) if tracer is not None else 0
                self._session = self._build()
                if tracer is not None:
                    del tracer.spans[mark:]  # set-up is not training time
            env, trainer = self._session
            # ``train`` continues up to a growing episode total, so each call
            # runs the session's next collect + update cycle.
            total = (len(trainer.history.records) + 1) * self.episodes_per_update
            phase.operations += 1
            start = time.perf_counter()
            try:
                history = trainer.train(
                    total_episodes=total, episodes_per_update=self.episodes_per_update
                )
            except Exception:  # noqa: BLE001 - a failed cycle is counted, not fatal
                phase.failed += 1
                phase.seconds += time.perf_counter() - start
                self._session = None
                continue
            elapsed = time.perf_counter() - start
            phase.seconds += elapsed
            phase.items += self.episodes_per_update
            phase.latencies_ms.append(elapsed * 1000.0)
            if total >= self.episodes:
                self.histories.append([
                    [r.mean_episode_reward, r.mean_episode_length, r.policy_loss,
                     r.value_loss, r.entropy, r.explained_variance]
                    for r in history.records
                ])
                self.fallback_steps.append(env.compiled_plan.fallback_steps)
                self._cache_hits += env.cache.stats.hits
                self._cache_misses += env.cache.stats.misses
                self._session = None
        return phase

    def complete(self) -> bool:
        return bool(self.histories)

    def counters(self) -> Dict[str, float]:
        hits, misses = self._cache_hits, self._cache_misses
        if self._session is not None:  # the session still training
            stats = self._session[0].cache.stats
            hits, misses = hits + stats.hits, misses + stats.misses
        return {
            "cache_hits": hits,
            "cache_misses": misses,
            "fallback_steps": sum(self.fallback_steps),
        }

    def checks(self) -> List[Tuple[str, bool]]:
        results: List[Tuple[str, bool]] = []
        for session, records in enumerate(self.histories):
            for update, row in enumerate(records):
                results.append((f"session {session} update {update} losses finite",
                                all(math.isfinite(value) for value in row[2:5])))
            results.append((f"session {session} compiled fallback steps == 0",
                            self.fallback_steps[session] == 0))
            if session:
                results.append((f"session {session} reproduces session 0",
                                records == self.histories[0]))
        return results

    def record(self) -> Dict[str, object]:
        first = self.histories[0] if self.histories else []
        return {
            "digest": digest(first),
            "train_final_reward": first[-1][0] if first else None,
            "sessions": len(self.histories),
        }

    def close(self) -> None:
        self._session = None


# ----------------------------------------------------------------------
# serve-opamp
# ----------------------------------------------------------------------
class ServeOpamp(Workload):
    """Closed-loop serving through a Gateway over a DeploymentService.

    One client keeps ``outstanding`` requests in flight: each completion
    sends the next request.  Targets are distinct draws from the seeded
    stream; the gateway's response cache stays off.
    """

    name = "serve-opamp"
    env_id = "opamp-p2s-v0"
    batch_size = 8
    outstanding = 16
    warmup_requests = 32
    digest_requests = 256
    sample_checks = 8
    setup_repeats = 3
    tiny_sizes = {"outstanding": 4, "warmup_requests": 4, "digest_requests": 8,
                  "sample_checks": 2, "setup_repeats": 1}

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.checkpoint = OUT_DIR / f"serve-{os.getpid()}.npz"
        self.targets: List[Dict[str, float]] = []
        self.outputs: Dict[int, list] = {}
        self.errors: List[str] = []
        self._stream = np.random.default_rng([seed, 0])
        self._submitted = 0
        self._service = None
        self._gateway = None

    def _target(self, index: int) -> Dict[str, float]:
        while len(self.targets) <= index:
            self.targets.append(self._space.sample(self._stream))
        return self.targets[index]

    def setup(self) -> None:
        for _ in range(self.setup_repeats):
            self._close_gateway()
            start = time.perf_counter()
            env = repro.make_env(self.env_id, seed=self.seed)
            self._space = env.benchmark.spec_space
            policy = repro.make_policy("gcn_fc", env, np.random.default_rng(self.seed))
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            repro.save_checkpoint(self.checkpoint, policy, policy_id="gcn_fc", env_id=self.env_id)
            self._service = repro.DeploymentService.from_checkpoint(
                self.checkpoint, batch_size=self.batch_size
            )
            self._gateway = repro.Gateway(self._service, num_workers=1)
            warm = np.random.default_rng([self.seed, 1])
            self._gateway.serve([
                repro.ServeRequest(target_specs=self._space.sample(warm))
                for _ in range(self.warmup_requests)
            ])
            self.setup_samples.append(time.perf_counter() - start)

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        phase = Phase()
        completions: "queue.Queue" = queue.Queue()
        in_flight = 0

        def submit() -> None:
            index = self._submitted
            self._submitted += 1
            request = repro.ServeRequest(target_specs=self._target(index))
            sent = time.perf_counter()
            future = self._gateway.submit(request)
            future.add_done_callback(
                lambda done: completions.put((index, sent, time.perf_counter(), done))
            )

        start = time.perf_counter()
        for _ in range(self.outstanding):
            submit()
            in_flight += 1
        window_open = True
        while in_flight:
            index, sent, finished, future = completions.get(timeout=120)
            in_flight -= 1
            phase.operations += 1
            response = future.result()
            latency_ms = (finished - sent) * 1000.0
            self._take(index, response)
            if not response.ok:
                phase.failed += 1
            if window_open:
                phase.items += 1
                phase.latencies_ms.append(latency_ms)
                if response.ok:
                    phase.queue_waits_ms.append(latency_ms - response.timing["serve_ms"])
                elapsed = time.perf_counter() - start
                if elapsed >= seconds:
                    # Requests still in flight are checked but not timed.
                    window_open = False
                    phase.seconds = elapsed
                else:
                    submit()
                    in_flight += 1
        return phase

    def complete(self) -> bool:
        return len(self.outputs) >= self.digest_requests

    def _take(self, index: int, response) -> None:
        if not response.ok:
            self.errors.append(f"request {index}: {response.error}")
            self.outputs[index] = None
            return
        self.outputs[index] = [
            response.steps, bool(response.success),
            _floats(response.final_specs), _floats(response.final_parameters),
        ]

    def counters(self) -> Dict[str, float]:
        cache = self._service.cache_stats()
        stats = self._service.stats.snapshot()
        return {
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "batches": stats.batches,
            "coalesced": stats.mean_coalesce * stats.batches,
            "full_flushes": stats.full_flushes,
            "deadline_flushes": stats.deadline_flushes,
        }

    def checks(self) -> List[Tuple[str, bool]]:
        results = [(f"request {index} ok", output is not None)
                   for index, output in sorted(self.outputs.items())]
        policy = repro.load_checkpoint(self.checkpoint).policy
        env = repro.make_env(self.env_id)
        stride = max(1, self.digest_requests // self.sample_checks)
        for index in range(0, self.digest_requests, stride):
            result = repro.deploy_policy(env, policy, self._target(index))
            names = env.benchmark.design_space.names
            final = result.trajectory.records[-1].parameters
            serial = [
                result.steps, bool(result.success), _floats(result.final_specs),
                {name: float(value) for name, value in zip(names, final)},
            ]
            results.append((f"request {index} equals serial deploy_policy",
                            self.outputs.get(index) == serial))
        return results

    def record(self) -> Dict[str, object]:
        prefix = [self.outputs.get(index) for index in range(self.digest_requests)]
        return {"digest": digest(prefix), "errors": self.errors[:5]}

    def _close_gateway(self) -> None:
        if self._gateway is not None:
            self._gateway.close(drain=True)
            self._gateway = None

    def close(self) -> None:
        self._close_gateway()
        self.checkpoint.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# size-mna
# ----------------------------------------------------------------------
class SizeMna(Workload):
    """GA and BO sizing of seeded targets with exact MNA simulation, no cache."""

    name = "size-mna"
    env_id = "opamp-mna-v0"
    methods = ("genetic", "bayesian")
    budgets = {"genetic": 200, "bayesian": 60}
    digest_targets = 8
    setup_repeats = 3
    tiny_sizes = {"budgets": {"genetic": 20, "bayesian": 12}, "digest_targets": 1,
                  "setup_repeats": 1}

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self._timed_targets = 0
        self._timed_seconds = 0.0
        self.targets: List[Dict[str, float]] = []
        #: (target index, method, result or None when the run raised)
        self.results: List[Tuple[int, str, object]] = []
        self._stream = np.random.default_rng(seed)

    def setup(self) -> None:
        for _ in range(self.setup_repeats):
            start = time.perf_counter()
            self._env = repro.make_env(self.env_id, seed=self.seed)
            self._optimizers = {method: repro.make_optimizer(method) for method in self.methods}
            self.setup_samples.append(time.perf_counter() - start)

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Phase:
        """Size targets; an item is one simulation, a latency one target's ms/sim.

        Targets differ in how many simulations they need, so the timed
        figures are per simulation; simulations per target are the
        deterministic ``*_sims_to_success`` of the record.
        """
        phase = Phase()
        space = self._env.benchmark.spec_space
        targets = 0
        while phase.seconds < seconds or targets == 0:
            index = len(self.targets)
            target = space.sample(self._stream)
            self.targets.append(target)
            simulations = 0
            start = time.perf_counter()
            for method in self.methods:
                phase.operations += 1
                try:
                    result = self._optimizers[method].optimize(
                        self._env,
                        budget=self.budgets[method],
                        seed=self.seed * 100_003 + index,
                        target_specs=target,
                    )
                except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
                    phase.failed += 1
                    result = None
                else:
                    simulations += result.num_simulations
                self.results.append((index, method, result))
            elapsed = time.perf_counter() - start
            targets += 1
            phase.seconds += elapsed
            phase.items += simulations
            if simulations:
                phase.latencies_ms.append(elapsed * 1000.0 / simulations)
        self._timed_targets += targets
        self._timed_seconds += phase.seconds
        return phase

    def complete(self) -> bool:
        return len(self.targets) >= self.digest_targets

    def counters(self) -> Dict[str, float]:
        return {}

    def checks(self) -> List[Tuple[str, bool]]:
        env = repro.make_env(self.env_id)
        space = env.benchmark.spec_space
        results = []
        for index, method, result in self.results:
            label = f"target {index} {method}"
            if result is None:
                continue  # already counted as a failed operation
            netlist = env.benchmark.fresh_netlist()
            env.benchmark.design_space.apply_to_netlist(netlist, result.best_parameters)
            specs = env.simulator.simulate(netlist).specs
            objective = float(space.normalized_errors(specs, self.targets[index]).sum())
            results.append((f"{label} re-simulates best_specs", _floats(specs) == _floats(
                result.best_specs)))
            results.append((f"{label} reproduces best_objective",
                            objective == result.best_objective))
        return results

    def _sims(self, method: str) -> List[int]:
        budget = self.budgets[method]
        return [
            result.num_simulations if result is not None and result.success else budget
            for index, name, result in self.results
            if name == method and index < self.digest_targets
        ]

    def record(self) -> Dict[str, object]:
        prefix = [
            [index, method] + ([result.num_simulations, result.best_objective,
                                bool(result.success)] if result is not None else [None])
            for index, method, result in self.results
            if index < self.digest_targets
        ]
        successes = [
            result is not None and result.success
            for index, _, result in self.results
            if index < self.digest_targets
        ]
        return {
            "digest": digest(prefix),
            "size_targets_per_s": self._timed_targets / self._timed_seconds,
            "ga_sims_to_success": float(np.mean(self._sims("genetic"))),
            "bo_sims_to_success": float(np.mean(self._sims("bayesian"))),
            "size_success_rate": float(np.mean(successes)),
        }

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (TrainMna, ServeOpamp, SizeMna)}

