"""``repro.serve`` — grad-free inference and micro-batched serving throughput.

Four claims of the serving subsystem, measured directly:

1. grad-free deployment is ≥2× faster than a grad-recording episode loop
   (a graded acting step — ``policy.action_distribution_batch``, argmax of
   its ``probs``, the chosen log-prob and ``policy.value_batch`` — +
   ``env.step``), with identical episodes;
2. micro-batched serving throughput scales with the batch size, with
   episode-level results identical at every batch size;
3. a checkpoint round-trip (save → load) reproduces the deployment metrics
   (the Table 2 quantities: design accuracy and mean design steps) exactly;
4. lock-step deployment on the batched vector step is ≥1.3× faster than on
   the per-environment reference loop (``tests/parallel/step_reference.py``,
   loaded by file path), with identical episodes.

The policies are untrained (deployment cost does not depend on the weights
being good), which keeps the suite fast while measuring exactly the serving
hot path.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path

import numpy as np

import repro
from repro.agents import deploy_policy, deploy_policy_batch, evaluate_deployment
from repro.env.spaces import BatchedObservation
from repro.parallel import VectorCircuitEnv
from repro.serve import DeploymentService

#: Spec targets deployed per measurement.
NUM_TARGETS = 12

#: Episode budget kept short: throughput ratios are per-step properties.
MAX_STEPS = 20

#: The paper's best-performing policy variant.
POLICY_ID = "gat_fc"

#: Timed repeats per side of a throughput comparison.  The sides alternate
#: which runs first, and the gates compare medians, so one noisy-neighbour
#: stall on a shared runner cannot decide a ratio.
REPEATS = 5


def _alternating_medians(runs):
    """Run every ``runs[key]()`` REPEATS times, alternating the order.

    Each run returns ``(result, seconds)``.  Returns ``{key: (results,
    median_seconds)}`` with every repeat's result, in repeat order.
    """
    keys = list(runs)
    outcomes = {key: ([], []) for key in keys}
    for repeat in range(REPEATS):
        for key in keys if repeat % 2 == 0 else keys[::-1]:
            result, seconds = runs[key]()
            outcomes[key][0].append(result)
            outcomes[key][1].append(seconds)
    return {key: (results, statistics.median(times)) for key, (results, times) in outcomes.items()}


def _policy_and_targets(seed: int = 0):
    env = repro.make_env("opamp-p2s-v0", seed=seed, max_steps=MAX_STEPS)
    policy = repro.make_policy(POLICY_ID, env, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    targets = env.benchmark.spec_space.sample_batch(rng, NUM_TARGETS)
    return env, policy, targets


def _grad_recording_episode(env, policy, target):
    """One greedy episode of graded acting steps: ``(steps, success, final_specs)``.

    Each step records the autograd graph of what a rollout step computes —
    the actor's action distribution, the chosen action's log-probability and
    the critic's value — and acts on the argmax of the distribution.
    """
    observation = env.reset(target_specs=target)
    done = False
    while not done:
        batch = BatchedObservation.stack([observation])
        distribution = policy.action_distribution_batch(batch)
        actions = np.argmax(distribution.probs, axis=-1)
        distribution.log_prob(actions)
        policy.value_batch(batch)
        observation, _, done, _ = env.step(actions[0])
    return env.trajectory.length, env.trajectory.success, env.measured_specs


def test_inference_mode_deployment_speedup(benchmark):
    """Grad-free deployment ≥2× a grad-recording loop, identical episodes."""
    env, policy, targets = _policy_and_targets()
    # Warm both paths (operator caches, numpy imports).
    _grad_recording_episode(env, policy, targets[0])
    deploy_policy(env, policy, targets[0])

    def timed(inference: bool):
        # Best of two passes: a single noisy-neighbor stall on a shared CI
        # runner must not decide the measured ratio.
        best, results = float("inf"), None
        for _ in range(2):
            start = time.perf_counter()
            if inference:
                results = [deploy_policy(env, policy, t) for t in targets]
                results = [(r.steps, r.success, r.final_specs) for r in results]
            else:
                results = [_grad_recording_episode(env, policy, t) for t in targets]
            best = min(best, time.perf_counter() - start)
        return results, best

    def run():
        grad_results, grad_s = timed(inference=False)
        inference_results, inference_s = timed(inference=True)
        return grad_results, inference_results, grad_s, inference_s

    grad_results, inference_results, grad_s, inference_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = grad_s / inference_s

    # The two paths select identical actions, so the episodes are identical.
    assert grad_results == inference_results

    benchmark.extra_info.update(
        {
            "policy": POLICY_ID,
            "num_targets": NUM_TARGETS,
            "grad_s": round(grad_s, 4),
            "inference_s": round(inference_s, 4),
            "speedup": round(speedup, 2),
        }
    )
    # Measured ~3.2x on dedicated hardware (the grad path records a full
    # autograd graph plus a critic forward per step; the inference path is a
    # pure-numpy actor forward).  The gate sits at the 2x acceptance target.
    assert speedup >= 2.0, (
        f"grad-free deployment regressed: measured {speedup:.2f}x "
        "vs the grad-recording path (expect >= 2x)"
    )


def test_batched_serving_throughput(benchmark):
    """Service throughput grows with the micro-batch width; results identical."""
    _, _, targets = _policy_and_targets()

    def serve_at(batch_size: int):
        # A fresh service (cold cache) per run.
        env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=MAX_STEPS)
        policy = repro.make_policy(POLICY_ID, env, np.random.default_rng(0))
        service = DeploymentService(batch_size=batch_size)
        service.register_policy("opamp-p2s-v0", policy)
        start = time.perf_counter()
        responses = service.serve([dict(t) for t in targets])
        elapsed = time.perf_counter() - start
        return (responses, service.cache_stats().hit_rate), elapsed

    def run():
        return _alternating_medians(
            {batch_size: lambda b=batch_size: serve_at(b) for batch_size in (1, 4, 8)}
        )

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)

    # Identical episode-level results at every batch size, in every repeat.
    def episodes(responses):
        return [(r.steps, r.success, tuple(sorted(r.final_specs.items()))) for r in responses]

    reference = episodes(outcomes[1][0][0][0])
    for batch_size, (runs, _) in outcomes.items():
        for responses, _ in runs:
            assert episodes(responses) == reference, f"batch_size={batch_size} changed results"

    throughputs = {
        batch_size: len(targets) / seconds for batch_size, (_, seconds) in outcomes.items()
    }
    benchmark.extra_info.update(
        {
            "policy": POLICY_ID,
            "num_targets": NUM_TARGETS,
            "repeats": REPEATS,
            "episodes_per_s": {str(k): round(v, 1) for k, v in throughputs.items()},
            "scaling_8_vs_1": round(throughputs[8] / throughputs[1], 2),
            "cache_hit_rate": round(outcomes[8][0][0][1], 4),
        }
    )
    # Measured ~1.8x (batch 8 vs 1) on dedicated hardware; the episodes are
    # simulator-step-bound once inference is batched, so the gate is set
    # well below that to keep shared CI runners from flaking while still
    # catching an unbatched (~1.0x) regression.  Both gates compare medians
    # of alternating repeats.
    assert throughputs[8] >= 1.2 * throughputs[1], (
        f"micro-batched serving does not scale: {throughputs[8]:.1f} eps/s at "
        f"batch 8 vs {throughputs[1]:.1f} eps/s at batch 1"
    )
    assert throughputs[8] >= throughputs[4] * 0.9  # monotone up to noise


def test_checkpoint_roundtrip_reproduces_metrics(benchmark, tmp_path):
    """Save → load reproduces the Table 2 deployment metrics exactly."""
    env, policy, targets = _policy_and_targets(seed=3)

    def run():
        before = evaluate_deployment(env, policy, targets=targets, batch_size=8)
        path = tmp_path / "policy.npz"
        repro.save_checkpoint(path, policy, policy_id=POLICY_ID, env_id="opamp-p2s-v0")
        restored = repro.load_checkpoint(path).policy
        after = evaluate_deployment(env, restored, targets=targets, batch_size=8)
        return before, after

    before, after = benchmark.pedantic(run, rounds=1, iterations=1)
    assert after.accuracy == before.accuracy
    assert after.mean_steps == before.mean_steps
    assert [r.steps for r in after.results] == [r.steps for r in before.results]
    benchmark.extra_info.update(
        {
            "accuracy": before.accuracy,
            "mean_steps": before.mean_steps,
            "num_targets": NUM_TARGETS,
        }
    )


REFERENCE_PATH = (
    Path(__file__).resolve().parents[1] / "tests" / "parallel" / "step_reference.py"
)


def reference_vector_env():
    """``ReferenceVectorEnv`` from the test suite, loaded by file path."""
    spec = importlib.util.spec_from_file_location("step_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ReferenceVectorEnv


def test_compiled_deployment_speedup(benchmark):
    """Lock-step deployment on the batched step ≥1.3× the reference loop, identical episodes."""
    # gcn_fc, the policy the serve benchmark workload serves: a lighter
    # forward than gat_fc, so the step loop is a larger share of the time.
    env = repro.make_env("opamp-p2s-v0", seed=0)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(1), 64)

    def timed(cls):
        # A fresh vector env (cold cache) per run.
        vector_env = cls.from_env(env, num_envs=8, autoreset=False)
        start = time.perf_counter()
        results = deploy_policy_batch(vector_env, policy, targets)
        return results, time.perf_counter() - start

    reference_cls = reference_vector_env()

    def run():
        return _alternating_medians(
            {
                "interpreted": lambda: timed(reference_cls),
                "compiled": lambda: timed(VectorCircuitEnv),
            }
        )

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    (interpreted_runs, interpreted_s), (compiled_runs, compiled_s) = (
        outcomes["interpreted"],
        outcomes["compiled"],
    )
    for compiled_results in compiled_runs:
        for interpreted, compiled in zip(interpreted_runs[0], compiled_results):
            assert interpreted.steps == compiled.steps
            assert interpreted.success == compiled.success
            assert interpreted.final_specs == compiled.final_specs
    speedup = interpreted_s / compiled_s

    benchmark.extra_info.update(
        {
            "policy": "gcn_fc",
            "num_targets": len(targets),
            "repeats": REPEATS,
            "interpreted_s": round(interpreted_s, 4),
            "compiled_s": round(compiled_s, 4),
            "speedup": round(speedup, 2),
        }
    )
    # Measured 3.4-3.6x (0.63-0.84 s -> 0.18-0.25 s) on a shared 2-core x86
    # VM, medians of alternating repeats: the batched step keys the shared
    # cache on its own parameter rows, snaps once and scores each lane in one
    # error pass, where the reference loop re-reads, re-snaps and re-scores
    # each lane.  The gate leaves room for CI noise.
    assert speedup >= 1.3, (
        f"batched lock-step deployment regressed: measured {speedup:.2f}x vs "
        "the reference step loop (expect >= 1.3x)"
    )
