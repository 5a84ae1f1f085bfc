"""``repro.serve`` — grad-free inference and micro-batched serving throughput.

Four claims of the serving subsystem, measured directly:

1. grad-free inference-mode deployment is ≥2× faster than the legacy
   grad-recording path, with identical episodes;
2. micro-batched serving throughput scales with the batch size, with
   episode-level results identical at every batch size;
3. a checkpoint round-trip (save → load) reproduces the deployment metrics
   (the Table 2 quantities: design accuracy and mean design steps) exactly;
4. lock-step deployment on the compiled episode plan is ≥1.3× faster than
   on the interpreted step loop, with identical episodes.

The policies are untrained (deployment cost does not depend on the weights
being good), which keeps the suite fast while measuring exactly the serving
hot path.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.agents import deploy_policy, deploy_policy_batch, evaluate_deployment
from repro.parallel import VectorCircuitEnv
from repro.serve import DeploymentService

#: Spec targets deployed per measurement.
NUM_TARGETS = 12

#: Episode budget kept short: throughput ratios are per-step properties.
MAX_STEPS = 20

#: The paper's best-performing policy variant.
POLICY_ID = "gat_fc"


def _policy_and_targets(seed: int = 0):
    env = repro.make_env("opamp-p2s-v0", seed=seed, max_steps=MAX_STEPS)
    policy = repro.make_policy(POLICY_ID, env, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    targets = env.benchmark.spec_space.sample_batch(rng, NUM_TARGETS)
    return env, policy, targets


def test_inference_mode_deployment_speedup(benchmark):
    """Grad-free deployment ≥2× the grad-recording path, identical episodes."""
    env, policy, targets = _policy_and_targets()
    # Warm both paths (operator caches, numpy imports).
    deploy_policy(env, policy, targets[0], inference=False)
    deploy_policy(env, policy, targets[0])

    def timed(inference: bool):
        # Best of two passes: a single noisy-neighbor stall on a shared CI
        # runner must not decide the measured ratio.
        best, results = float("inf"), None
        for _ in range(2):
            start = time.perf_counter()
            results = [
                deploy_policy(env, policy, t, inference=inference) for t in targets
            ]
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
    for grad, inference in zip(grad_results, inference_results):
        assert grad.steps == inference.steps
        assert grad.success == inference.success
        assert grad.final_specs == inference.final_specs

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
        f"grad-free inference-mode deployment regressed: measured {speedup:.2f}x "
        "vs the grad-recording path (expect >= 2x)"
    )


def test_batched_serving_throughput(benchmark):
    """Service throughput grows with the micro-batch width; results identical."""
    _, _, targets = _policy_and_targets()

    def serve_at(batch_size: int):
        env = repro.make_env("opamp-p2s-v0", seed=0, max_steps=MAX_STEPS)
        policy = repro.make_policy(POLICY_ID, env, np.random.default_rng(0))
        service = DeploymentService(batch_size=batch_size)
        service.register_policy("opamp-p2s-v0", policy)
        start = time.perf_counter()
        responses = service.serve([dict(t) for t in targets])
        elapsed = time.perf_counter() - start
        return responses, len(targets) / elapsed, service.cache_stats().hit_rate

    def run():
        return {batch_size: serve_at(batch_size) for batch_size in (1, 4, 8)}

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)

    # Identical episode-level results at every batch size.
    reference = [(r.steps, r.success, tuple(sorted(r.final_specs.items())))
                 for r in outcomes[1][0]]
    for batch_size, (responses, _, _) in outcomes.items():
        observed = [(r.steps, r.success, tuple(sorted(r.final_specs.items())))
                    for r in responses]
        assert observed == reference, f"batch_size={batch_size} changed results"

    throughputs = {batch_size: eps for batch_size, (_, eps, _) in outcomes.items()}
    benchmark.extra_info.update(
        {
            "policy": POLICY_ID,
            "num_targets": NUM_TARGETS,
            "episodes_per_s": {str(k): round(v, 1) for k, v in throughputs.items()},
            "scaling_8_vs_1": round(throughputs[8] / throughputs[1], 2),
            "cache_hit_rate": round(outcomes[8][2], 4),
        }
    )
    # Measured ~1.8x (batch 8 vs 1) on dedicated hardware; the episodes are
    # simulator-step-bound once inference is batched, so the gate is set
    # well below that to keep shared CI runners from flaking while still
    # catching an unbatched (~1.0x) regression.
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


def test_compiled_deployment_speedup(benchmark):
    """Compiled lock-step deployment ≥1.3× the interpreted one, identical episodes."""
    # gcn_fc, the policy the serve benchmark workload serves: a lighter
    # forward than gat_fc, so the step loop is a larger share of the time.
    env = repro.make_env("opamp-p2s-v0", seed=0)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    targets = env.benchmark.spec_space.sample_batch(np.random.default_rng(1), 64)

    def timed(compile: bool):
        # Best of two passes, each on a fresh vector env (cold cache).  The
        # plan is built before the clock starts: a service builds it once,
        # at registration.
        best, results = float("inf"), None
        for _ in range(2):
            vector_env = VectorCircuitEnv.from_env(
                env, num_envs=8, autoreset=False, compile=compile
            )
            vector_env.compiled_plan
            start = time.perf_counter()
            results = deploy_policy_batch(vector_env, policy, targets)
            best = min(best, time.perf_counter() - start)
        return results, best, vector_env

    def run():
        interpreted_results, interpreted_s, _ = timed(compile=False)
        compiled_results, compiled_s, compiled_env = timed(compile=True)
        return interpreted_results, compiled_results, interpreted_s, compiled_s, compiled_env

    interpreted_results, compiled_results, interpreted_s, compiled_s, compiled_env = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    for interpreted, compiled in zip(interpreted_results, compiled_results):
        assert interpreted.steps == compiled.steps
        assert interpreted.success == compiled.success
        assert interpreted.final_specs == compiled.final_specs
    plan = compiled_env.compiled_plan
    assert plan is not None and plan.fallback_steps == 0
    speedup = interpreted_s / compiled_s

    benchmark.extra_info.update(
        {
            "policy": "gcn_fc",
            "num_targets": len(targets),
            "interpreted_s": round(interpreted_s, 4),
            "compiled_s": round(compiled_s, 4),
            "speedup": round(speedup, 2),
        }
    )
    # Measured 1.7-1.9x (0.59-0.84 s -> 0.34-0.43 s) on a shared 2-core x86
    # VM: the compiled step replays the shared cache directly and calls
    # simulate_batch only on a miss.  The gate leaves room for CI noise.
    assert speedup >= 1.3, (
        f"compiled lock-step deployment regressed: measured {speedup:.2f}x vs "
        "the interpreted step loop (expect >= 1.3x)"
    )
