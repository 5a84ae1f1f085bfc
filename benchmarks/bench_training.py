"""PPO training: where a collect + update cycle spends its time.

One training cycle of the paper's Algorithm 1 collects a batch of episodes
and then runs the clipped-objective update epochs over it.  This bench times
the two halves separately on ``opamp-p2s-v0`` (gcn_fc, an 8-wide compiled
vector env) and records the split in ``extra_info``.  It then runs the same
update with the per-sample reference loop from
``tests/agents/ppo_reference.py`` — one ``evaluate_actions`` call and one
autograd graph per transition — on an identical trainer and buffer, and
gates the batched :meth:`PPOTrainer.update` at ≥5× that reference.  The two
updates agree to rounding (the tolerance contract is in
``tests/agents/test_ppo_update_parity.py``); a loose check here guards
against timing two different computations.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

import repro
from repro.agents.ppo import PPOConfig, PPOTrainer

#: Episodes per collect + update cycle (the trainer's default batch).
EPISODES = 8

#: Short episodes keep the per-sample reference under a second or two.
MAX_STEPS = 20

REFERENCE_PATH = Path(__file__).resolve().parents[1] / "tests" / "agents" / "ppo_reference.py"


def _reference_update():
    """``reference_update`` from the test suite, loaded by file path."""
    spec = importlib.util.spec_from_file_location("ppo_reference", REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_update


def _trainer(seed: int = 0) -> PPOTrainer:
    env = repro.make_env(
        "opamp-p2s-v0", seed=seed, max_steps=MAX_STEPS, num_envs=8, compile=True
    )
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(seed))
    return PPOTrainer(env, policy, config=PPOConfig(), seed=seed)


def test_training_cycle_split_and_batched_update_speedup(benchmark):
    """Collect/update wall-time split; batched update ≥5× the per-sample one."""
    reference_update = _reference_update()

    def run():
        batched, reference = _trainer(), _trainer()
        batched.vector_env.compiled_plan  # built once per env, outside the clock
        start = time.perf_counter()
        buffer = batched.collect_episodes(EPISODES)
        collect_s = time.perf_counter() - start
        reference_buffer = reference.collect_episodes(EPISODES)
        start = time.perf_counter()
        batched_stats = batched.update(buffer)
        update_s = time.perf_counter() - start
        start = time.perf_counter()
        reference_stats = reference_update(reference, reference_buffer)
        reference_s = time.perf_counter() - start
        return collect_s, update_s, reference_s, batched_stats, reference_stats, len(buffer)

    collect_s, update_s, reference_s, batched_stats, reference_stats, transitions = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    for key, value in reference_stats.items():
        assert np.isclose(batched_stats[key], value, rtol=1e-9, atol=1e-12), key
    speedup = reference_s / update_s

    benchmark.extra_info.update(
        {
            "policy": "gcn_fc",
            "episodes": EPISODES,
            "transitions": transitions,
            "collect_s": round(collect_s, 4),
            "update_s": round(update_s, 4),
            "update_share": round(update_s / (collect_s + update_s), 3),
            "reference_update_s": round(reference_s, 4),
            "update_speedup": round(speedup, 2),
        }
    )
    # Measured 11-16x on a shared 2-core x86 VM (one autograd graph per
    # 64-transition minibatch instead of 64); the gate is the roadmap's 5x.
    assert speedup >= 5.0, (
        f"batched PPO update regressed: measured {speedup:.2f}x vs the "
        "per-sample reference (expect >= 5x)"
    )
