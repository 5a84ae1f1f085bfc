"""Train once, serve many: checkpoints + the micro-batched deployment service.

Walks the full ``repro.serve`` workflow end to end:

1. train a GCN-FC policy briefly on the two-stage op-amp, with the PPO
   trainer emitting on-disk checkpoints as it goes;
2. reload the final checkpoint (as a fresh process would);
3. stand up a :class:`repro.serve.DeploymentService` around it and serve a
   batch of sampled specification targets, micro-batched through the shared
   simulation cache;
4. deploy the first target again on the environment itself
   (``deploy_policy``: the service's lock-step loop with one lane) and show
   that it reproduces the served episode.

Run with:  python examples/serve_policy.py [--episodes N] [--targets K]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    DeploymentService,
    load_checkpoint,
    make_env,
    make_policy,
    seed_everything,
)
from repro.agents import PPOTrainer, deploy_policy
from repro.experiments import rl_hyperparameters


def main(episodes: int, targets: int, batch_size: int, seed: int = 0) -> None:
    rng = seed_everything(seed)
    env = make_env("opamp-p2s-v0", seed=seed)
    policy = make_policy("gcn_fc", env, rng)
    hyper = rl_hyperparameters("two_stage_opamp")

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        checkpoint_dir = Path(tmp) / "checkpoints"
        print(f"Training GCN-FC for {episodes} episodes, checkpointing to "
              f"{checkpoint_dir.name}/ every 2 updates ...")
        trainer = PPOTrainer(
            env, policy, config=hyper["ppo"], seed=seed, method_name="gcn_fc",
            checkpoint_dir=checkpoint_dir, checkpoint_interval=2,
            env_id="opamp-p2s-v0",
        )
        trainer.train(total_episodes=episodes, episodes_per_update=10)
        emitted = sorted(path.name for path in checkpoint_dir.glob("*.npz"))
        print(f"  emitted checkpoints: {', '.join(emitted)}")

        print("\nReloading latest.npz (what a serving process would do) ...")
        checkpoint = load_checkpoint(checkpoint_dir / "latest.npz")
        print(f"  policy id : {checkpoint.policy_id}")
        print(f"  env id    : {checkpoint.env_id}")
        print(f"  trained   : {checkpoint.extra.get('episodes_seen')} episodes "
              f"({checkpoint.extra.get('update')} updates)")

        print(f"\nServing {targets} sampled spec targets "
              f"(micro-batches of {batch_size}) ...")
        service = DeploymentService.from_checkpoint(
            checkpoint_dir / "latest.npz", batch_size=batch_size
        )
        spec_rng = np.random.default_rng(seed + 123)
        requests = env.benchmark.spec_space.sample_batch(spec_rng, targets)
        responses = service.serve(requests)
        for response in responses:
            status = "MET " if response.success else "miss"
            print(f"  [{response.index}] {status} in {response.steps:>3d} steps")
        stats = service.stats
        print(f"  accuracy {stats.accuracy:.0%}, mean steps "
              f"{stats.design_steps / stats.episodes:.1f}, "
              f"{stats.episodes_per_second:.1f} episodes/s, "
              f"cache hit rate {service.cache_stats().hit_rate:.0%}")

        print("\nThe first target again, deployed on the environment itself:")
        start = time.perf_counter()
        serial = deploy_policy(env, checkpoint.policy, dict(requests[0]))
        serial_s = time.perf_counter() - start
        served = responses[0]
        same = (serial.steps, serial.success) == (served.steps, served.success)
        print(f"  {serial.steps} steps in {serial_s * 1e3:.1f} ms "
              f"({'identical to' if same else 'DIFFERENT from'} the served episode)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=40,
                        help="training episodes before serving (default 40)")
    parser.add_argument("--targets", type=int, default=8,
                        help="number of spec targets to serve (default 8)")
    parser.add_argument("--batch-size", type=int, default=4,
                        help="micro-batch width of the deployment service")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed routed through repro.seed_everything")
    args = parser.parse_args()
    main(args.episodes, args.targets, args.batch_size, seed=args.seed)
