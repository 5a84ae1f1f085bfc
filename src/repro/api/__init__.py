"""``repro.api`` — the unified front door to the whole codebase.

Three ideas, one import::

    import repro

    # 1. String-ID component registry with discovery
    env = repro.make_env("opamp-p2s-v0", seed=0)
    policy = repro.make_policy("gcn_fc", env)
    repro.list_envs(), repro.list_policies(), repro.list_optimizers()

    # 2. One Optimizer protocol for all five method families
    optimizer = repro.make_optimizer("ppo")          # or genetic/bayesian/random/supervised
    result = optimizer.optimize(env, budget=200, seed=0)

    # 3. Serializable run configs (JSON round-trip == identical run)
    config = repro.RunConfig(env="opamp-p2s-v0", optimizer="random", budget=40, seed=7)
    same_result = repro.RunConfig.from_json(config.to_json()).run()

New components register with the same decorators the built-ins use
(:func:`register_env`, :func:`register_policy`, :func:`register_optimizer`).
"""

from repro.api.catalog import (
    ENVS,
    OPTIMIZERS,
    POLICIES,
    describe_components,
    list_envs,
    list_optimizers,
    list_policies,
    make_env,
    make_optimizer,
    make_policy,
    register_env,
    register_optimizer,
    register_policy,
    vectorizable,
)
from repro.api.configs import EnvConfig, OptimizerConfig, RunConfig
from repro.api.optimizers import (
    BayesianOptimizer,
    GeneticOptimizer,
    PPOOptimizer,
    RandomSearchOptimizer,
    SupervisedOptimizer,
    build_problem,
)
from repro.api.protocol import (
    NotifyingTrace,
    OptimizationCallback,
    OptimizationResult,
    OptimizationTrace,
    Optimizer,
)
from repro.api.registry import Registry, RegistryEntry, UnknownComponentError
from repro.api.seeding import seed_everything

__all__ = [
    "BayesianOptimizer",
    "ENVS",
    "EnvConfig",
    "GeneticOptimizer",
    "NotifyingTrace",
    "OPTIMIZERS",
    "OptimizationCallback",
    "OptimizationResult",
    "OptimizationTrace",
    "Optimizer",
    "OptimizerConfig",
    "POLICIES",
    "PPOOptimizer",
    "RandomSearchOptimizer",
    "Registry",
    "RegistryEntry",
    "RunConfig",
    "SupervisedOptimizer",
    "UnknownComponentError",
    "build_problem",
    "describe_components",
    "list_envs",
    "list_optimizers",
    "list_policies",
    "make_env",
    "make_optimizer",
    "make_policy",
    "register_env",
    "register_optimizer",
    "register_policy",
    "seed_everything",
    "vectorizable",
]
