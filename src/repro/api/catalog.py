"""The component catalog: every environment, policy, and optimizer ID.

This module is the single front door to the codebase.  It owns the three
global registries and the canonical builder functions behind the public
``repro.make_env`` / ``repro.make_policy`` / ``repro.make_optimizer``
helpers:

=============  =====================================================
kind           registered IDs
=============  =====================================================
environments   ``opamp-p2s-v0``, ``rf_pa-fine-v0``, ``rf_pa-coarse-v0``,
               ``rf_pa-fom-v0``, ``rf_pa-fom-coarse-v0``, and the
               topology zoo: ``folded_cascode-p2s-v0``,
               ``current_mirror_ota-p2s-v0``,
               ``common_source_lna-p2s-v0`` (each also as a
               ``*-random-v0`` variant starting episodes from random
               grid points)
policies       ``gcn_fc``, ``gat_fc``, ``baseline_a``, ``baseline_b``
optimizers     ``ppo``, ``genetic``, ``bayesian``, ``random``,
               ``supervised``
=============  =====================================================

Environment IDs follow the gym convention ``<circuit>-<task/fidelity>-v<N>``;
legacy names (``"genetic_algorithm"``, ``"bayesian_optimization"``, ...) are
registered as aliases so strings stored in old experiment configs keep
resolving.  Third parties extend the catalog with the same decorators::

    @register_env("my_lna-p2s-v0", description="LNA sizing environment")
    def _my_lna(seed=None, **kwargs):
        return CircuitDesignEnv(...)
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.api.registry import Registry
from repro.circuits.library.common_source_lna import build_common_source_lna
from repro.circuits.library.current_mirror_ota import build_current_mirror_ota
from repro.circuits.library.folded_cascode import build_folded_cascode
from repro.circuits.library.rf_pa import build_rf_pa
from repro.circuits.library.two_stage_opamp import build_two_stage_opamp
from repro.corners import CornerSimulator, YieldP2SReward, default_corner_set
from repro.env.circuit_env import CircuitDesignEnv
from repro.env.reward import FomReward, P2SReward
from repro.parallel.cache import DEFAULT_CACHE_SIZE, SimulationCache
from repro.parallel.vector_env import VectorCircuitEnv
from repro.simulation.folded_cascode_sim import FoldedCascodeSimulator
from repro.simulation.lna_sim import LnaSimulator
from repro.simulation.opamp_sim import OpAmpSimulator
from repro.simulation.ota_sim import CmOtaSimulator
from repro.simulation.pa_sim import RfPaCoarseSimulator, RfPaFineSimulator

#: What an environment factory may hand back: the sequential environment, or
#: a vectorized batch of them when ``num_envs > 1`` is requested.
EnvironmentLike = Union[CircuitDesignEnv, VectorCircuitEnv]

#: The three global registries behind the ``repro.make_*`` helpers.
ENVS = Registry("environment")
POLICIES = Registry("policy")
OPTIMIZERS = Registry("optimizer")

# Decorator aliases for third-party registration.
register_env = ENVS.register
register_policy = POLICIES.register
register_optimizer = OPTIMIZERS.register


# ----------------------------------------------------------------------
# Environments
# ----------------------------------------------------------------------
def vectorizable(builder: Callable[..., CircuitDesignEnv]) -> Callable[..., EnvironmentLike]:
    """Give an environment factory the ``num_envs`` / ``cache_size`` /
    ``surrogate`` / ``surrogate_dir`` knobs.

    ``make_env(id, num_envs=k)`` then returns a
    :class:`repro.parallel.VectorCircuitEnv` of ``k`` sub-environments
    (seeded ``seed, seed + 1, ...``) sharing one
    :class:`~repro.parallel.SimulationCache`; ``num_envs=1`` (the default)
    returns the plain sequential environment, optionally with a cached
    simulator when ``cache_size`` is set.

    ``surrogate`` (a trained :class:`repro.surrogate.SpecSurrogate` or a
    checkpoint path) and/or ``surrogate_dir`` (a persistent corpus
    directory) wrap the simulator in a
    :class:`repro.surrogate.TieredSimulator` instead — the learned tier
    answers trusted queries, exact results are persisted into the corpus —
    and a vectorized batch shares that one tier.  Third-party factories
    registered via :func:`register_env` can apply the same decorator.

    ``compile`` is accepted and ignored: perfbench's train-mna workload
    still passes ``compile=True``, and the next change to perfbench drops it.
    """

    @functools.wraps(builder)
    def factory(
        seed: Optional[int] = None,
        num_envs: int = 1,
        cache_size: Optional[int] = None,
        compile: bool = False,
        surrogate: Any = None,
        surrogate_dir: Optional[str] = None,
        **kwargs: Any,
    ) -> EnvironmentLike:
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        env = builder(seed=seed, **kwargs)
        if surrogate is not None or surrogate_dir is not None:
            # Local import: the surrogate package pulls the nn stack, which
            # plain environment construction should not pay for.
            from repro.surrogate import TieredSimulator

            env.simulator = TieredSimulator(
                env.simulator,
                surrogate=surrogate,
                directory=surrogate_dir,
                max_entries=cache_size if cache_size is not None else DEFAULT_CACHE_SIZE,
            )
        elif num_envs == 1 and cache_size is not None:
            env.simulator = SimulationCache(env.simulator, max_entries=cache_size)
        if num_envs == 1:
            return env
        # from_env reuses an existing SimulationCache (which the tiered
        # simulator is) rather than double-wrapping it.
        return VectorCircuitEnv.from_env(
            env,
            num_envs=num_envs,
            seed=seed,
            cache_size=cache_size if cache_size is not None else DEFAULT_CACHE_SIZE,
        )

    return factory


@register_env(
    "opamp-p2s-v0",
    description="Two-stage op-amp, P2S (Eq. 1) reward, analytic simulator, 50-step episodes",
    aliases=("opamp-v0",),
    metadata={"circuit": "two_stage_opamp", "task": "p2s", "fidelity": "fine"},
)
@vectorizable
def _opamp_p2s_v0(
    seed: Optional[int] = None,
    max_steps: int = 50,
    initial_sizing: str = "center",
    goal_tolerance: float = 0.0,
) -> CircuitDesignEnv:
    benchmark = build_two_stage_opamp()
    return CircuitDesignEnv(
        benchmark=benchmark,
        simulator=OpAmpSimulator(),
        reward_fn=P2SReward(benchmark.spec_space),
        max_steps=max_steps,
        initial_sizing=initial_sizing,
        goal_tolerance=goal_tolerance,
        seed=seed,
    )


@register_env(
    "opamp-mna-v0",
    description="Two-stage op-amp, P2S reward, MNA small-signal AC simulator, 50-step episodes",
    metadata={"circuit": "two_stage_opamp", "task": "p2s", "fidelity": "mna"},
)
@vectorizable
def _opamp_mna_p2s_v0(
    seed: Optional[int] = None,
    max_steps: int = 50,
    initial_sizing: str = "center",
    goal_tolerance: float = 0.0,
) -> CircuitDesignEnv:
    benchmark = build_two_stage_opamp()
    return CircuitDesignEnv(
        benchmark=benchmark,
        simulator=OpAmpSimulator(method="mna"),
        reward_fn=P2SReward(benchmark.spec_space),
        max_steps=max_steps,
        initial_sizing=initial_sizing,
        goal_tolerance=goal_tolerance,
        seed=seed,
    )


@register_env(
    "current_mirror_ota-mna-v0",
    description="Current-mirror OTA, P2S reward, MNA small-signal AC simulator, 40-step episodes",
    metadata={"circuit": "current_mirror_ota", "task": "p2s", "fidelity": "mna"},
)
@vectorizable
def _cm_ota_mna_p2s_v0(
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    initial_sizing: str = "center",
    goal_tolerance: float = 0.0,
) -> CircuitDesignEnv:
    benchmark = build_current_mirror_ota()
    return CircuitDesignEnv(
        benchmark=benchmark,
        simulator=CmOtaSimulator(method="mna"),
        reward_fn=P2SReward(benchmark.spec_space),
        max_steps=max_steps,
        initial_sizing=initial_sizing,
        goal_tolerance=goal_tolerance,
        seed=seed,
    )


def _rf_pa_env(
    simulator,
    reward_kind: str,
    seed: Optional[int],
    max_steps: int,
    initial_sizing: str,
    goal_tolerance: float,
) -> CircuitDesignEnv:
    benchmark = build_rf_pa()
    if reward_kind == "fom":
        reward_fn = FomReward(benchmark.spec_space)
    else:
        reward_fn = P2SReward(benchmark.spec_space)
    return CircuitDesignEnv(
        benchmark=benchmark,
        simulator=simulator,
        reward_fn=reward_fn,
        max_steps=max_steps,
        initial_sizing=initial_sizing,
        goal_tolerance=goal_tolerance,
        seed=seed,
    )


@register_env(
    "rf_pa-fine-v0",
    description="GaN RF PA, P2S reward, fine (harmonic-balance style) simulator, 30-step episodes",
    aliases=("rf_pa-p2s-v0", "rf_pa-v0"),
    metadata={"circuit": "rf_pa", "task": "p2s", "fidelity": "fine"},
)
@vectorizable
def _rf_pa_fine_v0(
    seed: Optional[int] = None,
    max_steps: int = 30,
    initial_sizing: str = "center",
    goal_tolerance: float = 0.0,
) -> CircuitDesignEnv:
    return _rf_pa_env(RfPaFineSimulator(), "p2s", seed, max_steps, initial_sizing, goal_tolerance)


@register_env(
    "rf_pa-coarse-v0",
    description="GaN RF PA, P2S reward, coarse (DC-estimate) training simulator, 30-step episodes",
    metadata={"circuit": "rf_pa", "task": "p2s", "fidelity": "coarse"},
)
@vectorizable
def _rf_pa_coarse_v0(
    seed: Optional[int] = None,
    max_steps: int = 30,
    initial_sizing: str = "center",
    goal_tolerance: float = 0.0,
) -> CircuitDesignEnv:
    return _rf_pa_env(RfPaCoarseSimulator(), "p2s", seed, max_steps, initial_sizing, goal_tolerance)


@register_env(
    "rf_pa-fom-v0",
    description="GaN RF PA, FoM (P + 3E) reward, fine simulator (Fig. 7 scoring)",
    aliases=("rf_pa-fom-fine-v0",),
    metadata={"circuit": "rf_pa", "task": "fom", "fidelity": "fine"},
)
@vectorizable
def _rf_pa_fom_v0(
    seed: Optional[int] = None,
    max_steps: int = 30,
    initial_sizing: str = "center",
    goal_tolerance: float = 0.0,
) -> CircuitDesignEnv:
    return _rf_pa_env(RfPaFineSimulator(), "fom", seed, max_steps, initial_sizing, goal_tolerance)


@register_env(
    "rf_pa-fom-coarse-v0",
    description="GaN RF PA, FoM reward, coarse simulator (Fig. 7 transfer training)",
    metadata={"circuit": "rf_pa", "task": "fom", "fidelity": "coarse"},
)
@vectorizable
def _rf_pa_fom_coarse_v0(
    seed: Optional[int] = None,
    max_steps: int = 30,
    initial_sizing: str = "center",
    goal_tolerance: float = 0.0,
) -> CircuitDesignEnv:
    return _rf_pa_env(RfPaCoarseSimulator(), "fom", seed, max_steps, initial_sizing, goal_tolerance)


# ----------------------------------------------------------------------
# Topology zoo: the three PR 3 circuits, each with a P2S environment that
# starts episodes from the center sizing and a ``-random-v0`` variant that
# starts from a uniformly sampled grid point (scenario diversity for
# training; both accept the usual num_envs / cache_size knobs).
# ----------------------------------------------------------------------
def _register_zoo_circuit(
    circuit: str, builder: Callable[[], Any], simulator_factory: Callable[[], Any],
    description: str,
) -> None:
    def _build_env(
        seed: Optional[int] = None,
        max_steps: Optional[int] = None,
        initial_sizing: str = "center",
        goal_tolerance: float = 0.0,
    ) -> CircuitDesignEnv:
        benchmark = builder()
        return CircuitDesignEnv(
            benchmark=benchmark,
            simulator=simulator_factory(),
            reward_fn=P2SReward(benchmark.spec_space),
            max_steps=max_steps,
            initial_sizing=initial_sizing,
            goal_tolerance=goal_tolerance,
            seed=seed,
        )

    register_env(
        f"{circuit}-p2s-v0",
        vectorizable(_build_env),
        description=description,
        aliases=(f"{circuit}-v0",),
        metadata={"circuit": circuit, "task": "p2s", "fidelity": "fine"},
    )
    register_env(
        f"{circuit}-random-v0",
        vectorizable(_build_env),
        description=f"{description} (episodes start from random grid points)",
        defaults={"initial_sizing": "random"},
        metadata={"circuit": circuit, "task": "p2s", "fidelity": "fine",
                  "initial_sizing": "random"},
    )


_register_zoo_circuit(
    "folded_cascode", build_folded_cascode, FoldedCascodeSimulator,
    "Folded-cascode op-amp, P2S reward, analytic simulator, 50-step episodes",
)
_register_zoo_circuit(
    "current_mirror_ota", build_current_mirror_ota, CmOtaSimulator,
    "Current-mirror OTA, P2S reward (slew-rate spec), analytic simulator, 40-step episodes",
)
_register_zoo_circuit(
    "common_source_lna", build_common_source_lna, LnaSimulator,
    "Common-source LNA at 2.4 GHz, P2S reward (noise-figure spec), 30-step episodes",
)


# ----------------------------------------------------------------------
# PVT corner variants: every zoo topology as a ``*-corners-v0`` environment
# whose simulator sweeps the default five-corner set per step (every corner
# of every row one lane of the base simulator) and whose
# reward is the yield-aware worst-corner P2S reward.  Same machinery as the
# rest of the catalog, so the num_envs / cache_size / surrogate knobs apply.
# ----------------------------------------------------------------------
def _register_corner_variant(
    env_id: str, circuit: str, builder: Callable[[], Any],
    simulator_factory: Callable[[], Any], description: str,
) -> None:
    def _build_env(
        seed: Optional[int] = None,
        max_steps: Optional[int] = None,
        initial_sizing: str = "center",
        goal_tolerance: float = 0.0,
        corner_set: Optional[Any] = None,
    ) -> CircuitDesignEnv:
        benchmark = builder()
        corners = corner_set if corner_set is not None else default_corner_set()
        simulator = CornerSimulator(
            simulator_factory(),
            corner_set=corners,
            spec_space=benchmark.spec_space,
        )
        return CircuitDesignEnv(
            benchmark=benchmark,
            simulator=simulator,
            reward_fn=YieldP2SReward(benchmark.spec_space, corner_set=corners),
            max_steps=max_steps,
            initial_sizing=initial_sizing,
            goal_tolerance=goal_tolerance,
            seed=seed,
        )

    register_env(
        env_id,
        vectorizable(_build_env),
        description=description,
        metadata={"circuit": circuit, "task": "p2s-corners", "fidelity": "fine"},
    )


_register_corner_variant(
    "opamp-corners-v0", "two_stage_opamp", build_two_stage_opamp, OpAmpSimulator,
    "Two-stage op-amp, yield-aware P2S reward over the five-corner PVT sweep",
)
_register_corner_variant(
    "folded_cascode-corners-v0", "folded_cascode", build_folded_cascode,
    FoldedCascodeSimulator,
    "Folded-cascode op-amp, yield-aware P2S reward over the five-corner PVT sweep",
)
_register_corner_variant(
    "current_mirror_ota-corners-v0", "current_mirror_ota", build_current_mirror_ota,
    CmOtaSimulator,
    "Current-mirror OTA, yield-aware P2S reward over the five-corner PVT sweep",
)
_register_corner_variant(
    "common_source_lna-corners-v0", "common_source_lna", build_common_source_lna,
    LnaSimulator,
    "Common-source LNA, yield-aware P2S reward over the five-corner PVT sweep",
)
_register_corner_variant(
    "rf_pa-corners-v0", "rf_pa", build_rf_pa, RfPaFineSimulator,
    "GaN RF PA, yield-aware P2S reward over the five-corner PVT sweep (fine simulator)",
)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def _register_policies() -> None:
    # Imported lazily so that ``repro.agents`` (which itself imports the nn
    # stack) only loads when the catalog module does.
    from repro.agents.policy import POLICY_FACTORIES

    descriptions = {
        "gcn_fc": "GCN + spec-FCNN multimodal policy (ours)",
        "gat_fc": "GAT + spec-FCNN multimodal policy (ours, best variant)",
        "baseline_a": "Baseline A (AutoCkt): FCNN over specs + parameters, no graph",
        "baseline_b": "Baseline B (GCN-RL): graph branch only, raw spec vector",
    }
    aliases = {
        "gcn_fc": ("gcn-fc",),
        "gat_fc": ("gat-fc",),
        "baseline_a": ("autockt",),
        "baseline_b": ("gcn_rl", "gcn-rl"),
    }
    for name, factory in POLICY_FACTORIES.items():
        POLICIES.register(
            name,
            factory,
            description=descriptions.get(name, ""),
            aliases=aliases.get(name, ()),
        )


_register_policies()


def _register_optimizers() -> None:
    # Late import: repro.api.optimizers imports the catalog for make_policy.
    from repro.api.optimizers import (
        BayesianOptimizer,
        GeneticOptimizer,
        PPOOptimizer,
        RandomSearchOptimizer,
        SupervisedOptimizer,
    )

    OPTIMIZERS.register(
        "ppo",
        PPOOptimizer,
        description="PPO-trained RL policy (GNN-FC by default), deployed per target group",
        aliases=("rl",),
    )
    OPTIMIZERS.register(
        "genetic",
        GeneticOptimizer,
        description="Real-coded genetic algorithm over the normalized design space",
        aliases=("genetic_algorithm", "ga"),
    )
    OPTIMIZERS.register(
        "bayesian",
        BayesianOptimizer,
        description="Gaussian-process Bayesian optimization with expected improvement",
        aliases=("bayesian_optimization", "bo"),
    )
    OPTIMIZERS.register(
        "random",
        RandomSearchOptimizer,
        description="Uniform random search (sanity-check lower bound)",
        aliases=("random_search", "rs"),
    )
    OPTIMIZERS.register(
        "supervised",
        SupervisedOptimizer,
        description="Supervised inverse spec-to-parameter regressor (one-shot design)",
        aliases=("supervised_learning", "sl"),
    )


_register_optimizers()


# ----------------------------------------------------------------------
# Public factory / discovery helpers (re-exported as repro.make_* etc.)
# ----------------------------------------------------------------------
def make_env(id: str, **kwargs: Any) -> EnvironmentLike:
    """Build an environment by string ID, e.g. ``make_env("opamp-p2s-v0", seed=0)``.

    All built-in environments accept ``num_envs`` and ``cache_size``:
    ``make_env("opamp-p2s-v0", seed=0, num_envs=8)`` returns an 8-wide
    :class:`repro.parallel.VectorCircuitEnv` with a shared simulation cache,
    while ``num_envs=1`` (default) returns the sequential environment.
    """
    return ENVS.make(id, **kwargs)


def make_policy(
    id: str, env: CircuitDesignEnv, rng: Optional[np.random.Generator] = None, **overrides: Any
):
    """Build a policy by string ID for an environment, e.g. ``make_policy("gcn_fc", env)``."""
    return POLICIES.make(id, env, rng, **overrides)


def make_optimizer(id: str, **kwargs: Any):
    """Build an optimizer by string ID, e.g. ``make_optimizer("ppo", policy="gat_fc")``.

    Every returned object implements the common :class:`repro.api.Optimizer`
    protocol: ``optimize(env, budget=..., seed=..., callbacks=...)``.
    """
    return OPTIMIZERS.make(id, **kwargs)


def list_envs() -> List[str]:
    """Registered environment IDs."""
    return ENVS.ids()


def list_policies() -> List[str]:
    """Registered policy IDs."""
    return POLICIES.ids()


def list_optimizers() -> List[str]:
    """Registered optimizer IDs."""
    return OPTIMIZERS.ids()


def describe_components() -> Dict[str, Dict[str, str]]:
    """Full catalog: kind -> {id: one-line description} (discovery helper)."""
    return {
        "environments": ENVS.describe(),
        "policies": POLICIES.describe(),
        "optimizers": OPTIMIZERS.describe(),
    }
