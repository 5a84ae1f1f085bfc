"""sha256 goldens of the search baselines' results.

GA, BO and random search run on the op-amp (MNA and analytic) and the
current-mirror OTA (MNA) at three seeds each, plus one surrogate-prescreened
GA run.  Each digest covers the whole :class:`OptimizationResult` an
optimizer reports: best parameters, objective and specs, success, the
simulation count and every trace value, as raw float64 bits.  The digests
were recorded from the per-row exact evaluation loop, so any evaluation
path (e.g. one batched simulator call per population) must reproduce them
bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.surrogate import SurrogateConfig, SurrogatePrescreener, train_surrogate
from repro.surrogate.dataset import SurrogateDataset

ENV_IDS = ["opamp-mna-v0", "opamp-p2s-v0", "current_mirror_ota-mna-v0"]
SEEDS = [0, 1, 2]

#: (optimizer id, budget, overrides).  Random search runs without the early
#: stop so that it scores its samples as one population.
METHODS = {
    "genetic": (60, {"population_size": 12}),
    "bayesian": (16, {"num_initial": 6}),
    "random": (24, {"stop_when_met": False}),
}

_GOLDEN = {
    "opamp-mna-v0": {
        "genetic": ["704886b908a9514e", "41f94184efa7e43a", "be5a4672f811c47e"],
        "bayesian": ["b3817a0307de1b6e", "cb2ac81dbc7b9a66", "1d3616e0c40e2947"],
        "random": ["6fba52aa9a91ef3d", "a37e448186d495d6", "6cc1f165d59ad34b"],
    },
    "opamp-p2s-v0": {
        "genetic": ["05c60fac595e2a0e", "7295ba17525022b4", "fb3372ae14e653ea"],
        "bayesian": ["823dbe06359d43dc", "f5dd71bb7a28d731", "4a0236ba73345a44"],
        "random": ["b015d25819f8d044", "dbd09ac8778824b6", "a91c4cb67677f3df"],
    },
    "current_mirror_ota-mna-v0": {
        "genetic": ["285ac8ff2241383e", "cd17a0b7f8d9df0b", "0891ad9a12d1bcdf"],
        "bayesian": ["957b44dce73af372", "58b5df32bbbe2298", "46a10abc114b6601"],
        "random": ["40f039c43344a3f3", "ac0715e4f55d2bdb", "712081b6334a7671"],
    },
}

_GOLDEN_PRESCREENED = "85cd443200efcc86"


def _float_bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def result_digest(result) -> str:
    """First 16 hex digits of the sha256 of everything the result reports."""
    digest = hashlib.sha256()
    digest.update(_float_bytes(np.ravel(result.best_parameters)))
    digest.update(_float_bytes([result.best_objective]))
    digest.update(",".join(result.best_specs).encode())
    digest.update(_float_bytes(list(result.best_specs.values())))
    digest.update(b"1" if result.success else b"0")
    digest.update(str(int(result.num_simulations)).encode())
    digest.update(_float_bytes(result.trace.objective_values))
    digest.update(_float_bytes(result.trace.best_values))
    return digest.hexdigest()[:16]


def _run(env_id, method, seed, **extra):
    budget, overrides = METHODS[method]
    optimizer = repro.make_optimizer(method, budget=budget, **overrides, **extra)
    return optimizer.optimize(repro.make_env(env_id, seed=0), seed=seed)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_search_results_match_recorded_digests(env_id, method):
    digests = [result_digest(_run(env_id, method, seed)) for seed in SEEDS]
    assert digests == _GOLDEN[env_id][method]


def _prescreener():
    """A small surrogate fitted on seeded random op-amp designs."""
    env = repro.make_env("opamp-p2s-v0", seed=0)
    space = env.benchmark.design_space
    rng = np.random.default_rng(0)
    netlist = env.benchmark.fresh_netlist()
    rows, specs = [], []
    for _ in range(48):
        space.apply_to_netlist(netlist, space.sample(rng))
        result = env.simulator.simulate(netlist)
        rows.append(netlist.parameter_array())
        specs.append(list(result.specs.values()))
    dataset = SurrogateDataset(
        circuit=netlist.name,
        spec_names=tuple(result.specs),
        parameters=np.array(rows),
        specs=np.array(specs),
    )
    config = SurrogateConfig(hidden=(16,), epochs=40, min_train_points=8, ensemble_size=2)
    surrogate, _ = train_surrogate(dataset, config=config, seed=0)
    return SurrogatePrescreener(surrogate, top_fraction=0.25)


def test_prescreened_search_matches_recorded_digest():
    prescreener = _prescreener()
    result = _run("opamp-mna-v0", "genetic", 0, prescreen=prescreener)
    assert prescreener.stats.populations > 0
    assert result_digest(result) == _GOLDEN_PRESCREENED
