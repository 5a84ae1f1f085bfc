"""sha256 goldens of the vector-env step and the lock-step deployment.

Every digest below was recorded from the per-environment loop over
``CircuitDesignEnv.step`` and must never be edited: any change to the
vector step that moves a single bit of what a caller can observe fails
here.  What is hashed:

* the reset and every step's observation arrays, rewards, done flags and
  info dicts (terminal observations included);
* every sub-environment's trajectory after every step;
* the shared cache's ``stats`` and the LRU order of its keys.

The step runs 12 times with autoreset (5-step episodes) at ``num_envs`` 1,
3 and 8, with the shared cache on and off, on every circuit family: the
batched op-amp/CM-OTA simulators (analytic and MNA), the zoo and RF PA
simulators, the corner sweep and the surrogate tier.  The deployment goldens
run ``deploy_policy_batch`` over 13 targets at batch 8 (a ragged last chunk
of 5 lanes), with and without a ``max_steps`` override.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.agents.deployment import deploy_policy, deploy_policy_batch
from repro.circuits.specs import Objective
from repro.env.spaces import BatchedObservation, Observation
from repro.parallel import SimulationCache, VectorCircuitEnv

#: The surrogate-tier variant of ``opamp-p2s-v0`` (a ``TieredSimulator``).
TIERED = "opamp-p2s-v0+surrogate_dir"

STEP_ENV_IDS = [
    "opamp-p2s-v0",
    "opamp-mna-v0",
    "current_mirror_ota-p2s-v0",
    "current_mirror_ota-mna-v0",
    "folded_cascode-p2s-v0",
    "common_source_lna-p2s-v0",
    "rf_pa-fom-v0",
    "opamp-corners-v0",
    TIERED,
]

STEPS = 12
MAX_STEPS = 5
SEED = 11
#: Small enough that the 8-lane runs evict entries.
CACHE_SIZE = 32

DEPLOY_ENV_IDS = [
    "opamp-p2s-v0",
    "opamp-mna-v0",
    "current_mirror_ota-p2s-v0",
    "common_source_lna-p2s-v0",
]
#: 13 targets at batch 8: one full chunk, then a ragged chunk of 5 lanes.
BATCH_SIZE = 8
DEPLOY_CACHE_SIZE = 24


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
def _feed(digest, value) -> None:
    """Feed ``value`` to ``digest`` in an unambiguous, bit-exact encoding."""
    if value is None:
        digest.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        digest.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        digest.update(b"I%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        digest.update(b"R" + np.float64(value).tobytes())
    elif isinstance(value, str):
        encoded = value.encode()
        digest.update(b"S%d;" % len(encoded) + encoded)
    elif isinstance(value, bytes):
        digest.update(b"B%d;" % len(value) + value)
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        digest.update(b"A" + array.dtype.str.encode() + repr(array.shape).encode())
        digest.update(array.tobytes())
    elif isinstance(value, dict):
        digest.update(b"D%d;" % len(value))
        for key, item in value.items():
            _feed(digest, key)
            _feed(digest, item)
    elif isinstance(value, (list, tuple)):
        digest.update(b"L%d;" % len(value))
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (Observation, BatchedObservation)):
        digest.update(type(value).__name__.encode())
        for name in (
            "node_features",
            "static_node_features",
            "adjacency",
            "spec_features",
            "normalized_parameters",
            "measured_specs",
            "target_specs",
        ):
            _feed(digest, getattr(value, name))
    else:
        raise TypeError(f"no canonical encoding for {type(value).__name__}")


def _feed_trajectory(digest, trajectory) -> None:
    if trajectory is None:
        _feed(digest, None)
        return
    _feed(digest, trajectory.target_specs)
    _feed(digest, len(trajectory.records))
    for record in trajectory.records:
        _feed(
            digest,
            (record.step, record.parameters, record.specs, record.reward, record.goal_reached),
        )


def _feed_cache(digest, simulator) -> None:
    if isinstance(simulator, SimulationCache):
        _feed(digest, simulator.stats.to_dict())
        _feed(digest, list(simulator._entries))
    else:
        _feed(digest, None)


# ----------------------------------------------------------------------
# Vector step
# ----------------------------------------------------------------------
def _template(env_id, tmp_path):
    if env_id == TIERED:
        return repro.make_env(
            "opamp-p2s-v0", seed=None, max_steps=MAX_STEPS, surrogate_dir=str(tmp_path / "corpus")
        )
    return repro.make_env(env_id, seed=None, max_steps=MAX_STEPS)


def vector_step_digest(env_id, num_envs, cached, tmp_path) -> str:
    """sha256 of 12 autoreset steps of one vector env configuration."""
    vector_env = VectorCircuitEnv.from_env(
        _template(env_id, tmp_path),
        num_envs=num_envs,
        seed=SEED,
        cache_size=CACHE_SIZE if cached else None,
    )
    digest = hashlib.sha256()
    _feed(digest, vector_env.reset())
    rng = np.random.default_rng(SEED + 1000)
    for _ in range(STEPS):
        actions = rng.integers(0, 3, size=(num_envs, vector_env.num_parameters))
        batch, rewards, dones, infos = vector_env.step(actions)
        _feed(digest, (batch, rewards, dones, infos))
        for env in vector_env.envs:
            _feed_trajectory(digest, env.trajectory)
            _feed(digest, env.parameter_values)
    _feed_cache(digest, vector_env.envs[0].simulator)
    return digest.hexdigest()


STEP_GOLDENS = {
    "opamp-p2s-v0/1/cache": (
        "27b53a709a3f69198877ebeff54b2053cfdc451477c8e42da84631a2579c2913"
    ),
    "opamp-p2s-v0/1/nocache": (
        "09e83ef9e8aaa7a6d4cac23343f142071f3e6e59cd4ab4ace5a6e61ee467cd3c"
    ),
    "opamp-p2s-v0/3/cache": (
        "70ef1e673f022b2d1adf3fb557955f599a847215683b80ddffb225770256d8e0"
    ),
    "opamp-p2s-v0/3/nocache": (
        "e565e4aeb00c16b73145a9eaf74cea35d9d94e3ceb7cbe2b9b16734bc04b6a86"
    ),
    "opamp-p2s-v0/8/cache": (
        "a4ea39cde6098473916bfa8231d58f57973d614fee6dbda8256b11cfd4d94535"
    ),
    "opamp-p2s-v0/8/nocache": (
        "87221ed56bb7852b0e0dd05685c362a3da7c156f126c6871c2bfdcec1dd98915"
    ),
    "opamp-mna-v0/1/cache": (
        "c802aa5b4cd7eaf29370185ca4e67a9c55ce66c50f98c8eafc27cca82bb1ea86"
    ),
    "opamp-mna-v0/1/nocache": (
        "463755ec230718932fe375f3492a5e9d164b2fdff386a544d92135f00af38e17"
    ),
    "opamp-mna-v0/3/cache": (
        "c396ce35089fba502dd154669a4812f626bd762f218a3c4f3b76a520c126eee3"
    ),
    "opamp-mna-v0/3/nocache": (
        "ed00f094b71253d8b5b193b73b00cceb9ef905fa5929e6fb4209a7deebc22bbe"
    ),
    "opamp-mna-v0/8/cache": (
        "96474e9d330495d3885bf9c4deeec5cea7521ef51238d60e9761bd396ba48196"
    ),
    "opamp-mna-v0/8/nocache": (
        "dde6ffe03fe20b8325047c989e13f848407e9c5bd006256849ebbe03d39677bc"
    ),
    "current_mirror_ota-p2s-v0/1/cache": (
        "2a51f85fd1e4657686f129413c56fc5607c12b39fc158d58880f68f67d4c7fcb"
    ),
    "current_mirror_ota-p2s-v0/1/nocache": (
        "e4d23f6b48b3488854f362de632cf7791a9b2a31bf58f06cda64f6df1ffa507f"
    ),
    "current_mirror_ota-p2s-v0/3/cache": (
        "493d99e44431f3bda7bdc02bf3937e7a4ce4080ef328b403768a6d80c89452fa"
    ),
    "current_mirror_ota-p2s-v0/3/nocache": (
        "bba21062ae93351e40b87478b61d641b9194a3f9374af7911dbcb304f1af78f2"
    ),
    "current_mirror_ota-p2s-v0/8/cache": (
        "223e0d6de6ad81147450d5610a34d23f5ed9705ce46d69b3dbd71ed324f768c0"
    ),
    "current_mirror_ota-p2s-v0/8/nocache": (
        "20a50aeafa604419f1927b4b49bba47f9ca5328a873ddefd8e76b7a53058b057"
    ),
    "current_mirror_ota-mna-v0/1/cache": (
        "2fe874fbb72ac56b3f78ad8ec522033e7445a65b11406ab879112b89d208ccc3"
    ),
    "current_mirror_ota-mna-v0/1/nocache": (
        "e36d64234f3d9aff86cf95bad83a88db12dd6542b40f0e598344a6b3c6e35e68"
    ),
    "current_mirror_ota-mna-v0/3/cache": (
        "2100c74decfe469cfa19073cc7dd1902bb640fa00bc5bf47fb8696a496f4629d"
    ),
    "current_mirror_ota-mna-v0/3/nocache": (
        "7dce28a272d0363387b499ac190f159980441c0472c7ff9ec7ba082389836b5f"
    ),
    "current_mirror_ota-mna-v0/8/cache": (
        "948fc0791394f928184158c5513b97a441885bd81d107ab63659e32816af29fd"
    ),
    "current_mirror_ota-mna-v0/8/nocache": (
        "9cabbe876d8242eea3f663e6516a14b186c68c953a9318186ba1e32b32d39b4d"
    ),
    "folded_cascode-p2s-v0/1/cache": (
        "36abf0d6ad5bd7468488fa62068f3f71850f88ad52fa780536e43a5374dde6ce"
    ),
    "folded_cascode-p2s-v0/1/nocache": (
        "52559740f3be8ae4b17f094cf35925d94776c1374ce6db62cd0589feb319899a"
    ),
    "folded_cascode-p2s-v0/3/cache": (
        "8566d18d92979923dbb76bc1c2f24290efe464a30608dde1465ffe7386a6f67e"
    ),
    "folded_cascode-p2s-v0/3/nocache": (
        "dbf3fb53d7b9685cf7a51de5a127bffd61a3119eb770d8b85f365de7a10651ae"
    ),
    "folded_cascode-p2s-v0/8/cache": (
        "0936e7ab81e636567ddb61ab4825acf0b2cd21994b6d8465d3e3fe8646c330d9"
    ),
    "folded_cascode-p2s-v0/8/nocache": (
        "9d99c614a946e3ba0a890759edc7913e4b96f611b2f327cfd7ba50e03cb777f9"
    ),
    "common_source_lna-p2s-v0/1/cache": (
        "c27521d9d13f70b93ec21723e96aa93f780c7db4a48847565275e6e2292c60dd"
    ),
    "common_source_lna-p2s-v0/1/nocache": (
        "aeebe8e96ec61f113c9bf3ff20e38958803705d16b09030fe8a229dce3749bb1"
    ),
    "common_source_lna-p2s-v0/3/cache": (
        "c86a8ccfac931001e7a56ecda9c6cf5cb827f4965ab0a5ce22ee245cd1724167"
    ),
    "common_source_lna-p2s-v0/3/nocache": (
        "ee0be340cee64294d9f1e9daec8240dd4ea6e6c959bcaf2bf075b187b6e28a8d"
    ),
    "common_source_lna-p2s-v0/8/cache": (
        "42e97c970e62e568bd3769752cbc48aacb8d189de14de5b9b4af11198f5db82c"
    ),
    "common_source_lna-p2s-v0/8/nocache": (
        "2d944a44e7128342dff9a2bc029a06b0326cfdb17540f19b25dc4a11017f5769"
    ),
    "rf_pa-fom-v0/1/cache": (
        "5cf03d8cb4773258c7126d0dbab6e7daddcffb065de406689597fe4915f836ee"
    ),
    "rf_pa-fom-v0/1/nocache": (
        "6c8d57b011eb69d9d917d71e352fd71d5c7dd07d209beab792daf07356baee0f"
    ),
    "rf_pa-fom-v0/3/cache": (
        "472305784128c8abc6babcaf32f8a9943e26d6e4c30c6efec16a7d0ef725ce2b"
    ),
    "rf_pa-fom-v0/3/nocache": (
        "7cf980fc309e480658de87bb8bfb8b5a2925f0d09043e3ea90ce25c6243558c8"
    ),
    "rf_pa-fom-v0/8/cache": (
        "a1467621a28521102e357af5970b951a4594ecf90db6a256756acfff8b934571"
    ),
    "rf_pa-fom-v0/8/nocache": (
        "7f2fda8577e2c7c866504475d17fd76ff2f0bb4921c0f5828a46c3c45b7a0fb4"
    ),
    "opamp-corners-v0/1/cache": (
        "68a783d0fc6a2778b1d5af55cb44a42bd515e2741b98ec91c07df878c7493fd5"
    ),
    "opamp-corners-v0/1/nocache": (
        "02a9b9b470f211e7ca3b88e07e1e66f8750991ee9341ae633193f87a9b96c069"
    ),
    "opamp-corners-v0/3/cache": (
        "2b28c83fedd57e480a2036bd061353f274299a7d6b8c267c09785fd71b10ed01"
    ),
    "opamp-corners-v0/3/nocache": (
        "aa4d257487e1c02c1df3ec8bc97df37eaa98823e796ce3a952a121e92ef1afba"
    ),
    "opamp-corners-v0/8/cache": (
        "79bb1e4a0f1a087570808c5991a9fc8048268702280553b40d66658ed9a87ff2"
    ),
    "opamp-corners-v0/8/nocache": (
        "3a0b6367389720ba13c971ec78915174db9c8233964d2ad06307b4d54c0bc1e1"
    ),
    "opamp-p2s-v0+surrogate_dir/1/cache": (
        "27b53a709a3f69198877ebeff54b2053cfdc451477c8e42da84631a2579c2913"
    ),
    "opamp-p2s-v0+surrogate_dir/1/nocache": (
        "27b53a709a3f69198877ebeff54b2053cfdc451477c8e42da84631a2579c2913"
    ),
    "opamp-p2s-v0+surrogate_dir/3/cache": (
        "4f675fa533bd4c9e0dff09b233e35cf155157b4550b3b1bff10ef3cd1f97b9a5"
    ),
    "opamp-p2s-v0+surrogate_dir/3/nocache": (
        "4f675fa533bd4c9e0dff09b233e35cf155157b4550b3b1bff10ef3cd1f97b9a5"
    ),
    "opamp-p2s-v0+surrogate_dir/8/cache": (
        "94ecddee81140a6f31fd880384e90cc3e141e4b0446faa03cea4fba2f9d0e881"
    ),
    "opamp-p2s-v0+surrogate_dir/8/nocache": (
        "94ecddee81140a6f31fd880384e90cc3e141e4b0446faa03cea4fba2f9d0e881"
    ),
}


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "nocache"])
@pytest.mark.parametrize("num_envs", [1, 3, 8])
@pytest.mark.parametrize("env_id", STEP_ENV_IDS)
def test_vector_step_golden(env_id, num_envs, cached, tmp_path):
    key = f"{env_id}/{num_envs}/{'cache' if cached else 'nocache'}"
    assert vector_step_digest(env_id, num_envs, cached, tmp_path) == STEP_GOLDENS[key]


# ----------------------------------------------------------------------
# Lock-step deployment
# ----------------------------------------------------------------------
def _loosen(space, specs, factor):
    """``specs`` relaxed by ``factor`` toward the easy side of each objective."""
    return {
        spec.name: specs[spec.name]
        * (factor if spec.objective is Objective.MAXIMIZE else 1.0 / factor)
        for spec in space
    }


def deploy_targets(env, policy):
    """13 targets whose episodes end at different steps, one of them at step 1."""
    space = env.benchmark.spec_space
    sampled = space.sample_batch(np.random.default_rng(1), 4)
    records = deploy_policy(env, policy, sampled[0]).trajectory.records
    easy = _loosen(
        space,
        {
            spec.name: spec.minimum if spec.objective is Objective.MAXIMIZE else spec.maximum
            for spec in space
        },
        0.5,
    )
    targets = list(sampled)
    for fraction in (0.0, 0.25, 0.33, 0.8):
        step = int(fraction * (len(records) - 1))
        targets.append(_loosen(space, records[step].specs, 0.8))
    for alpha in (0.3, 0.45, 0.55, 0.6, 0.9):
        targets.append(
            {name: (1.0 - alpha) * sampled[0][name] + alpha * easy[name] for name in easy}
        )
    return targets


def deploy_digest(env_id, max_steps) -> str:
    """sha256 of a 13-target lock-step deployment at batch 8."""
    env = repro.make_env(env_id, seed=0)
    policy = repro.make_policy("gcn_fc", env, np.random.default_rng(0))
    targets = deploy_targets(env, policy)
    vector_env = VectorCircuitEnv.from_env(
        env, num_envs=BATCH_SIZE, cache_size=DEPLOY_CACHE_SIZE, autoreset=False
    )
    results = deploy_policy_batch(vector_env, policy, targets, max_steps=max_steps)
    digest = hashlib.sha256()
    _feed(digest, len(results))
    for result in results:
        _feed(digest, (result.target_specs, result.success, result.steps, result.final_specs))
        _feed_trajectory(digest, result.trajectory)
    _feed_cache(digest, vector_env.cache)
    return digest.hexdigest()


DEPLOY_GOLDENS = {
    "opamp-p2s-v0/None": (
        "8b52621112770a3e1a1281bf3310fa29e73f432277134008a8dcb041ccaf5cdf"
    ),
    "opamp-p2s-v0/12": (
        "8acd7fd3c616efd5a809185a2ee01fe138a61a2f398f1b7c677d0dddb610e7e2"
    ),
    "opamp-mna-v0/None": (
        "c1e553a237f56a4458a1833b366877806373ac576aedc9dcf1fed7b0e145f8ff"
    ),
    "opamp-mna-v0/12": (
        "55c68584ef9f56d1347dda121a08aa76e440762463d95779c997c4e6e1192bc9"
    ),
    "current_mirror_ota-p2s-v0/None": (
        "de2a8ad76f297530f5266120a37d52356d39ed86c7c17c8959a14e7bbb649e15"
    ),
    "current_mirror_ota-p2s-v0/12": (
        "c90504491217c2a34ab1a0a6a2920bf6e7965d0c1dbe585db8625556f7004de2"
    ),
    "common_source_lna-p2s-v0/None": (
        "b98a007cdbf83f4611d3428f6b8d3a4369f667df98bf99d75c2b93df625e08a3"
    ),
    "common_source_lna-p2s-v0/12": (
        "cdbee20dccc2723329379dcc7b35b6aac95a083b6ebcb9d75dead165df610636"
    ),
}


@pytest.mark.parametrize("max_steps", [None, 12])
@pytest.mark.parametrize("env_id", DEPLOY_ENV_IDS)
def test_deploy_golden(env_id, max_steps):
    assert deploy_digest(env_id, max_steps) == DEPLOY_GOLDENS[f"{env_id}/{max_steps}"]
