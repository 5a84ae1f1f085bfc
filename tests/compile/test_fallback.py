"""Degrades gracefully, never wrongly: untraceable configs and runtime guards.

``compile=True`` is a pure throughput knob — a configuration the tracer
does not understand must silently fall back to the interpreted path (with
an inspectable reason), and a compiled plan must hand back any step its
preconditions cannot vouch for.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.env.reward import P2SReward
from repro.parallel import VectorCircuitEnv
from repro.simulation.opamp_sim import OpAmpSimulator


def _vector(env_id, num_envs=2, compile=True, **kwargs):
    template = repro.make_env(env_id, seed=None, **kwargs)
    return VectorCircuitEnv.from_env(
        template, num_envs=num_envs, seed=0, compile=compile
    )


class TestUntraceableConfigurations:
    @pytest.mark.parametrize("env_id", ["folded_cascode-p2s-v0", "common_source_lna-p2s-v0"])
    def test_zoo_simulators_fall_back_to_interpreted(self, env_id):
        """No kernel exists for the zoo simulators: negative entry + fallback."""
        compiled = _vector(env_id, compile=True)
        interpreted = _vector(env_id, compile=False)
        batch_c = compiled.reset()
        batch_i = interpreted.reset()
        actions = np.zeros((2, compiled.num_parameters), dtype=np.int64)
        for _ in range(3):
            batch_c, rewards_c, dones_c, _ = compiled.step(actions)
            batch_i, rewards_i, dones_i, _ = interpreted.step(actions)
            assert np.asarray(rewards_c).tobytes() == np.asarray(rewards_i).tobytes()
            assert np.array_equal(dones_c, dones_i)
            assert batch_c.spec_features.tobytes() == batch_i.spec_features.tobytes()
        assert compiled.compiled_plan is None
        reason = compiled.compiled_fallback_reason
        assert reason is not None and "kernel" in reason
        stats = compiled.plan_cache.stats
        assert stats.failures == 1  # the failed trace is cached, not repeated
        assert stats.misses == 1

    def _assert_falls_back(self, simulator, type_name):
        """``simulator`` runs interpreted, with the reason naming its type."""
        template = repro.make_env("opamp-p2s-v0", seed=None)
        template.simulator = simulator
        compiled = VectorCircuitEnv.from_env(template, num_envs=2, seed=0, compile=True)
        interpreted = VectorCircuitEnv.from_env(template, num_envs=2, seed=0, compile=False)
        compiled.reset()
        interpreted.reset()
        actions = np.ones((2, compiled.num_parameters), dtype=np.int64)
        for _ in range(2):
            _, rewards_c, _, _ = compiled.step(actions)
            _, rewards_i, _, _ = interpreted.step(actions)
            assert np.asarray(rewards_c).tobytes() == np.asarray(rewards_i).tobytes()
        assert compiled.compiled_plan is None
        assert compiled.compiled_fallback_reason == (
            f"no compiled kernel for simulator type {type_name}"
        )

    def test_unknown_simulator_type_falls_back(self):
        class OtherSimulator:
            name = "other"

            def __init__(self):
                self._inner = OpAmpSimulator()

            def simulate(self, netlist):
                return self._inner.simulate(netlist)

        self._assert_falls_back(OtherSimulator(), "OtherSimulator")

    def test_subclassed_simulator_is_rejected(self):
        """An override could change the arithmetic; exact types only."""

        class TweakedOpAmp(OpAmpSimulator):
            pass

        self._assert_falls_back(TweakedOpAmp(), "TweakedOpAmp")

    def test_interpreted_env_has_no_plan_state(self):
        env = _vector("opamp-p2s-v0", compile=False)
        env.reset()
        assert env.compiled_plan is None
        assert env.compiled_fallback_reason is None


class TestRuntimeGuards:
    def test_out_of_range_actions_fall_back(self):
        env = _vector("opamp-p2s-v0")
        env.reset()
        good = np.ones((2, env.num_parameters), dtype=np.int64)
        env.step(good)
        plan = env.compiled_plan
        assert plan is not None and plan.steps_compiled == 1
        bad = good.copy()
        bad[0, 0] = 7  # not a valid decrease/keep/increase index
        reference = _vector("opamp-p2s-v0", compile=False)
        reference.reset()
        reference.step(good)
        # The compiled plan hands the step to the interpreted path, which
        # raises exactly as it would have without compilation.
        with pytest.raises(ValueError) as compiled_error:
            env.step(bad)
        with pytest.raises(ValueError) as interpreted_error:
            reference.step(bad)
        assert str(compiled_error.value) == str(interpreted_error.value)
        assert plan.fallback_steps == 1
        assert plan.last_fallback_reason == "action index out of range"

    def test_wrong_shape_still_raises(self):
        env = _vector("opamp-p2s-v0")
        env.reset()
        with pytest.raises(ValueError):
            env.step(np.ones(env.num_parameters, dtype=np.int64))


class TestConfigInvalidation:
    def test_swapping_the_reward_fn_rebuilds_the_plan(self):
        env = _vector("opamp-p2s-v0")
        env.reset()
        actions = np.ones((2, env.num_parameters), dtype=np.int64)
        env.step(actions)
        stats = env.plan_cache.stats
        assert (stats.misses, stats.invalidations) == (1, 0)
        # Mutate the live configuration: swap in a fresh (equal but
        # distinct) shared reward function, so the identity snapshot drifts.
        new_reward = P2SReward(env.benchmark.spec_space)
        for sub_env in env.envs:
            sub_env.reward_fn = new_reward
        env.step(actions)
        stats = env.plan_cache.stats
        assert stats.invalidations == 1
        assert stats.misses == 2  # rebuilt against the new snapshot
        assert env.compiled_plan is not None
