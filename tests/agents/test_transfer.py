"""Tests for the coarse-to-fine transfer-learning workflow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.ppo import PPOConfig
from repro.agents.transfer import (
    TransferLearningWorkflow,
    reward_fidelity_report,
)
from repro import make_env, make_policy
from repro.simulation.base import CircuitSimulator


class TestRewardFidelity:
    def test_report_statistics(self, rf_pa_coarse_env, rf_pa_env):
        report = reward_fidelity_report(rf_pa_coarse_env, rf_pa_env, num_samples=40, seed=0)
        assert report.num_samples == 40
        assert report.mean_abs_error >= 0.0
        assert report.p90_abs_error >= report.mean_abs_error * 0.1
        assert report.max_abs_error >= report.p90_abs_error

    def test_coarse_rewards_track_fine_rewards(self, rf_pa_coarse_env, rf_pa_env):
        """The paper's ±10% claim: mean relative reward error stays moderate."""
        report = reward_fidelity_report(rf_pa_coarse_env, rf_pa_env, num_samples=80, seed=1)
        assert report.mean_abs_relative_error < 0.25

    @pytest.mark.parametrize("broken", ["missing", "nan"])
    def test_a_result_without_a_usable_spec_scores_minus_one(self, rf_pa_env, broken):
        """The coarse side loses one spec: it scores the reward's -1.0 for it."""
        spec = rf_pa_env.benchmark.spec_space.names[0]
        coarse = make_env("rf_pa-fine-v0", seed=0)
        coarse.simulator = _BrokenSpec(coarse.simulator, spec, broken)
        report = reward_fidelity_report(coarse, rf_pa_env, num_samples=12, seed=0)
        netlist = rf_pa_env.benchmark.fresh_netlist()
        rng = np.random.default_rng(0)
        errors = []
        for _ in range(12):
            rf_pa_env.benchmark.design_space.apply_to_netlist(
                netlist, rf_pa_env.benchmark.design_space.sample(rng)
            )
            target = rf_pa_env.benchmark.spec_space.sample(rng)
            measured = rf_pa_env.simulator.simulate(netlist).specs
            space = rf_pa_env.benchmark.spec_space
            errors.append(abs(-1.0 - space.normalized_errors(measured, target)[0]))
        assert report.max_abs_error == pytest.approx(max(errors), abs=1e-12)
        assert report.mean_abs_error == pytest.approx(np.mean(errors), abs=1e-12)

    def test_mismatched_circuits_rejected(self, rf_pa_env):
        opamp_env = make_env("opamp-p2s-v0", seed=0)
        with pytest.raises(ValueError):
            reward_fidelity_report(opamp_env, rf_pa_env, num_samples=5)


class TestWorkflow:
    def test_workflow_requires_matching_benchmarks(self, rf_pa_coarse_env):
        opamp_env = make_env("opamp-p2s-v0", seed=0)
        policy = make_policy("gcn_fc", rf_pa_coarse_env, np.random.default_rng(0))
        with pytest.raises(ValueError):
            TransferLearningWorkflow(rf_pa_coarse_env, opamp_env, policy)

    def test_coarse_train_fine_deploy_smoke(self):
        coarse = make_env("rf_pa-coarse-v0", seed=0, max_steps=6)
        fine = make_env("rf_pa-fine-v0", seed=0, max_steps=6)
        policy = make_policy("gcn_fc", coarse, np.random.default_rng(0))
        workflow = TransferLearningWorkflow(
            coarse, fine, policy,
            config=PPOConfig(minibatch_size=16, update_epochs=1),
            seed=0,
        )
        result = workflow.run(coarse_episodes=4, episodes_per_update=4, eval_targets=3)
        assert 0.0 <= result.coarse_accuracy <= 1.0
        assert 0.0 <= result.fine_accuracy <= 1.0
        assert result.fine_evaluation.num_targets == 3
        assert result.coarse_history.records
        assert result.fine_tune_history is None

    def test_fine_tuning_phase_runs_when_requested(self):
        coarse = make_env("rf_pa-coarse-v0", seed=1, max_steps=5)
        fine = make_env("rf_pa-fine-v0", seed=1, max_steps=5)
        policy = make_policy("gcn_fc", coarse, np.random.default_rng(1))
        workflow = TransferLearningWorkflow(
            coarse, fine, policy, config=PPOConfig(minibatch_size=16, update_epochs=1), seed=1
        )
        result = workflow.run(
            coarse_episodes=2, fine_tune_episodes=2, episodes_per_update=2, eval_targets=2
        )
        assert result.fine_tune_history is not None
        assert result.fine_tune_history.records


class _BrokenSpec(CircuitSimulator):
    """Wraps a simulator; one spec is left out of, or NaN in, every result."""

    name = "broken_spec"

    def __init__(self, simulator, spec, broken):
        self._simulator = simulator
        self._spec = spec
        self._broken = broken

    def simulate_rows(self, layout, rows):
        results = self._simulator.simulate_rows(layout, rows)
        for result in results:
            if self._broken == "missing":
                del result.specs[self._spec]
            else:
                result.specs[self._spec] = float("nan")
        return results
