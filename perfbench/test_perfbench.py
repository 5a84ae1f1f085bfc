"""Tests for the benchmark itself (run with ``python -m pytest perfbench``).

Each workload runs at a tiny size, untraced and traced; the printed metric
and workload names must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, seed):
    return workloads.WORKLOADS[name](seed, tiny=True)


#: A per-layer metric each traced workload must move off zero.
EXERCISED = {
    "train-mna": ["agents.ppo.update_s", "agents.policy.evaluate_actions_calls",
                  "nn.tensor.backward_s", "parallel.vector_env.step_s"],
    "serve-opamp": ["agents.policy.select_action_batch_s", "serve.service.serve_s",
                    "parallel.cache.hit_rate", "serve.gateway.mean_coalesce"],
    "size-mna": ["simulation.simulate_s", "simulation.mna.ac_analysis_calls",
                 "baselines.ga.search_s", "baselines.bo.search_s"],
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert set(names("workloads")) == set(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    assert all(UNIT.match(entry["unit"]) for entry in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name):
    record, result = run.execute(tiny(name, 3), seconds=0.0, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert record["workload"] == name and record["error_rate"] == 0.0
    assert len(record["digest"]) == 64
    if name == "train-mna":
        # One latency per collect + update cycle, two cycles per session.
        assert record["latency_samples"] == 2 * record["sessions"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    record, result = run.execute(tiny(name, 4), seconds=0.0, trace=True)
    assert result["correct"]
    assert list(result["metrics"]) == names("per_layer")
    for metric in EXERCISED[name]:
        assert result["metrics"][metric]["value"] > 0, metric
    assert result["metrics"]["compile.fallback_steps"]["value"] == 0
    assert 0 < result["metrics"]["trace.overhead_pct"]["value"] < 100
    assert record["layers"] and (HERE.parent / record["spans_file"]).is_file()
    # The wrappers are gone once the run ends.
    from repro.agents.ppo import PPOTrainer
    from repro.api.optimizers import GeneticOptimizer

    assert not hasattr(PPOTrainer.update, "__wrapped__")
    assert "optimize" not in GeneticOptimizer.__dict__


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_reproduces_digest_and_deterministic_metrics(name):
    first, _ = run.execute(tiny(name, 5), seconds=0.0, trace=False)
    second, _ = run.execute(tiny(name, 5), seconds=0.0, trace=False)
    keys = ["digest", "train_final_reward", "ga_sims_to_success", "bo_sims_to_success",
            "size_success_rate"]
    assert {k: first.get(k) for k in keys} == {k: second.get(k) for k in keys}


def test_failed_check_counts_into_error_rate():
    workload = tiny("size-mna", 6)
    workload.checks = lambda: [("forced failure", False)]
    record, result = run.execute(workload, seconds=0.0, trace=False)
    assert not result["correct"] and result["failed"] == 1
    assert record["error_rate"] > 0 and record["failed_checks"] == ["forced failure"]


def test_command_without_the_program_fails_without_a_result():
    bare = workloads.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "size-mna", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
