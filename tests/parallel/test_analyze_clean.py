"""``repro.parallel`` must satisfy the invariant lint rules, with no baseline.

The vector step, the simulation caches and their keys are the
determinism-critical core of every rollout — a global-RNG call or an
unannotated exact float comparison there would be a reproducibility bug, not
a style nit.  Unlike the tree-wide check in ``tests/analysis``, this one
allows no baseline: the package is clean and stays clean.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_parallel_package_is_lint_clean(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    report = analyze_paths(["src/repro/parallel"])
    assert report.errors == []
    # The whole package was scanned.
    assert report.files == len(list((REPO_ROOT / "src/repro/parallel").glob("*.py")))
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.findings == [], f"repro.parallel must stay lint-clean:\n{rendered}"
