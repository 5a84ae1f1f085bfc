"""The compiled-execution subsystem must satisfy the invariant lint rules.

``repro.compile`` is the determinism-critical core of the compiled path —
plans are replayed thousands of times per episode, so a global-RNG call or
an unannotated exact float comparison there would be a reproducibility bug,
not a style nit.  Unlike the tree-wide check in ``tests/analysis``, this one
allows no baseline: the subsystem starts clean and stays clean.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_compile_subsystem_is_lint_clean(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    report = analyze_paths(["src/repro/compile"])
    assert report.errors == []
    # The whole subsystem was scanned.
    assert report.files == len(list((REPO_ROOT / "src/repro/compile").glob("*.py")))
    rendered = "\n".join(finding.render() for finding in report.findings)
    assert report.findings == [], f"repro.compile must stay lint-clean:\n{rendered}"
