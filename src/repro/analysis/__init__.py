"""repro.analysis — the project-specific invariant lint engine.

Static half (:mod:`repro.analysis.engine` + :mod:`repro.analysis.rules`):
an AST lint engine whose rules encode the invariants this platform actually
depends on — seeded-RNG-only determinism (REP-DET01), no wall-clock in
determinism-critical code (REP-DET02), lock discipline on thread-shared
serve state (REP-LOCK01), atomic artifact publication (REP-IO01), and no
unannotated float-literal equality (REP-FLT01).  Run it with::

    python -m repro.run analyze src/

Dynamic half (:mod:`repro.analysis.runtime`): :class:`LockAudit`, a
test-time sanitizer that instruments a live object and records every access
to its lock-guarded attributes made with the lock unheld — the concurrency
test suites double as a race detector.

See ``docs/analysis-rules.md`` for the rule catalog and the suppression /
baseline workflow.
"""

from repro.analysis.engine import (
    DEFAULT_BASELINE,
    Finding,
    Report,
    analyze_paths,
    analyze_source,
    baseline_document,
    load_baseline,
    split_baseline,
)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID
from repro.analysis.runtime import LockAudit, LockAuditError, LockViolation

__all__ = [
    "ALL_RULES",
    "DEFAULT_BASELINE",
    "Finding",
    "LockAudit",
    "LockAuditError",
    "LockViolation",
    "Report",
    "RULES_BY_ID",
    "analyze_paths",
    "analyze_source",
    "baseline_document",
    "load_baseline",
    "split_baseline",
]
