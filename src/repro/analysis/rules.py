"""The project-specific rule catalog for the invariant lint engine.

Each rule is a small visitor over the shared :class:`~repro.analysis.engine.
ModuleContext` with an ID, a one-paragraph rationale (rendered by
``analyze --rules`` and mirrored in ``docs/analysis-rules.md``), and a fix
hint.  The IDs are stable — suppressions and baselines reference them — so
rules are retired, never renumbered.

Determinism-critical code (cache keys, simulation, checkpoint bytes) is
identified by module path: everything under ``simulation/``, ``parallel/``,
``surrogate/``, ``circuits/``, ``graph/``, ``nn/``, ``env/``, plus the
checkpoint and artifact-store modules.  Serving/metrics code is *not* in
that set: wall-clock reads are legitimate there, and ``monotonic``/
``perf_counter`` are legitimate everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding, ModuleContext, _self_attr

#: Module-path fragments marking determinism-critical code (cache keys,
#: simulation results, checkpoint/artifact bytes must be pure functions of
#: their inputs — never of when they ran).
DETERMINISM_CRITICAL = (
    "/simulation/",
    "/parallel/",
    "/surrogate/",
    "/circuits/",
    "/graph/",
    "/nn/",
    "/env/",
    "checkpoint",
    "/orchestrate/units",
    "/orchestrate/store",
    "cache",
)

#: The one module allowed to touch the global RNGs (``seed_everything``).
SEEDING_ALLOWLIST = ("api/seeding.py",)

#: numpy.random module-level functions that read or mutate the hidden
#: global RandomState (the legacy API `default_rng` replaced).
NUMPY_GLOBAL_RNG = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "random_integers", "uniform", "normal", "standard_normal",
    "choice", "shuffle", "permutation", "bytes", "beta", "binomial",
    "chisquare", "dirichlet", "exponential", "f", "gamma", "geometric",
    "get_state", "set_state", "gumbel", "hypergeometric", "laplace",
    "logistic", "lognormal", "logseries", "multinomial",
    "multivariate_normal", "negative_binomial", "noncentral_chisquare",
    "noncentral_f", "pareto", "poisson", "power", "rayleigh",
    "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_t", "triangular", "vonmises", "wald", "weibull", "zipf",
}

#: stdlib ``random`` module-level functions (all drive one hidden global
#: ``Random`` instance; ``random.Random(seed)`` instances are fine).
STDLIB_GLOBAL_RNG = {
    "seed", "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "gammavariate", "lognormvariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "getrandbits",
    "getstate", "setstate", "randbytes", "binomialvariate",
}

#: Wall-clock reads that leak "when it ran" into whatever consumes them.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

def is_determinism_critical(path: str) -> bool:
    posix = "/" + path.replace("\\", "/")
    return any(fragment in posix for fragment in DETERMINISM_CRITICAL)


def is_seeding_allowlisted(path: str) -> bool:
    posix = path.replace("\\", "/")
    return any(posix.endswith(entry) for entry in SEEDING_ALLOWLIST)


class Rule:
    """Base: one invariant, one stable ID, one fix hint."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    hint: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint,
            source_line=ctx.line_text(line),
        )


class GlobalRngRule(Rule):
    """REP-DET01 — no global-RNG calls outside the seeding module."""

    rule_id = "REP-DET01"
    title = "global RNG call outside the allowlisted seeding module"
    rationale = (
        "Bitwise reproducibility rests on every random draw flowing from an "
        "explicit, threadable np.random.Generator (default_rng/SeedSequence). "
        "Module-level np.random.* and random.* calls mutate hidden global "
        "state shared across the whole process, so one stray call reorders "
        "every stream after it — across optimizers, vector envs, and worker "
        "processes.  The only place allowed to touch the globals is "
        "seed_everything in repro/api/seeding.py."
    )
    hint = (
        "thread an np.random.default_rng(seed) / SeedSequence-spawned "
        "Generator through instead; global seeding belongs only in "
        "repro.api.seeding"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if is_seeding_allowlisted(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if (
                len(parts) >= 2
                and ".".join(parts[:-1]) == "numpy.random"
                and parts[-1] in NUMPY_GLOBAL_RNG
            ):
                yield self.finding(
                    ctx, node, f"call to the numpy global RNG ({name})"
                )
            elif (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in STDLIB_GLOBAL_RNG
            ):
                yield self.finding(
                    ctx, node, f"call to the stdlib global RNG ({name})"
                )


class WallClockRule(Rule):
    """REP-DET02 — no wall-clock reads in determinism-critical code."""

    rule_id = "REP-DET02"
    title = "wall-clock read in determinism-critical code"
    rationale = (
        "Cache keys, simulation results, and checkpoint bytes must be pure "
        "functions of their inputs: a time.time()/datetime.now() value woven "
        "into any of them makes two identical runs produce different "
        "artifacts, silently breaking the content-addressed store, the "
        "quantized simulation-cache keys, and bitwise checkpoint round-trip "
        "guarantees.  Interval timing belongs to time.monotonic()/"
        "perf_counter(), which are fine everywhere; wall-clock timestamps "
        "are fine only outside the determinism-critical module set."
    )
    hint = (
        "use time.monotonic()/time.perf_counter() for durations; if a real "
        "timestamp is required, take it outside the critical path and pass "
        "it in as data"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not is_determinism_critical(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name is None:
                continue
            # `from datetime import datetime` resolves to datetime.datetime,
            # so both spellings land on the qualified forms listed above.
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {name}() in determinism-critical code",
                )


class LockDisciplineRule(Rule):
    """REP-LOCK01 — writes to lock-guarded attributes must hold the lock."""

    rule_id = "REP-LOCK01"
    title = "write to a lock-guarded attribute outside `with self._lock`"
    rationale = (
        "In a class owning a threading.Lock/RLock/Condition, the attributes "
        "it writes under `with self._lock` are its shared mutable state.  A "
        "write to any of them outside the lock is a data race against every "
        "locked reader/writer — exactly the pre-gateway ServeStats bug where "
        "the per-env tier-delta fold mutated shared counters outside the env "
        "lock and concurrent serve() calls double-counted.  __init__ is "
        "exempt: the instance is not shared yet."
    )
    hint = (
        "move the write inside `with self.<lock>:`, or annotate with "
        "`# repro: noqa[REP-LOCK01] <which caller holds the lock>` when the "
        "lock is provably held up-stack"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for info in ctx.classes:
            if not info.lock_attrs or not info.guarded_attrs:
                continue
            yield from self._check_class(ctx, info)

    def _check_class(self, ctx: ModuleContext, info) -> Iterator[Finding]:
        rule = self

        class Walker(ast.NodeVisitor):
            def __init__(self) -> None:
                self.lock_depth = 0
                self.method: List[str] = []
                self.out: List[Tuple[ast.AST, str]] = []

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                if node is not info.node:
                    return  # nested classes get their own ClassLockInfo
                self.generic_visit(node)

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self.method.append(node.name)
                self.generic_visit(node)
                self.method.pop()

            visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

            def visit_With(self, node: ast.With) -> None:
                locked = any(
                    _self_attr(item.context_expr) in info.lock_attrs
                    for item in node.items
                )
                if locked:
                    self.lock_depth += 1
                self.generic_visit(node)
                if locked:
                    self.lock_depth -= 1

            def _note(self, target: ast.AST) -> None:
                if self.lock_depth > 0 or (self.method and self.method[0] == "__init__"):
                    return
                attr = _self_attr(target)
                if attr in info.guarded_attrs:
                    self.out.append((target, attr))

            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    self._note(target)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                self._note(node.target)
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                if node.value is not None:
                    self._note(node.target)
                self.generic_visit(node)

        walker = Walker()
        walker.visit(info.node)
        locks = ", ".join(sorted(info.lock_attrs))
        for node, attr in walker.out:
            yield rule.finding(
                ctx,
                node,
                f"{info.name}.{attr} is written under `with self.{locks}` "
                f"elsewhere but mutated here without the lock",
            )


class AtomicWriteRule(Rule):
    """REP-IO01 — on-disk artifacts are published atomically."""

    rule_id = "REP-IO01"
    title = "raw file write instead of the atomic write-then-replace helper"
    rationale = (
        "Checkpoints, simulation-corpus entries, artifact-store records, and "
        "stats documents are read concurrently by cache workers, resumed "
        "sweeps, and serving shards.  A raw open(path, 'w') exposes a torn, "
        "half-written file to those readers; every artifact write must go "
        "through repro.utils.atomic_write_json/atomic_write_text (write to a "
        "scratch file, publish with os.replace).  Functions that implement "
        "the scratch-then-os.replace pattern themselves are recognized and "
        "exempt."
    )
    hint = (
        "use repro.utils.atomic_write_json/atomic_write_text, or write to a "
        "scratch path and publish it with os.replace in the same function"
    )

    WRITE_MODE_CHARS = ("w", "a", "x", "+")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, in_atomic=False)

    def _walk(self, ctx: ModuleContext, node: ast.AST, in_atomic: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_atomic = in_atomic
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_atomic = in_atomic or id(child) in ctx.atomic_functions
            if isinstance(child, ast.Call) and not child_atomic:
                finding = self._check_call(ctx, child)
                if finding is not None:
                    yield finding
            yield from self._walk(ctx, child, child_atomic)

    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Optional[Finding]:
        name = ctx.resolve(node.func)
        if name in ("open", "io.open"):
            mode = self._mode_literal(node)
            if mode is not None and any(c in mode for c in self.WRITE_MODE_CHARS):
                return self.finding(
                    ctx, node, f"raw open(..., {mode!r}) publishes a torn file to readers"
                )
            return None
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "write_text",
            "write_bytes",
        ):
            return self.finding(
                ctx, node, f"raw Path.{node.func.attr}() publishes a torn file to readers"
            )
        return None

    @staticmethod
    def _mode_literal(node: ast.Call) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                value = keyword.value.value
                return value if isinstance(value, str) else None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            value = node.args[1].value
            return value if isinstance(value, str) else None
        return None


class FloatEqualityRule(Rule):
    """REP-FLT01 — no ==/!= against float literals without a sentinel note."""

    rule_id = "REP-FLT01"
    title = "equality comparison against a float literal"
    rationale = (
        "Almost every float that *looks* like 0.1 or 1e-12 is not exactly "
        "that value, so ==/!= against a float literal is usually a latent "
        "always-false (or flakily-true) branch — the cache-key quantizer's "
        "pre-rewrite splitting of 9.99999999999995e-13 vs 1e-12 is the house "
        "example.  The legitimate cases are exact sentinels (a value that is "
        "*assigned* 0.0 and compared to 0.0 unchanged); those must carry a "
        "`# repro: noqa[REP-FLT01] <why exact>` annotation so every exact "
        "comparison in the tree is a documented decision."
    )
    hint = (
        "compare with a tolerance (math.isclose / np.isclose / abs(a-b) < "
        "eps), or annotate the exact-sentinel comparison with "
        "`# repro: noqa[REP-FLT01] reason`"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[index], operands[index + 1]):
                    if isinstance(side, ast.Constant) and isinstance(side.value, float):
                        symbol = "==" if isinstance(op, ast.Eq) else "!="
                        yield self.finding(
                            ctx,
                            node,
                            f"exact {symbol} against float literal {side.value!r}",
                        )
                        break


#: The shipped rule set, in catalog order.
ALL_RULES = [
    GlobalRngRule(),
    WallClockRule(),
    LockDisciplineRule(),
    AtomicWriteRule(),
    FloatEqualityRule(),
]

RULES_BY_ID = {rule.rule_id: rule for rule in ALL_RULES}
