"""Error types for the compiled-plan subsystem.

The contract of :mod:`repro.compile` is "degrades gracefully, never
wrongly": any configuration the tracer cannot prove it can replay
bitwise-identically raises :class:`UntraceableError` at *build* time, and
the caller (``VectorCircuitEnv``) falls back to the interpreted path.  Replay never guesses.
"""

from __future__ import annotations


class UntraceableError(RuntimeError):
    """Raised when an env configuration cannot be compiled faithfully.

    Carries a human-readable ``reason`` describing the first untraceable
    construct encountered (unsupported simulator, subclassed cache,
    sub-environments that disagree, ...).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
