"""Span tracing around the program's public calls, installed from outside.

A :class:`Tracer` replaces a public method on its class with a wrapper that
records one span per call: ``(span_id, name, start, end, parent_id)``.  The
parent is the innermost span open on the same thread, so a layer's self time
is its duration minus the time its direct children cover.  Nothing inside
``src/`` is instrumented; the wrappers exist only while a traced run has them
installed and :meth:`Tracer.uninstall` puts the original methods back.

A call that re-enters the layer it is already in (``act_batch`` calls itself
once under ``inference_mode``) records no second span, so a layer's total is
never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import timeit
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int]]


class Tracer:
    """In-memory span recorder for wrapped methods."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[type, str, Optional[object]]] = []

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: type, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return original(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent))

        # An inherited method is wrapped on ``owner`` alone (two optimizers
        # share one ``optimize``), and removed again on uninstall.
        own = owner.__dict__.get(attribute)
        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, own))

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for owner, attribute, own in reversed(self._installed):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Reading spans
    # ------------------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over the recorded spans."""
        covered: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, _ in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[span_id]
        return table

    def outermost(self, names: Iterable[str]) -> Tuple[int, float]:
        """Calls and seconds of ``names`` spans not nested in another of ``names``."""
        names = set(names)
        by_id = {span[0]: span for span in self.spans}
        calls, seconds = 0, 0.0
        for _, name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent is not None and parent in by_id and by_id[parent][1] not in names:
                parent = by_id[parent][4]
            if parent is None or parent not in by_id:
                calls += 1
                seconds += end - start
        return calls, seconds

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (start/end relative to the first)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")


def wrapper_cost_s() -> float:
    """Seconds a span wrapper adds to one call, timed on a no-op method."""
    calls = 20_000

    class Probe:
        def noop(self) -> None:
            return None

    probe = Probe()
    bare = min(timeit.repeat(probe.noop, number=calls, repeat=5))
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe")
    wrapped = min(timeit.repeat(probe.noop, number=calls, repeat=5))
    return max(wrapped - bare, 0.0) / calls
