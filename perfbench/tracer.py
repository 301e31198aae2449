"""Span tracing of the simulator's public functions, from outside.

:func:`instrument` swaps chosen functions on the imported classes (and
the one module-level function the step pipeline calls) for timing
wrappers, and restores the originals on exit, so no file of the
simulator changes and an untraced pass runs the untouched code.

Every wrapped call becomes one span: name, start, end, parent span and
the engine step index current when it opened. Spans stay in memory and
are written out once, at the end, as Chrome trace-event JSON (Perfetto
and ``chrome://tracing`` open it as is). Per span name the tracer also
keeps call count, inclusive time and self time, where self time is the
span's duration minus the durations of its direct child spans.

Calls are single-threaded and strictly nested, so one stack of open
spans is enough to attribute children to parents.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


class Target(NamedTuple):
    """One function to time: ``owner.attr`` becomes span ``name``.

    ``after(result, args)`` runs after the span has closed to record what
    the call returned; its cost counts towards neither the span nor the
    parent's self time.
    ``opens_step`` marks the engine's step entry point: each call
    advances the step index stamped on later spans.
    """

    owner: Any
    attr: str
    name: str
    after: Callable[[Any, tuple], None] | None = None
    opens_step: bool = False


class Tracer:
    """In-memory span recorder with per-name call/inclusive/self totals."""

    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent_index, step_index)``;
        #: ``parent_index`` is -1 for a root span.
        self.spans: list[tuple[str, int, int, int, int]] = []
        #: name -> [calls, inclusive_ns, self_ns]
        self.totals: dict[str, list[int]] = {}
        self.step = -1
        self._open: list[int] = []
        self._child_ns: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        after = target.after
        opens_step = target.opens_step
        spans = self.spans
        open_spans = self._open
        child_ns = self._child_ns
        totals = self.totals.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            if opens_step:
                self.step += 1
            index = len(spans)
            spans.append(None)  # placeholder keeps parents before children
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                children = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                spans[index] = (name, start, end, parent, self.step)
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - children
            if after is not None:
                hook_start = clock()
                after(result, args)
                if child_ns:  # bookkeeping, not the parent's own work
                    child_ns[-1] += clock() - hook_start
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def write_chrome_trace(self, path: Path) -> int:
        """Write the spans as Chrome trace-event JSON; returns the count.

        Complete events (``"ph": "X"``) on one thread nest by time, which
        is how the viewers rebuild the call tree; the parent index and
        step index ride along in ``args``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0
        with path.open("w") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for index, (name, start, end, parent, step) in enumerate(self.spans):
                event = {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "args": {"id": index, "parent": parent, "step": step},
                }
                out.write(("" if index == 0 else ",\n") + json.dumps(event))
            out.write("\n]}\n")
        return len(self.spans)


@contextmanager
def instrument(tracer: Tracer, targets: Iterable[Target]):
    """Install timing wrappers for ``targets``; restore them on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            original = getattr(target.owner, target.attr)
            saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, tracer.wrap(target, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
