"""In-memory spans for the benchmark's traced run.

A span is a name, a start, an end, a parent span and the thread that
opened it. Spans are recorded from the benchmark's own code: around
the calls it makes into each layer, and, for the layer entry points
that the program calls internally (``RadioNetwork(...)``,
``ReportStore.get``/``put``, the corpus store), through wrappers that
:meth:`Tracer.instrument` installs on those classes for the duration
of the traced run and removes afterwards.

Untraced runs use :data:`NULL_TRACER`, whose ``span`` is a shared
no-op context manager, so the measured loop carries no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import pathlib
import threading
import time
from collections import defaultdict
from typing import Any, Iterator


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    enabled = False
    spans: list[dict[str, Any]] = []

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


class Tracer:
    """Collect spans from every thread of the process.

    A span opened on a thread with no open span of its own (the
    service's event loop, a campaign worker thread) takes the main
    thread's innermost open span as its parent, so service-side work
    nests under the client call that caused it.

    No lock is taken on the recording path: ids come from an
    ``itertools.count`` and spans are appended to a list, both atomic
    under the interpreter lock. A lock here could be inherited held by
    a pool worker forked while another thread recorded a span.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def _wrap(self, func: Any, name: str) -> Any:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def instrument(
        self, targets: list[tuple[type, str, str]]
    ) -> Iterator["Tracer"]:
        """Wrap ``(class, method, span name)`` targets for the block."""
        originals = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- reading ------------------------------------------------------

    def closed(self) -> list[dict[str, Any]]:
        """Every finished span."""
        return [s for s in self.spans if s["end"] is not None]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds.

        Self time is a span's duration minus the part of its interval
        that its children cover (children on other threads may overlap
        each other, so their intervals are merged first).
        """
        spans = self.closed()
        children: dict[int, list[dict[str, Any]]] = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            duration = s["end"] - s["start"]
            covered = _covered(
                [
                    (max(c["start"], s["start"]), min(c["end"], s["end"]))
                    for c in children.get(s["id"], ())
                ]
            )
            row = out.setdefault(
                s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered
        return out

    def write(self, path: pathlib.Path) -> None:
        """Write every span and the per-name summary as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"spans": self.closed(), "summary": self.summary()},
                indent=1,
            )
            + "\n"
        )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
