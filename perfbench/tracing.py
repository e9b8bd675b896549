"""In-memory spans for the traced benchmark run.

A span has a name, start and end times, the index of its parent span, and
the workload and pass it belongs to.  Spans come from two places, both in
the benchmark's own files: the benchmark opens one around each job it runs,
and, during traced passes only, wrappers installed over public functions of
the qetsim layers open one around each call, including calls one layer makes
into another (``cli`` into ``field``, ``ising.build`` into
``chain.normalize``).  Untraced passes run the unpatched functions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from functools import cached_property


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    pass_index: int


class Tracer:
    """Collects spans; ``enabled`` is false during untraced passes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.enabled = False
        self.pass_index = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.workload, self.pass_index))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, func, name_of):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return func(*args, **kwargs)
        return traced

    def patch(self, owner, attr: str, name_of) -> None:
        """Replace ``owner.attr`` by a wrapper that opens a span per call.

        ``name_of`` maps the call's arguments to the span name.  A
        ``cached_property`` is wrapped in a new ``cached_property``.
        """
        original = owner.__dict__[attr]
        if isinstance(original, cached_property):
            replacement = cached_property(self._wrap(original.func, name_of))
            replacement.__set_name__(owner, attr)
        else:
            replacement = self._wrap(original, name_of)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced_pass(self, pass_index: int, install):
        """Run one pass with spans on and the layer wrappers installed."""
        self.enabled = True
        self.pass_index = pass_index
        install(self)
        try:
            yield
        finally:
            self.unpatch_all()
            self.enabled = False

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def per_pass(self) -> dict[str, list[tuple[float, float, int]]]:
        """Per span name, one (inclusive s, self s, calls) total per pass."""
        passes = sorted({s.pass_index for s in self.spans})
        slot = {p: i for i, p in enumerate(passes)}
        totals: dict[str, list[list[float]]] = {}
        for s, own in zip(self.spans, self.self_times()):
            rows = totals.setdefault(s.name, [[0.0, 0.0, 0] for _ in passes])
            row = rows[slot[s.pass_index]]
            row[0] += s.end - s.start
            row[1] += own
            row[2] += 1
        return {name: [tuple(r) for r in rows] for name, rows in totals.items()}

    def write(self, path) -> None:
        own = self.self_times()
        records = [{"name": s.name, "start": s.start, "end": s.end,
                    "self": o, "parent": s.parent, "workload": s.workload,
                    "pass": s.pass_index} for s, o in zip(self.spans, own)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)
