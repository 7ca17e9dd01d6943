"""In-memory spans around the benchmark's calls into piglm.

A span holds its name, start, end, parent span, operation id and a few
attributes (a case tag, iteration counts). Spans stay in memory and are
written out once, when the run ends. With tracing off, ``span`` hands out a
throwaway record and keeps nothing, so the timed code is the same in both
modes.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.op = None          # id of the operation now running
        self.op_kinds = []      # kind of each operation, by id

    def begin_op(self, kind):
        self.op_kinds.append(kind)
        self.op = len(self.op_kinds) - 1

    def end_op(self):
        self.op = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield Span(name, 0.0, None, None, attrs)
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, 0.0, parent, self.op, attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        return [sp.duration - c for sp, c in zip(self.spans, child)]

    def select(self, name, skip_ops=(), **attrs):
        """Spans called ``name`` whose attributes match, outside ops of the skipped kinds."""
        return [sp for sp in self.spans if sp.name == name
                and (sp.op is None or self.op_kinds[sp.op] not in skip_ops)
                and all(sp.attrs.get(k) == v for k, v in attrs.items())]

    def median(self, name, scale=1.0, value=None, skip_ops=(), **attrs):
        """Median duration (or attribute ``value``) of the matching spans; 0 if none."""
        spans = self.select(name, skip_ops, **attrs)
        if not spans:
            return 0.0
        vals = [sp.duration if value is None else sp.attrs[value] for sp in spans]
        return statistics.median(vals) * scale

    def write(self, path):
        rows = [{"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
                 "op": sp.op, "attrs": sp.attrs} for sp in self.spans]
        with open(path, "w") as fh:
            json.dump({"op_kinds": self.op_kinds, "spans": rows}, fh, default=float)
