"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the index
of the enclosing span (-1 for none) and ``op`` the id of the operation it
belongs to. Spans stay in memory, one array per column, and are written
out once, at the end of a run. ``wrapped`` patches a module-level
function of the package with a recording shim for the length of a
``with`` block, so calls one layer makes into another are timed too,
without changing the package. ``paused`` stops recording spans, so the
benchmark's own checks, which call the package too, leave no spans.

Durations are scaled by the speed gauge the tracer was given (see
``gauge.py``): a span takes the factor of the gauge window it started in.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

import numpy as np


class _Span:
    __slots__ = ("_tracer", "_name", "_idx")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        tr = self._tracer
        self._idx = idx = len(tr.start)
        tr.name.append(tr.index(self._name))
        tr.parent.append(tr.stack[-1] if tr.stack else -1)
        tr.op_id.append(tr.op)
        tr.end.append(0)
        tr.stack.append(idx)
        tr.start.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc):
        tr = self._tracer
        tr.end[self._idx] = time.perf_counter_ns()
        tr.stack.pop()
        return False


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: ``span`` costs one call and records nothing."""

    op = -1

    def span(self, name):
        return _NO_SPAN

    def value(self, name, v):
        pass

    def paused(self):
        return _NO_SPAN


class Tracer:
    """Records spans column by column; set ``op`` to the current operation id.

    With a ``gauge``, durations and self times are speed-scaled.
    """

    def __init__(self, gauge=None):
        self.gauge = gauge
        self._paused = False
        self.names: list[str] = []
        self._ix: dict[str, int] = {}
        self.name, self.parent, self.op_id = array("i"), array("l"), array("l")
        self.start, self.end = array("q"), array("q")
        self.stack: list[int] = []
        self.values: dict[str, list] = {}
        self.op = -1

    def index(self, name: str) -> int:
        ix = self._ix.get(name)
        if ix is None:
            ix = self._ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def span(self, name):
        return _NO_SPAN if self._paused else _Span(self, name)

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block; ``value`` still records."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def value(self, name: str, v: float):
        """Record a count or size observed at a layer boundary."""
        self.values.setdefault(name, []).append(v)

    def __len__(self):
        return len(self.start)

    def _durations(self) -> np.ndarray:
        start = np.asarray(self.start, dtype=float)
        dur = np.asarray(self.end, dtype=float) - start
        return dur * self.gauge.factors_at(start) if self.gauge else dur

    def _mask(self, name: str) -> np.ndarray:
        if name not in self._ix:
            return np.zeros(len(self), dtype=bool)
        return np.asarray(self.name) == self._ix[name]

    def durations_ns(self, name: str) -> np.ndarray:
        return self._durations()[self._mask(name)]

    def last_child_durations_ns(self, name: str) -> np.ndarray:
        """Duration of the last ``name`` span inside each span that encloses one."""
        idx = np.flatnonzero(self._mask(name))
        parent = np.asarray(self.parent)[idx]
        idx, parent = idx[parent >= 0], parent[parent >= 0]
        # spans are numbered as they start, so the last child has the largest index
        _, first_from_end = np.unique(parent[::-1], return_index=True)
        return self._durations()[idx[::-1][first_from_end]]

    def self_times_ns(self, name: str) -> np.ndarray:
        """Duration of each ``name`` span minus the time its child spans cover.

        Spans nest strictly (a child ends before its parent), so the
        children of a span never overlap and their durations add up.
        """
        dur = self._durations()
        parent = np.asarray(self.parent)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(self))
        return (dur - child)[self._mask(name)]

    def dump(self, path):
        """Write the spans as compressed columns plus the name table and values.

        ``start_ns`` and ``end_ns`` are raw clock readings; ``scale`` is the
        speed factor of each span's duration.
        """
        start = np.asarray(self.start)
        scale = self.gauge.factors_at(start) if self.gauge else np.ones(len(start))
        np.savez_compressed(
            path, name=np.asarray(self.name), start_ns=start, scale=scale,
            end_ns=np.asarray(self.end), parent=np.asarray(self.parent),
            op=np.asarray(self.op_id), names=np.array(self.names),
            values=np.array(json.dumps(self.values)),
        )


@contextlib.contextmanager
def wrapped(tracer, targets):
    """Record a span for every call of each ``(module, attribute, span name)``.

    The span name may instead be a function of the call's arguments. A
    target whose attribute the module does not have is skipped. The
    original functions are restored on exit.
    """
    saved = []
    try:
        for module, attr, name in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue

            def shim(*args, _fn=fn, _name=name, **kwargs):
                label = _name(*args, **kwargs) if callable(_name) else _name
                with tracer.span(label):
                    return _fn(*args, **kwargs)

            saved.append((module, attr, fn))
            setattr(module, attr, functools.wraps(fn)(shim))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
