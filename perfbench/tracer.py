"""Outside-in span tracer: wraps functions at the names their callers resolve.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` (a module global or
a class attribute) with a wrapper that records one span per call: span
name, start, end and the enclosing span.  Spans are kept in flat arrays
while the run goes on; `spans()` hands them out as numpy arrays and
`totals()` folds them into calls, inclusive time and self time per span
name, where self time is a span's duration minus the time its direct
children cover.  Optional `on_return` hooks add to named counters at the
same boundary.  `restore()` (or leaving the `with` block) puts every
original attribute back.

The wrapper has to sit where the caller looks the name up: a module that
did `from x import f` holds its own binding of `f`, so wrapping `x.f`
alone would miss its calls.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Spans and counters recorded by wrapped functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Trace calls made through `owner.attr` as spans called `name`.

        `on_return(counters, args, kwargs, result)` runs after each call
        that returns normally.  `attr` must be defined on `owner` itself,
        not inherited, so that `restore` can put back exactly what was
        there.
        """
        original = vars(owner)[attr]
        fn = getattr(owner, attr)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends = (self._name_id, self._parent,
                                      self._start, self._end)
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_return is not None:
                on_return(counters, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self):
        """(name_ids, parent, start, end): parallel arrays, one entry per span.

        `self.names[name_ids[i]]` is the name of span `i` and `parent[i]`
        the index of the span that encloses it, or -1.
        """
        return (np.array(self._name_id, dtype=np.int64),
                np.array(self._parent, dtype=np.int64),
                np.array(self._start, dtype=np.float64),
                np.array(self._end, dtype=np.float64))

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        _, parent, start, end = self.spans()
        dur = end - start
        nested = parent >= 0
        return dur - np.bincount(parent[nested], weights=dur[nested],
                                 minlength=dur.size)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        ids, _, start, end = self.spans()
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        incl = np.bincount(ids, weights=end - start, minlength=width)
        own = np.bincount(ids, weights=self.self_times(), minlength=width)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}
