"""Span tracing from outside the program.

The tracer replaces public functions by wrappers that record one span per
call: name, start, end, parent span and run id. Each function is replaced
under the name its caller looks up at call time, for example
``gram.training.ce_encode`` (imported into ``training``) or
``gram.autodiff.matmul`` (called as ``ad.matmul`` through the module).
Spans stay in memory until ``save``; ``restore`` puts the originals back.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(parent, duration):
    """Per-span self time: each span's duration minus its direct children's.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=np.int64)
    children = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    return duration - children


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.run_id = 0
        self._stack: list[int] = []
        self._patches = Patches()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, owner, attr: str, name: str, alt=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``alt`` is an optional ``(predicate, other_name)``: calls made while
        ``predicate()`` is true are recorded under ``other_name`` instead.
        """
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        if alt is None:
            def traced(*args, **kwargs):
                sid = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(sid)
        else:
            predicate, other = alt[0], self.name_id(alt[1])

            def traced(*args, **kwargs):
                sid = self._open(other if predicate() else nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(sid)
        self._patches.set(owner, attr, traced)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Record a span around each ``next`` of the generator ``owner.attr`` returns."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                yield item

        self._patches.set(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped function back."""
        self._patches.restore()

    def aggregate(self) -> dict:
        """``name -> (calls, total_ns, self_ns)`` over every recorded span."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        own = self_times(np.frombuffer(self.parent, dtype=np.int64), dur)
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        selft = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, n in enumerate(self.names)}

    def count_within(self, names: set, ancestor: str) -> int:
        """Number of spans named in ``names`` that run inside an ``ancestor`` span."""
        want = {self._ids[n] for n in names if n in self._ids}
        anc = self._ids.get(ancestor)
        inside = bytearray(len(self.name))
        count = 0
        for sid, (nid, par) in enumerate(zip(self.name, self.parent)):
            under = par >= 0 and inside[par]
            if under or nid == anc:
                inside[sid] = 1
            if under and nid in want:
                count += 1
        return count

    def save(self, path) -> None:
        """Write every span as numpy arrays (``names`` indexes ``name``)."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 run=np.frombuffer(self.run, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))
