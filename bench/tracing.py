"""Spans around the calls into each causeway module, recorded from outside
the program.

A patch replaces a public function at the name its caller resolves (for
example `causeway.graphrag.cosine`, which graphrag imported from embed), or
a method on its class. Every call then records a span: id, parent id, name,
start and end, kept in memory. Functions called millions of times, such as
`evaluate.jaccard_distance`, are counted instead of timed.

The parent of a span is the innermost open span of the same thread, or the
current stage span for a worker thread, so self time is a span's duration
minus the union of its children's intervals, which stays right when
children run in parallel.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.values: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """fn wrapped to record a span; observe(tracer, args, result) runs
        after each call to add values such as sizes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if observe is not None:
                with self._lock:
                    observe(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """fn wrapped to count its calls only; for hot functions called from
        one thread at a time."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: str, observe: Callable | None = None, count_only: bool = False) -> None:
        """Replaces owner.attr (a module function, a method or a
        classmethod) with its traced version until restore()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if isinstance(original, classmethod) else original
        wrapped = self.counted(name, fn) if count_only else self.timed(name, fn, observe)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def stage(self, name: str):
        """A root span for one CLI stage; spans opened by worker threads
        hang under it."""
        sid = next(self._ids)
        self._root = sid
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, 0, name, start, perf_counter()))
            self._root = 0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, name, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
        for name, n in self.counts.items():
            out[name]["calls"] += n
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines, then one line of counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}))
                fh.write("\n")
            fh.write(json.dumps({"counts": dict(self.counts), "values": dict(self.values)}) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
