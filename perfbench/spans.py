"""In-memory span recording for the benchmark's traced runs.

A span has a name, a start and end (``perf_counter_ns``), the index of
its parent span (-1 for a root) and the tracer's run id.  Spans are
appended to flat arrays while the run goes on and written out once at
the end.  Wrappers installed by ``Tracer.patch`` replace a function in
every module that holds it, so calls through imported names are seen
too, and ``Tracer.unpatch`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import time
import uuid
from array import array
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe(tracer, args, kwargs, result)``
        runs after the span closes, to add to ``counts``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return traced

    def patch(self, modules, fn, name: str, observe=None) -> None:
        """Replace ``fn`` by its traced wrapper wherever ``modules`` hold it."""
        traced = self.wrap(fn, name, observe)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._patched.append((mod, attr, fn))

    def unpatch(self) -> None:
        while self._patched:
            mod, attr, fn = self._patched.pop()
            setattr(mod, attr, fn)

    def records(self) -> list[tuple[str, int, int, int]]:
        """Spans as ``(name, start_ns, end_ns, parent_index)``."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [list(r) for r in zip(
                           self.name_id, self.start, self.end, self.parent)]},
                      fh, separators=(",", ":"))


def self_times(spans) -> dict[str, int]:
    """Total self time per span name: each span's duration minus the time
    its direct children cover.  Spans come from one thread, so siblings
    never overlap and the children's durations add up."""
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, _), cov in zip(spans, covered):
        out[name] += end - start - cov
    return dict(out)


def totals(spans) -> dict[str, tuple[int, int]]:
    """(calls, total duration) per span name."""
    calls: Counter = Counter()
    dur: Counter = Counter()
    for name, start, end, _ in spans:
        calls[name] += 1
        dur[name] += end - start
    return {name: (calls[name], dur[name]) for name in calls}


def covered_frac(spans, root: str) -> float:
    """Share of the time inside ``root`` spans that named child spans cover."""
    total = sum(end - start for name, start, end, _ in spans if name == root)
    own = self_times(spans).get(root, 0)
    return 1.0 - own / total
