"""Spans around calls into the program, recorded from the benchmark's side.

A span is (id, name, start, end, parent id).  Spans are kept in memory and
written out when the benchmark ends.  Calls that happen once per event or
once per path search are too many to keep one by one: for those only the
per-name totals (calls, seconds, self seconds) are kept.  A span's self
time is its duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import itertools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.totals: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self._open: list[list] = []         # [id, start, child seconds]
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Zero the totals and counts, keeping recorded spans."""
        for tot in self.totals.values():
            tot[:] = [0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, name: str, keep: bool = True, observe=None):
        """`fn` with a span around every call; `observe(args, result,
        seconds, self_seconds)` runs after each call that returns."""
        stack, spans, ids = self._open, self.spans, self._ids
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [next(ids), perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - frame[1]
                own = seconds - frame[2]
                if stack:
                    stack[-1][2] += seconds
                tot[0] += 1
                tot[1] += seconds
                tot[2] += own
                if keep:
                    spans.append((frame[0], name, frame[1], end,
                                  stack[-1][0] if stack else 0))
            if observe is not None:
                observe(args, result, seconds, own)
            return result

        return traced

    def counted(self, fn, name: str):
        """`fn` with a call counter and no clock reads."""
        cell = self.totals.setdefault(name, [0, 0.0, 0.0])

        def counting(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counting

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def dump(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                      "end": end - t0, "parent": parent}) + "\n")


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set owner.attr to make(original function)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
