"""In-memory span recording and the self-time arithmetic of the traced run.

A span is ``(name, start, end, parent)``: the layer it belongs to, two
``time.perf_counter`` stamps and the index of the span that was open
when it started (``-1`` for a top-level span).  Spans stay in memory
and are written out only when a process is done with them.  Linux's
``perf_counter`` reads ``CLOCK_MONOTONIC``, which every process on the
host shares, so spans flushed by crowd processes can be laid against
the parent's generation windows.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Window = Tuple[float, float]


class SpanRecorder:
    """Records one process's spans; a wrapped call opens one span."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: layer -> {key: structure bytes}, filled by byte probes
        self.nbytes: Dict[str, Dict[object, float]] = {}
        #: ``[name, time, amount]`` events, e.g. bytes sent on a pipe
        self.counts: List[list] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.nbytes = {}
        self.counts = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` made to run inside a span named ``name`` whenever
        recording is on."""
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def note_bytes(self, name: str, key: object,
                   measure: Callable[[], float]) -> None:
        """Record the structure bytes of ``key`` under ``name`` the first
        time it is seen (``measure`` runs once per key)."""
        seen = self.nbytes.setdefault(name, {})
        if key not in seen:
            seen[key] = float(measure())

    def count(self, name: str, amount: float) -> None:
        """Record ``amount`` of ``name`` happening now, when recording."""
        if self.enabled:
            self.counts.append([name, time.perf_counter(), float(amount)])

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "nbytes": {k: sum(v.values()) for k, v in self.nbytes.items()}}

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        doc = self.export()
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the result never goes below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = union_length(children.get(i, ()), (start, end))
        out.append(max(0.0, (end - start) - covered))
    return out


def union_length(intervals: Iterable[Tuple[float, float]],
                 clip: Window) -> float:
    """Length of the union of ``intervals`` inside ``clip``."""
    lo, hi = clip
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans: Sequence[Sequence], window: Window
                 ) -> Dict[str, Dict[str, float]]:
    """``{layer: {"busy_s", "calls"}}`` over the spans inside ``window``.

    ``busy_s`` sums self time.  ``calls`` counts entries into the layer:
    a span nested directly in a span of the same layer is part of the
    outer call, not a call of its own.
    """
    lo, hi = window
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, span in enumerate(spans):
        if not lo <= span[1] <= span[2] <= hi:
            continue
        name, parent = span[0], span[3]
        acc = out.setdefault(name, {"busy_s": 0.0, "calls": 0.0})
        acc["busy_s"] += selfs[i]
        if parent < 0 or spans[parent][0] != name:
            acc["calls"] += 1.0
    return out


def outermost_calls(spans: Sequence[Sequence], prefix: str,
                    window: Window) -> int:
    """Spans inside ``window`` whose name starts with ``prefix`` and that
    no other such span encloses: a kernel called from inside another
    kernel is part of that one dispatch."""
    lo, hi = window
    # A parent is recorded before its children, so one pass sees it first.
    nested = [False] * len(spans)
    count = 0
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            nested[i] = nested[parent] or spans[parent][0].startswith(prefix)
        if (span[0].startswith(prefix) and not nested[i]
                and lo <= span[1] <= span[2] <= hi):
            count += 1
    return count


def counted(counts: Sequence[Sequence], name: str, window: Window) -> float:
    """Sum of the ``name`` events inside ``window``."""
    lo, hi = window
    return sum(c[2] for c in counts if c[0] == name and lo <= c[1] <= hi)


def uncovered_share(spans: Sequence[Sequence], window: Window) -> float:
    """Share of the window's wall time that no top-level span covers."""
    lo, hi = window
    if hi <= lo:
        return 0.0
    tops = [(s[1], s[2]) for s in spans if s[3] < 0]
    return max(0.0, 1.0 - union_length(tops, window) / (hi - lo))


def durations_of(spans: Sequence[Sequence], name: str,
                 window: Window) -> List[float]:
    """Durations of the ``name`` spans inside ``window``, in start order."""
    lo, hi = window
    picked = sorted((s[1], s[2]) for s in spans
                    if s[0] == name and lo <= s[1] <= s[2] <= hi)
    return [b - a for a, b in picked]
