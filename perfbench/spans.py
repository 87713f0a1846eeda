"""Spans and counts recorded around the public entry points of egn's layers.

A ``Tracer`` replaces selected functions and methods with wrappers that
record a span (name, start, end, parent, thread, op) and optional counts,
and puts the originals back when it is closed. Spans stay in memory; the
run writes them out at the end. A layer's self time is its span's duration
minus the part of that interval its child spans cover, so nested layers
add up without double counting, and children that run concurrently in
worker threads are counted once.

Worker threads are started by ``WorkerGroup`` while the main thread waits
inside a runtime span; a span opened on a thread with nothing open becomes
a child of the span open on the main thread at that moment.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

MIB = float(1 << 20)


@dataclass
class Span:
    sid: int
    name: str
    op: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    alloc_bytes: int | None = None  # peak traced allocation inside the span
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Record spans around wrapped callables while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.memory = False  # trace allocations in memory spans of this op
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._mem: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, memory: bool = False):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            parent = self._main_stack[-1].sid if self._main_stack else None
        with self._lock:
            sp = Span(len(self.spans), name, self.op, parent, threading.get_ident(), 0.0)
            self.spans.append(sp)
        # tracemalloc is process-wide, so only main-thread spans measure it.
        track = memory and self.memory and threading.get_ident() == self._main
        if track:
            self._mem_enter()
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if track:
                sp.alloc_bytes = self._mem_exit()

    @contextmanager
    def op_span(self, index: int, memory: bool = False):
        """Root span of one benchmark op; every span inside shares ``index``."""
        self.op = index
        self.memory = memory
        with self.span("op") as sp:
            yield sp

    # Peak allocation of nested memory spans: each frame holds the traced
    # size at entry and the largest peak seen inside it. Entering a child
    # folds the running peak into every open frame before resetting it.
    def _mem_enter(self) -> None:
        if not self._mem:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        frame = self._mem.pop()
        frame[1] = max(frame[1], peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], frame[1])
        else:
            tracemalloc.stop()
        return frame[1] - frame[0]

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, name: str, counter=None, memory: bool = False):
        """A callable that runs ``fn`` inside a span named ``name``.

        ``counter(result, args)`` returns counts to attach to the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, memory) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    sp.counts.update(counter(result, args))
                return result

        return traced

    def install(self, patches) -> None:
        """Apply ``(owner, attribute, span name, counter, memory)`` patches."""
        for owner, attr, name, counter, memory in patches:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter, memory))

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Self time and per-op aggregation
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by any of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.sid: (sp.end - sp.start) - covered(children.get(sp.sid, []), sp.start, sp.end)
        for sp in spans
    }


def per_op_totals(spans: list[Span]) -> dict[int, dict[str, float]]:
    """For each op: self milliseconds per span name, peak MiB per memory
    span name, and summed counts."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for sp in spans:
        row = out.setdefault(sp.op, {})
        key = sp.name + "_ms"
        row[key] = row.get(key, 0.0) + own[sp.sid] * 1e3
        if sp.alloc_bytes is not None:
            key = sp.name + "_alloc_mib"
            row[key] = max(row.get(key, 0.0), sp.alloc_bytes / MIB)
        for name, value in sp.counts.items():
            row[name] = row.get(name, 0.0) + value
    return out


def mean_over(rows: list[dict[str, float]], names) -> dict[str, float]:
    """Mean of each named value over ``rows``; 0.0 where no row has it."""
    if not rows:
        return {name: 0.0 for name in names}
    return {name: sum(row.get(name, 0.0) for row in rows) / len(rows) for name in names}


def chrome_trace(spans: list[Span]) -> dict:
    """Spans as Chrome trace-event JSON, one track per thread."""
    tids: dict[int, int] = {}
    events = []
    for sp in spans:
        tid = tids.setdefault(sp.thread, len(tids))
        args = {"op": sp.op, "sid": sp.sid, "parent": sp.parent, **sp.counts}
        if sp.alloc_bytes is not None:
            args["alloc_mib"] = sp.alloc_bytes / MIB
        events.append({
            "name": sp.name, "ph": "X", "pid": 0, "tid": tid,
            "ts": sp.start * 1e6, "dur": (sp.end - sp.start) * 1e6, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
