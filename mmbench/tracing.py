"""Timing wrappers installed on ``mmrec`` names from outside the program.

A wrapper replaces a public name where the program looks it up (for
example ``evaluate`` in ``mmrec.trainer``, ``mmrec.experiment`` and
``mmrec.cli``) and is removed again by :meth:`Tracer.remove`. Two kinds:

* span wrappers record name, start, end, parent span, thread and grid
  combination index for every call; each thread keeps its own span stack,
  so parallel grid workers do not nest into each other;
* aggregate wrappers, for calls made once per user or once per random word,
  only count calls and sum their time (and, for ``Stream.raw``, words).

Spans stay in memory until the run ends. Self time is a span's duration
minus the part of it covered by child spans and by aggregated calls made
directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

clock = time.perf_counter


class SetupDone(BaseException):
    """Raised at the first call of a ``stop_at`` name, to end a set-up probe.

    It derives from BaseException so that the program's handlers, which
    catch ``Exception`` subclasses, let it through to the benchmark.
    """


class Tracer:
    def __init__(self, stop_at: frozenset[str] = frozenset()):
        self.spans: list[dict] = []
        self.stop_at = stop_at
        self.stopped_at: float | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[tuple[dict, dict]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main_stack = self._state().stack

    # ------------------------------------------------------------ state
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.combo = None
            local.agg_depth = 0
            local.agg = {}
            local.charged = {}
            with self._lock:
                self._thread_stats.append((local.agg, local.charged))
        return local

    def _parent(self, local) -> int | None:
        if local.stack:
            return local.stack[-1]
        # a worker thread's first span belongs to the span that started it
        main = self._main_stack
        return main[-1] if main and local.stack is not main else None

    # ----------------------------------------------------------- spans
    def call(self, name: str, fn, *args, enter=None, leave=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        local = self._state()
        if name in self.stop_at:
            if self.stopped_at is None:
                self.stopped_at = clock()
            raise SetupDone(name)
        span = {
            "id": next(self._ids), "name": name, "parent": self._parent(local),
            "thread": threading.get_ident(), "combo": local.combo,
        }
        if enter is not None:
            enter(span, local, args, kwargs)
            span["combo"] = local.combo
        local.stack.append(span["id"])
        span["start"] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = clock()
            local.stack.pop()
            self.spans.append(span)
        if leave is not None:
            leave(span, args, kwargs, result)
        return result

    def install(self, owner, attr: str, name: str, enter=None, leave=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, enter=enter, leave=leave, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def install_aggregate(self, owner, attr: str, name: str, words_arg: int | None = None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            local = self._state()
            outer = local.agg_depth == 0
            local.agg_depth += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                local.agg_depth -= 1
                stat = local.agg.get(name)
                if stat is None:
                    stat = local.agg[name] = [0, 0.0, 0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                if words_arg is not None:
                    stat[2] += int(args[words_arg])
                if outer:
                    stat[3] += elapsed
                    key = local.stack[-1] if local.stack else None
                    local.charged[key] = local.charged.get(key, 0.0) + elapsed

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- results
    def aggregates(self) -> dict[str, list]:
        """name -> [calls, seconds, words, seconds outside other aggregated
        calls], summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            for agg, _ in self._thread_stats:
                for name, stat in agg.items():
                    acc = out.setdefault(name, [0, 0.0, 0, 0.0])
                    for j, value in enumerate(stat):
                        acc[j] += value
        return out

    def charged(self) -> dict:
        """span id (None for time outside every span) -> aggregated seconds."""
        out: dict = {}
        with self._lock:
            for _, charged in self._thread_stats:
                for key, secs in charged.items():
                    out[key] = out.get(key, 0.0) + secs
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict], charged: dict, t0: float, t1: float) -> dict:
    """Self seconds per span id plus the root remainder and parallel overlap.

    ``remainder`` is the part of [t0, t1] covered by no top-level span and no
    aggregated call outside spans. ``overlap`` is what concurrent children
    add beyond the wall time they cover, so that
    sum(self) + sum(charged) + remainder - overlap == t1 - t0.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out, overlap = {}, 0.0
    for span in spans:
        kids = children.get(span["id"], [])
        covered = _union_length(kids)
        overlap += sum(e - s for s, e in kids) - covered
        out[span["id"]] = span["end"] - span["start"] - covered - charged.get(span["id"], 0.0)
    top = children.get(None, [])
    covered = _union_length(top)
    overlap += sum(e - s for s, e in top) - covered
    remainder = (t1 - t0) - covered - charged.get(None, 0.0)
    return {"self": out, "remainder": remainder, "overlap": overlap}


def write_spans(path: str, spans: list[dict], t0: float) -> None:
    """One tab-separated line per span, times relative to the run start."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tthread\tcombo\tname\tstart_s\tend_s\n")
        for s in sorted(spans, key=lambda s: s["start"]):
            fh.write(
                f"{s['id']}\t{s['parent'] or ''}\t{s['thread']}\t"
                f"{'' if s['combo'] is None else s['combo']}\t{s['name']}\t"
                f"{s['start'] - t0:.6f}\t{s['end'] - t0:.6f}\n"
            )
    os.replace(tmp, path)
