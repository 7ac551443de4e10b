"""In-memory spans around the program's public calls, and self-time sums.

The benchmark records spans from its own files only: it wraps the
``DistributedArray`` verbs and the darray engine's ``solve_border_merge``
at run time (:func:`instrument_darray`), and times kernel, simulator and
service calls where it makes them.  The engine's loop runs unchanged.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

#: The DistributedArray verbs wrapped in a traced run, in engine order.
DARRAY_VERBS = ("open", "label", "border", "solve", "publish", "finalize",
                "gather", "close", "histogram")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same log


class SpanLog:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def take(self) -> list[Span]:
        """Hand over the closed spans and start a fresh log."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        ):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


def job_breakdown(spans: list[Span]) -> list[dict]:
    """Per root span (one job): its wall time, the self seconds of each
    span below it by name, and the self seconds no child accounts for."""
    selfs = self_times(spans)
    jobs: dict[int, dict] = {}
    for i, s in enumerate(spans):
        if s.parent is None:
            jobs[i] = {"wall": s.end - s.start, "unattributed": selfs[i], "verbs": {}}
            continue
        root = s.parent
        while spans[root].parent is not None:
            root = spans[root].parent
        verbs = jobs[root]["verbs"]
        verbs[s.name] = verbs.get(s.name, 0.0) + selfs[i]
    return list(jobs.values())


def instrument_darray(log: SpanLog):
    """Wrap the DistributedArray verbs and the engine's border solve in
    spans on ``log``; returns a function that restores the originals."""
    from repro.darray import engine
    from repro.darray.array import DistributedArray

    saved = {name: DistributedArray.__dict__[name] for name in DARRAY_VERBS
             if name != "solve"}
    saved_solve = engine.solve_border_merge

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with log.span(name):
                return fn(*args, **kwargs)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    for name, attr in saved.items():
        if isinstance(attr, classmethod):
            setattr(DistributedArray, name, classmethod(wrap(name, attr.__func__)))
        else:
            setattr(DistributedArray, name, wrap(name, attr))
    engine.solve_border_merge = wrap("solve", saved_solve)

    def restore():
        for name, attr in saved.items():
            setattr(DistributedArray, name, attr)
        engine.solve_border_merge = saved_solve

    return restore
