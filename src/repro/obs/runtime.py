"""Wall-clock recording for the real multiprocess engines.

The supervised pools (:mod:`repro.runtime.dispatch`) behind the darray
``shmem`` transport and the service run genuine OS processes, so spans
must be collected *across* processes: the driver owns a
:class:`WallRecorder`, hands its queue to the pool initializer, and
workers push tagged tuples through it (``time.perf_counter`` is
CLOCK_MONOTONIC, comparable across processes on the same host).
:meth:`WallRecorder.drain` folds the worker events into the driver's
:class:`~repro.obs.events.EventLog` on a common epoch.

Two event kinds cross the queue: ``("span", name, pid, t0, t1, cat,
args)`` for worker task intervals (the older six-field form without
``args`` is still accepted), and ``("instant", name, pid, t, args)``
for point events (e.g. a corrupt payload detected inside a border
task).  The driver side additionally records instants and counter
samples directly -- the fault-recovery dispatcher
(:mod:`repro.runtime.dispatch`) uses those for its timeout / retry /
respawn / degradation events.

When a :class:`~repro.obs.trace.TraceContext` is active (request
tracing, see :mod:`repro.obs.trace`), :func:`task_span` records the
trace ids in the span's ``args`` and nests kernel-level
:func:`~repro.obs.trace.traced_span` calls under it -- that is how one
service request stays a single connected span tree across the process
boundary.

Worker-side helpers are module-level so they survive pickling into pool
workers: :func:`init_worker_sink` (called from the pool initializer),
:func:`task_span` (wraps one worker task), and :func:`worker_instant`.
All are no-ops when no recorder is wired in, so the runtime costs
nothing when unobserved.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator

from repro.obs import trace as _trace
from repro.obs.events import CAT_ROUND, CAT_SETUP, CAT_TASK, EventLog

#: Worker-process side of the span pipe: (queue, epoch) or None.
_SINK: tuple | None = None


class SpanHandle:
    """An open driver-side span; :meth:`finish` closes and records it.

    For intervals that cannot wrap a single ``with`` block (a request
    span opened in one callback and closed in another).  The OBS501
    checker rule demands the :meth:`finish` sit on a ``finally`` edge,
    for the same reason a file handle's ``close`` must: an exception
    between ``begin`` and ``finish`` would otherwise silently drop the
    span from the trace.
    """

    __slots__ = ("_recorder", "name", "lane", "cat", "args", "t0", "_done")

    def __init__(self, recorder: "WallRecorder", name: str,
                 lane: int | str, cat: str, args: dict):
        self._recorder = recorder
        self.name = name
        self.lane = lane
        self.cat = cat
        self.args = args
        self.t0 = time.perf_counter()
        self._done = False

    def finish(self, **extra_args) -> None:
        """Record the span now; idempotent (later calls are no-ops)."""
        if self._done:
            return
        self._done = True
        t1 = time.perf_counter()
        args = {**self.args, **extra_args} if extra_args else self.args
        self._recorder.log.add_span(
            self.name,
            self.lane,
            self.t0 - self._recorder.epoch,
            t1 - self.t0,
            cat=self.cat,
            **args,
        )


class WallRecorder:
    """Collects wall-clock events from the driver and pool workers.

    Driver-side spans go straight into :attr:`log` (lane ``"driver"``);
    worker events arrive through the queue created by :meth:`make_queue`
    and are folded in by :meth:`drain`.  All times are seconds since
    the recorder's construction.
    """

    def __init__(self, *, source: str = "multiprocessing"):
        self.log = EventLog(clock="wall", source=source)
        self.epoch = time.perf_counter()
        self._queue = None

    # -- driver side -------------------------------------------------------

    @contextlib.contextmanager
    def span(
        self, name: str, *, lane: int | str = "driver", cat: str = CAT_ROUND, **args
    ) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.log.add_span(name, lane, t0 - self.epoch, t1 - t0, cat=cat, **args)

    def begin(
        self, name: str, *, lane: int | str = "driver", cat: str = CAT_ROUND, **args
    ) -> SpanHandle:
        """Open a span to be closed later by :meth:`SpanHandle.finish`."""
        return SpanHandle(self, name, lane, cat, args)

    def span_sink(self):
        """A :mod:`repro.obs.trace` span sink writing to this log.

        Driver-side :func:`~repro.obs.trace.traced_span` spans land on
        the ``"driver"`` lane with their trace ids in ``args``.
        """
        def _sink(name: str, t0: float, t1: float, cat: str, args: dict) -> None:
            self.log.add_span(name, "driver", t0 - self.epoch, t1 - t0,
                              cat=cat, **args)
        return _sink

    def instant(self, name: str, *, lane: int | str = "driver", **args) -> None:
        """Record a driver-side point event (fault/retry/degrade...)."""
        self.log.add_instant(name, lane, time.perf_counter() - self.epoch, **args)

    def count(self, name: str, value: float, *, lane: int | str = "total") -> None:
        """Record one counter sample at the current wall time."""
        self.log.add_count(name, value, lane=lane, t_s=time.perf_counter() - self.epoch)

    def make_queue(self, ctx):
        """Create the cross-process event queue on context ``ctx``."""
        self._queue = ctx.SimpleQueue()
        return self._queue

    def worker_init_args(self) -> tuple | None:
        """What the pool initializer needs to wire up the worker sink."""
        if self._queue is None:
            return None
        return (self._queue, self.epoch)

    def drain(self) -> int:
        """Fold queued worker events into the log; returns how many."""
        if self._queue is None:
            return 0
        n = 0
        while not self._queue.empty():
            msg = self._queue.get()
            if msg[0] == "span":
                args = msg[6] if len(msg) > 6 else {}
                _, name, pid, t0, t1, cat = msg[:6]
                self.log.add_span(name, pid, t0 - self.epoch, t1 - t0,
                                  cat=cat, **args)
            elif msg[0] == "instant":
                _, name, pid, t, args = msg
                self.log.add_instant(name, pid, t - self.epoch, **args)
            n += 1
        return n

    @property
    def worker_lanes(self) -> list[int]:
        """Distinct worker OS pids observed so far (after :meth:`drain`)."""
        return [lane for lane in self.log.lanes() if isinstance(lane, int)]

    def fault_events(self) -> list:
        """All recorded fault-category instants (``fault:*`` names)."""
        return [i for i in self.log.instants if i.name.startswith("fault:")]


# -- worker side -------------------------------------------------------------


def init_worker_sink(args: tuple | None) -> None:
    """Install the span sink in a pool worker (from the initializer).

    ``args`` is :meth:`WallRecorder.worker_init_args`; ``None`` leaves
    recording off.  Also emits a ``worker:init`` span so every worker
    process appears in the trace even if task scheduling starves it.
    """
    global _SINK
    if args is None:
        _SINK = None
        _trace.set_span_sink(None)
        return
    queue, epoch = args
    _SINK = (queue, epoch)
    now = time.perf_counter()
    queue.put(("span", "worker:init", os.getpid(), now, now, CAT_SETUP, {}))

    # Kernel-level traced_span calls in this worker flow back through
    # the same queue, so one request's spans stay in one log.
    def _worker_trace_sink(name: str, t0: float, t1: float,
                           cat: str, span_args: dict) -> None:
        queue.put(("span", name, os.getpid(), t0, t1, cat, span_args))

    _trace.set_span_sink(_worker_trace_sink)


@contextlib.contextmanager
def task_span(name: str, *, cat: str = CAT_TASK, **args) -> Iterator[None]:
    """Record one worker task span (no-op without an installed sink).

    When a trace context is active the span carries the context's ids
    and a fresh child context is current inside the scope, so kernel
    spans recorded underneath parent to this task span.
    """
    if _SINK is None:
        yield
        return
    queue, _epoch = _SINK
    ctx = _trace.current()
    child = ctx.child() if ctx is not None else None
    token = _trace._CURRENT.set(child) if child is not None else None
    t0 = time.perf_counter()
    try:
        yield
    finally:
        t1 = time.perf_counter()
        if token is not None:
            _trace._CURRENT.reset(token)
        merged = {**(child.span_args() if child is not None else {}), **args}
        queue.put(("span", name, os.getpid(), t0, t1, cat, merged))


def worker_instant(name: str, **args) -> None:
    """Record a worker-side point event (no-op without a sink)."""
    if _SINK is None:
        return
    queue, _epoch = _SINK
    queue.put(("instant", name, os.getpid(), time.perf_counter(), args))


def span_or_null(recorder: WallRecorder | None, name: str, *,
                 cat: str = CAT_ROUND, **args):
    """Driver-side span when ``recorder`` is set, else a null context."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, cat=cat, **args)


def instant_or_null(recorder: WallRecorder | None, name: str, **args) -> None:
    """Driver-side instant when ``recorder`` is set, else nothing."""
    if recorder is not None:
        recorder.instant(name, **args)
