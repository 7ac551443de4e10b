"""The structured event model shared by both engines.

Everything the observability layer records is one of three immutable
event kinds, accumulated in an :class:`EventLog`:

* :class:`Span`    -- a named interval on a *lane* (a simulated
  processor, an OS process, or the driver), in seconds on the log's
  clock.
* :class:`Instant` -- a point event (e.g. a detected hazard, with its
  provenance in ``args``).
* :class:`Count`   -- a named counter sample (words moved, messages,
  change-list lengths, ...), attributable to a lane and a time.

The two engines differ only in their clock: the simulated
:class:`~repro.bdm.machine.Machine` produces spans in *simulated*
seconds (``clock="sim"``), the multiprocess darray engine in
wall-clock seconds (``clock="wall"``).  Exporters
(:mod:`repro.obs.export`, :mod:`repro.obs.metrics`) consume an
:class:`EventLog` without caring which engine filled it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: Span categories used by the built-in recorders.
CAT_PHASE = "phase"      # a processor's busy interval inside a phase
CAT_BARRIER = "barrier"  # idle wait at the phase-closing barrier
CAT_TASK = "task"        # a worker task in the real runtime
CAT_ROUND = "round"      # a driver-side merge round / pool dispatch
CAT_SETUP = "setup"      # shared-memory / pool setup
CAT_FAULT = "fault"      # fault-injection / recovery events
CAT_REQUEST = "request"  # one traced service request's span tree

#: Instant/counter names emitted by the fault-recovery machinery
#: (:mod:`repro.runtime.dispatch` on the wall clock, the simulator's
#: failover model on the simulated clock).  Grouped here so exporters,
#: dashboards, and tests agree on the vocabulary.
FAULT_TIMEOUT = "fault:timeout"          # a task missed its deadline
FAULT_RETRY = "fault:retry"              # a task attempt is being retried
FAULT_RESPAWN = "fault:respawn"          # the worker pool was respawned
FAULT_WORKER_DEATH = "fault:worker-death"  # a worker exited abnormally
FAULT_GIVEUP = "fault:giveup"            # retry budget exhausted
FAULT_DEGRADE = "fault:degrade"          # fell back to the serial engine
FAULT_MANAGER_CRASH = "fault:manager-crash"  # sim: a manager was lost
FAULT_SHADOW_CRASH = "fault:shadow-crash"    # sim: a shadow was lost
FAULT_FAILOVER = "fault:failover"        # sim: the shadow took over

#: Instant/counter/span names emitted by the batch-serving layer
#: (:mod:`repro.service`).  Spans: one ``service:batch`` per coalesced
#: dispatch.  Counts: per-batch sizes, queue-wait seconds, and the
#: cache hit/miss/eviction tallies.  Instants: load-shedding and
#: queued-deadline expiry decisions, with provenance in ``args``.
SVC_BATCH = "service:batch"              # span: one coalesced pool dispatch
CLIENT_REQUEST = "client:request"        # span: one wire request, socket edge
SVC_REQUEST = "service:request"          # span: one submit() inside the service
SVC_QUEUE_SPAN = "service:queue"         # span: admission-to-batch queue wait
SVC_BATCH_SIZE = "service:batch-size"    # count: requests in that dispatch
SVC_QUEUE_WAIT = "service:queue-wait"    # count: seconds a request queued
SVC_SHED = "service:shed"                # instant: request shed at admission
SVC_EXPIRED = "service:expired"          # instant: deadline expired in queue
SVC_CACHE_HIT = "service:cache-hit"      # count: content-addressed cache hits
SVC_CACHE_MISS = "service:cache-miss"    # count: cache misses
SVC_CACHE_EVICT = "service:cache-evict"  # count: LRU evictions
SVC_DEGRADED = "service:degraded-batch"  # instant: batch fell back to serial

#: Names emitted by the shard router (:mod:`repro.service.router`) and
#: its health monitor (:mod:`repro.service.health`).  The router span
#: sits between the client edge and the shard's own request tree: with
#: tracing on, ``router:request`` parents the shard-side
#: ``client:request`` span through the forwarded child context.
ROUTER_REQUEST = "router:request"        # span: one routed request, router edge
ROUTER_REROUTE = "router:reroute"        # instant: forwarded to a ring successor
ROUTER_HEDGE = "router:hedge"            # instant: hedged duplicate sent
ROUTER_SHARD_DOWN = "router:shard-down"  # instant: breaker opened for a shard
ROUTER_SHARD_UP = "router:shard-up"      # instant: breaker closed again
ROUTER_RESPAWN = "router:shard-respawn"  # instant: dead shard process respawned

#: Names emitted by the distributed-array subsystem (:mod:`repro.darray`).
#: Spans cover the three algorithm phases on the driver lane; counts
#: quantify the transport's traffic and working set: border-exchange
#: payload bytes (the paper's O(n) bound per merge level), change-array
#: bytes fanned out to region tiles, spill-file tile reads/writes of the
#: out-of-core transport, and the maximum number of label tiles ever
#: resident at once (the enforced working-set highwater).
DARRAY_LABEL = "darray:label"            # span: initial per-tile labeling pass
DARRAY_MERGE = "darray:merge"            # span: one merge round over borders
DARRAY_FINAL = "darray:final"            # span: hook-based interior update
DARRAY_BORDER_BYTES = "darray:border-bytes"      # count: border payload bytes
DARRAY_CHANGE_BYTES = "darray:change-bytes"      # count: change-array bytes
DARRAY_SPILL_READS = "darray:spill-reads"        # count: tile reads from spill
DARRAY_SPILL_WRITES = "darray:spill-writes"      # count: tile writes to spill
DARRAY_RESIDENT_HIGHWATER = "darray:resident-highwater"  # count: max resident tiles


@dataclass(frozen=True)
class Span:
    """A named interval ``[start_s, start_s + dur_s)`` on lane ``lane``."""

    name: str
    lane: int | str
    start_s: float
    dur_s: float
    cat: str = CAT_PHASE
    args: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


@dataclass(frozen=True)
class Instant:
    """A point event (rendered as an arrow/flag in trace viewers)."""

    name: str
    lane: int | str
    t_s: float
    args: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Count:
    """One counter sample at time ``t_s``."""

    name: str
    value: float
    lane: int | str = "total"
    t_s: float = 0.0


class EventLog:
    """Append-only store of spans, instants, and counter samples.

    Parameters
    ----------
    clock:
        ``"sim"`` for simulated seconds, ``"wall"`` for wall-clock
        seconds.  Purely descriptive -- exporters embed it in their
        output so readers know what the time axis means.
    source:
        Human-readable producer label (machine name, backend name).
    """

    def __init__(self, *, clock: str = "sim", source: str = ""):
        self.clock = clock
        self.source = source
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.counts: list[Count] = []

    # -- recording ---------------------------------------------------------

    def add_span(
        self,
        name: str,
        lane: int | str,
        start_s: float,
        dur_s: float,
        *,
        cat: str = CAT_PHASE,
        **args: Any,
    ) -> Span:
        span = Span(name, lane, float(start_s), float(dur_s), cat, args)
        self.spans.append(span)
        return span

    def add_instant(self, name: str, lane: int | str, t_s: float, **args: Any) -> Instant:
        inst = Instant(name, lane, float(t_s), args)
        self.instants.append(inst)
        return inst

    def add_count(
        self, name: str, value: float, *, lane: int | str = "total", t_s: float = 0.0
    ) -> Count:
        count = Count(name, float(value), lane, float(t_s))
        self.counts.append(count)
        return count

    # -- views -------------------------------------------------------------

    def lanes(self) -> list[int | str]:
        """All lanes that carry at least one span, ints first, in order."""
        seen: dict[int | str, None] = {}
        for span in self.spans:
            seen.setdefault(span.lane, None)
        keys = list(seen)
        return sorted(keys, key=lambda k: (isinstance(k, str), str(k), k if isinstance(k, int) else 0))

    def spans_on(self, lane: int | str) -> list[Span]:
        return [s for s in self.spans if s.lane == lane]

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self.counts.clear()

    @property
    def end_s(self) -> float:
        """Latest span/instant end time (0 when empty)."""
        ends = [s.end_s for s in self.spans] + [i.t_s for i in self.instants]
        return max(ends, default=0.0)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventLog(clock={self.clock!r}, spans={len(self.spans)}, "
            f"instants={len(self.instants)}, counts={len(self.counts)})"
        )
