"""The simulated BDM machine: processors, phases, and barriers.

Usage sketch (SPMD, phase style)::

    machine = Machine(p=32, params=CM5)
    data = GlobalArray(machine, q, dtype=np.int64)
    with machine.phase("tally"):
        for proc in machine.procs:
            proc.charge_comp(2 * tile_pixels)      # local work
            with proc.prefetch_batch():            # pipelined prefetches
                block = data.read(proc, (proc.pid + 1) % machine.p)
    report = machine.report()

Within a phase each processor's program runs to completion; the
phase-closing barrier advances simulated time by the maximum over
processors plus the barrier cost, matching the superstep structure of
the paper's Split-C code (compute / ``sync()`` / ``barrier()``).
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Iterator

from repro.bdm.cost import CostCounter, MachineReport, PhaseRecord
from repro.machines.params import MachineParams, IDEAL
from repro.utils.errors import ConfigurationError, ValidationError
from repro.utils.validation import check_power_of_two


class MachineObserver:
    """Base class for consumers of a machine's event stream.

    Attach with :meth:`Machine.attach_observer`.  The machine invokes
    the hooks below as it runs; all default to no-ops so subclasses
    (e.g. :class:`~repro.bdm.trace.Tracer`,
    :class:`~repro.obs.sim.MachineRecorder`) override only what they
    need.
    """

    def on_phase(self, record, deltas, start_s: float) -> None:
        """A phase closed: aggregated ``record``
        (:class:`~repro.bdm.cost.PhaseRecord`), per-processor cost
        ``deltas`` (:class:`~repro.bdm.cost.CostCounter` list), and the
        simulated time ``start_s`` at which the phase began."""

    def on_traffic(self, server: int, mover: int, words: int) -> None:
        """``words`` words crossed the network between ``server`` (the
        processor whose port served the transfer) and ``mover`` (the
        processor charged for moving them)."""

    def on_hazard(self, hazard) -> None:
        """A same-phase hazard was detected (before the raise);
        ``hazard`` is a :class:`repro.checker.shadow.Hazard`."""

    def on_instant(self, name: str, lane, t_s: float, args: dict) -> None:
        """A point event was noted via :meth:`Machine.note_instant`
        (e.g. a fault injection or a shadow-manager failover); ``lane``
        is the processor id it concerns (or ``None`` for the machine),
        ``t_s`` the simulated time, ``args`` structured context."""

    def on_reset(self) -> None:
        """The machine's cost records were cleared."""


class Processor:
    """One virtual processor: identity plus cost charging."""

    def __init__(self, machine: "Machine", pid: int):
        # Weak, so the machine's arrays are freed by reference counting
        # when the last caller drops the machine, not by the cyclic GC.
        self._machine = weakref.ref(machine)
        self.pid = pid
        self.cost = CostCounter()
        self._batch_depth = 0
        self._batch_latency_charged = False

    @property
    def machine(self) -> "Machine":
        return self._machine()

    # -- computation -----------------------------------------------------

    def charge_comp(self, ops: float) -> None:
        """Charge ``ops`` abstract local operations."""
        if ops < 0:
            raise ValidationError("ops must be non-negative")
        self.cost.ops += ops
        self.cost.comp_s += self.machine.params.comp_time_s(ops)

    def charge_copy(self, words: float) -> None:
        """Charge a bulk local placement of ``words`` words.

        Separate from :meth:`charge_comp` because streaming copies are
        much cheaper per word than pointer-chasing algorithm steps; the
        rate comes from :attr:`MachineParams.copy_ns` (zero by default,
        see its docstring).
        """
        if words < 0:
            raise ValidationError("words must be non-negative")
        self.cost.comp_s += self.machine.params.copy_time_s(words)

    # -- communication ---------------------------------------------------

    @contextlib.contextmanager
    def prefetch_batch(self) -> Iterator[None]:
        """Group remote accesses into one pipelined batch.

        The BDM model charges ``l`` pipelined prefetches as ``tau + l``:
        inside this context only the first remote access pays the
        latency ``tau``; every access still pays its word-transfer time.
        Batches may nest; latency is charged once for the outermost.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._batch_latency_charged = False

    def charge_comm(self, words: int) -> None:
        """Explicitly charge a remote access of ``words`` words.

        For modeled transfers that do not go through a
        :class:`~repro.bdm.memory.GlobalArray` (prefer
        :meth:`Machine.transfer`, which also charges the serving side).
        """
        if words < 0:
            raise ValidationError("words must be non-negative")
        self._charge_comm(words)

    def _charge_comm(self, words: int, *, from_pid: int | None = None) -> None:
        """Charge a remote access of ``words`` words (called by arrays).

        ``from_pid`` names the processor on the other end of the
        transfer (the serving port); when given, the traffic is also
        reported to the machine's observers for the communication
        matrix.
        """
        params = self.machine.params
        charge_latency = True
        if self._batch_depth > 0:
            if self._batch_latency_charged:
                charge_latency = False
            else:
                self._batch_latency_charged = True
        if charge_latency:
            self.cost.comm_s += params.latency_s
            self.cost.messages += 1
        self.cost.comm_s += words * params.word_time_s()
        self.cost.words_moved += words
        if from_pid is not None and from_pid != self.pid:
            self.machine._note_traffic(from_pid, self.pid, words)

    def _charge_words_only(self, words: int) -> None:
        """Occupy this processor's network port for ``words`` word-times.

        The BDM model lets no processor send or receive more than one
        word at a time, so a processor *serving* remote reads is busy
        for their duration; this charge (no latency) models that.
        """
        self.cost.serve_s += words * self.machine.params.word_time_s()
        self.cost.words_served += words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Processor(pid={self.pid})"


class Machine:
    """A ``p``-processor BDM machine with phase-based cost accounting.

    Parameters
    ----------
    p:
        Number of processors; the paper assumes ``p = 2^d``.
    params:
        Platform cost parameters (defaults to the frictionless
        :data:`~repro.machines.params.IDEAL` machine).
    check_hazards:
        Enable the same-phase read/write hazard checker on all
        :class:`~repro.bdm.memory.GlobalArray` traffic.
    charge_server:
        Also charge the *owning* processor's port time for remote
        accesses (the model's "no processor can send or receive more
        than one word at a time"); makes hub contention visible.
    overlap:
        Model perfect split-phase overlap: a processor's phase time is
        ``max(comp, comm)`` instead of ``comp + comm``.  Split-C's
        ``:=`` prefetch allows computation to proceed while remote data
        is in flight ("computation can be overlapped with the remote
        request"); the default (False) is the conservative no-overlap
        accounting the paper's summed bounds use.
    """

    def __init__(
        self,
        p: int,
        params: MachineParams = IDEAL,
        *,
        check_hazards: bool = True,
        charge_server: bool = True,
        overlap: bool = False,
    ):
        check_power_of_two("p", p)
        self.p = int(p)
        self.params = params
        self.check_hazards = bool(check_hazards)
        self.charge_server = bool(charge_server)
        self.overlap = bool(overlap)
        self.procs = [Processor(self, pid) for pid in range(self.p)]
        self._phases: list[PhaseRecord] = []
        # Weak: each GlobalArray holds its machine, so a strong list here
        # would make every simulated array part of a reference cycle.
        self._arrays: weakref.WeakSet = weakref.WeakSet()
        self.in_phase = False
        self.phase_name: str | None = None  # label of the running phase
        self._tracer = None  # set by repro.bdm.trace.Tracer
        self._observers: list[MachineObserver] = []
        self._sim_time_s = 0.0  # simulated clock at the last barrier

    # -- observers ---------------------------------------------------------

    def attach_observer(self, observer: MachineObserver) -> None:
        """Subscribe ``observer`` to this machine's event stream."""
        if observer not in self._observers:
            self._observers.append(observer)

    def detach_observer(self, observer: MachineObserver) -> None:
        """Unsubscribe ``observer`` (no-op if not attached)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _note_traffic(self, server: int, mover: int, words: int) -> None:
        if words and self._observers:
            for obs in self._observers:
                obs.on_traffic(server, mover, words)

    def _note_hazard(self, hazard) -> None:
        for obs in self._observers:
            obs.on_hazard(hazard)

    def note_instant(self, name: str, lane=None, **args) -> None:
        """Publish a point event at the current simulated time.

        Used by the fault-injection / failover machinery (and open to
        algorithm code) to mark occurrences -- a lost manager, a
        shadow takeover -- on the simulated timeline; observers such as
        :class:`~repro.obs.sim.MachineRecorder` turn them into
        :class:`~repro.obs.events.Instant` log entries.
        """
        for obs in self._observers:
            obs.on_instant(name, lane, self._sim_time_s, args)

    # -- arrays ------------------------------------------------------------

    def _register_array(self, arr) -> None:
        self._arrays.add(arr)

    def _charge_server(self, owner: int, words: int) -> None:
        if self.charge_server:
            self.procs[owner]._charge_words_only(words)

    # -- point-to-point transfers -------------------------------------------

    def transfer(self, src_pid: int, dst_pid: int, words: int) -> None:
        """Charge a modeled transfer of ``words`` words from ``src`` to ``dst``.

        For data that lives in Python-side processor workspaces rather
        than a :class:`GlobalArray` (e.g. a group manager's change
        list).  The destination pays latency plus word time; the source
        is occupied for the word time.
        """
        if words < 0:
            raise ValidationError("words must be non-negative")
        if src_pid == dst_pid or words == 0:
            return
        self.procs[dst_pid]._charge_comm(words, from_pid=src_pid)
        self._charge_server(src_pid, words)

    # -- phases ------------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Run one barrier-terminated phase named ``name``.

        On exit the phase's per-processor cost deltas are folded into a
        :class:`~repro.bdm.cost.PhaseRecord` and a barrier is charged.
        """
        if self.in_phase:
            raise ConfigurationError("phases cannot be nested")
        before = [proc.cost.snapshot() for proc in self.procs]
        self.in_phase = True
        self.phase_name = name
        try:
            yield
        finally:
            self.in_phase = False
            self.phase_name = None
            deltas = [
                proc.cost.minus(prev) for proc, prev in zip(self.procs, before)
            ]
            if self.overlap:
                elapsed = max(max(d.comp_s, d.port_s) for d in deltas)
            else:
                elapsed = max(d.total_s for d in deltas)
            record = PhaseRecord(
                name=name,
                elapsed_s=elapsed,
                comm_s=max(d.port_s for d in deltas),
                comp_s=max(d.comp_s for d in deltas),
                words_moved=sum(d.words_moved for d in deltas),
                messages=sum(d.messages for d in deltas),
                barrier_s=self.params.barrier_s,
            )
            self._phases.append(record)
            start_s = self._sim_time_s
            self._sim_time_s += record.elapsed_s + record.barrier_s
            for arr in self._arrays:
                arr._clear_phase_writes()
            for obs in self._observers:
                obs.on_phase(record, deltas, start_s)

    def each_proc(self) -> Iterator[Processor]:
        """Iterate over processors (the SPMD 'my pid' loop)."""
        return iter(self.procs)

    # -- results -------------------------------------------------------------

    def report(self) -> MachineReport:
        """Aggregate the recorded phases into a :class:`MachineReport`."""
        return MachineReport(
            p=self.p,
            machine_name=self.params.name,
            phases=list(self._phases),
        )

    def reset(self) -> None:
        """Clear all cost records (arrays keep their contents).

        Attached observers are told via
        :meth:`MachineObserver.on_reset`, so an attached
        :class:`~repro.bdm.trace.Tracer` drops its recorded phases
        instead of carrying stale pre-reset data.
        """
        for proc in self.procs:
            proc.cost = CostCounter()
        self._phases.clear()
        self._sim_time_s = 0.0
        for obs in self._observers:
            obs.on_reset()

    @property
    def elapsed_s(self) -> float:
        """Simulated wall-clock so far."""
        return self.report().elapsed_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(p={self.p}, params={self.params.name!r})"
