"""Deadline-aware, fault-tolerant task dispatch for the process pool.

The seed runtime fanned every parallel step out with a bare
``pool.map`` -- an *unbounded* barrier: one crashed worker (its task is
simply lost by ``multiprocessing.Pool``) or one hung task deadlocked
the driver forever.  This module replaces it:

* every task attempt gets a **deadline** (``AsyncResult``-based
  collection instead of ``pool.map``; default from the
  ``REPRO_TASK_TIMEOUT`` environment variable);
* faulted attempts are **retried with exponential backoff**, up to a
  bounded budget (``REPRO_TASK_RETRIES``); retryable faults are missed
  deadlines (covering both hangs and hard worker crashes) and the
  typed transient errors
  (:class:`~repro.utils.errors.TransientTaskError`,
  :class:`~repro.utils.errors.CorruptPayloadError`) -- any other
  exception is a real bug and propagates immediately;
* a missed deadline **respawns the pool** (the
  :class:`PoolSupervisor` re-runs the initializer in fresh workers),
  because a pool that lost or wedged a worker cannot be trusted with
  the retry;
* exhausted budgets raise typed
  :class:`~repro.utils.errors.FaultError` subclasses -- never a hang;
* every recovery step is visible as a ``fault:*`` instant/counter on
  the attached :class:`~repro.obs.runtime.WallRecorder`.

Task functions receive ``(payload, attempt)`` tuples; the attempt
number feeds the deterministic fault injector
(:mod:`repro.faults.inject`), which is how a seeded plan can fault the
first attempt of a task and let its retry through.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

from repro.obs.events import (
    CAT_ROUND,
    FAULT_GIVEUP,
    FAULT_RESPAWN,
    FAULT_RETRY,
    FAULT_TIMEOUT,
    FAULT_WORKER_DEATH,
)
from repro.obs.runtime import WallRecorder, instant_or_null
from repro.obs.trace import TraceContext
from repro.utils.errors import (
    CorruptPayloadError,
    RecoveryExhaustedError,
    TaskTimeoutError,
    TransientTaskError,
    ValidationError,
)

#: Environment variable holding the default per-task deadline, seconds.
ENV_TIMEOUT = "REPRO_TASK_TIMEOUT"

#: Environment variable holding the default retry budget per task.
ENV_RETRIES = "REPRO_TASK_RETRIES"

#: Fallback deadline when neither argument nor environment provides one.
DEFAULT_TIMEOUT_S = 300.0

#: Fallback retry budget (retries *after* the first attempt).
DEFAULT_RETRIES = 2

#: Exceptions the dispatcher treats as transient and retries.
RETRYABLE = (TransientTaskError, CorruptPayloadError)

#: Poll step while waiting for results (bounded, so deadlines are
#: checked promptly even when the pool has silently lost a task).
_POLL_S = 0.005


def pool_context():
    """The multiprocessing context every supervised pool is built from.

    ``fork`` shares the parent's pages copy-on-write, which is cheap;
    ``spawn`` is the fallback where fork is unavailable.
    """
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context("spawn")


def resolve_timeout(timeout: float | None = None) -> float:
    """Per-task deadline: argument, else ``REPRO_TASK_TIMEOUT``, else default."""
    if timeout is None:
        raw = os.environ.get(ENV_TIMEOUT)
        if raw is None or not raw.strip():
            return DEFAULT_TIMEOUT_S
        try:
            timeout = float(raw)
        except ValueError:
            raise ValidationError(f"{ENV_TIMEOUT}={raw!r} is not a number") from None
    timeout = float(timeout)
    if timeout <= 0:
        raise ValidationError("task timeout must be positive")
    return timeout


def resolve_retries(retries: int | None = None) -> int:
    """Retry budget: argument, else ``REPRO_TASK_RETRIES``, else default."""
    if retries is None:
        raw = os.environ.get(ENV_RETRIES)
        if raw is None or not raw.strip():
            return DEFAULT_RETRIES
        try:
            retries = int(raw)
        except ValueError:
            raise ValidationError(f"{ENV_RETRIES}={raw!r} is not an integer") from None
    retries = int(retries)
    if retries < 0:
        raise ValidationError("retry budget must be non-negative")
    return retries


class PoolSupervisor:
    """Owns a worker pool it can respawn from its recorded recipe.

    A ``multiprocessing.Pool`` that lost a worker mid-task has lost the
    task forever, and a wedged worker occupies a slot indefinitely --
    so recovery always goes through :meth:`respawn`: terminate the old
    pool (SIGTERM reaches even a sleeping worker) and build a fresh one
    with the same initializer, which re-attaches shared memory and
    re-installs the fault plan in the new workers.
    """

    def __init__(
        self,
        ctx,
        processes: int,
        initializer=None,
        initargs: tuple = (),
        *,
        recorder: WallRecorder | None = None,
    ):
        self._ctx = ctx
        self._processes = processes
        self._initializer = initializer
        self._initargs = initargs
        self._recorder = recorder
        self._pool = None
        self.respawns = 0

    @property
    def pool(self):
        if self._pool is None:
            self._pool = self._ctx.Pool(
                self._processes, initializer=self._initializer, initargs=self._initargs
            )
        return self._pool

    def dead_workers(self) -> list[int]:
        """Exit codes of workers that died abnormally (best effort)."""
        procs = getattr(self._pool, "_pool", None) or []
        return [
            p.exitcode
            for p in procs
            if getattr(p, "exitcode", None) not in (None, 0)
        ]

    def respawn(self, *, reason: str = "") -> None:
        """Terminate the pool and build a fresh one."""
        if self._pool is not None:
            dead = self.dead_workers()
            if dead:
                instant_or_null(
                    self._recorder, FAULT_WORKER_DEATH, exitcodes=dead, reason=reason
                )
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.respawns += 1
        instant_or_null(self._recorder, FAULT_RESPAWN, reason=reason)

    def close(self) -> None:
        if self._pool is not None:
            # terminate (not close/join): a wedged worker would block a
            # graceful close forever, and every completed result has
            # already been collected by run_tasks.
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_tasks(
    supervisor: PoolSupervisor,
    fn,
    payloads,
    *,
    site: str,
    timeout: float | None = None,
    max_retries: int | None = None,
    backoff_s: float = 0.05,
    recorder: WallRecorder | None = None,
    trace: TraceContext | None = None,
):
    """Run ``fn((payload, attempt))`` for each payload; return results in order.

    The deadline-aware replacement for ``pool.map``: same barrier
    semantics (returns only when every task has a result), but a lost
    or wedged attempt is detected within ``timeout`` seconds, the pool
    respawned, and the attempt retried with exponential backoff
    (``backoff_s * 2**attempt``) up to ``max_retries`` extra attempts.

    With both a ``recorder`` and a ``trace`` context, the whole dispatch
    (including retries and respawns) is recorded as one
    ``dispatch:<site>`` child span on the request's lane.

    Raises :class:`~repro.utils.errors.TaskTimeoutError` when a task
    misses its deadline with no budget left, and
    :class:`~repro.utils.errors.RecoveryExhaustedError` when a
    retryable exception persists; any non-retryable task exception
    propagates unwrapped at once.
    """
    if trace is not None and recorder is not None:
        with recorder.span(f"dispatch:{site}", lane=trace.lane, cat=CAT_ROUND,
                           **trace.child().span_args()):
            return run_tasks(
                supervisor, fn, payloads, site=site, timeout=timeout,
                max_retries=max_retries, backoff_s=backoff_s, recorder=recorder,
            )
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(max_retries)
    payloads = list(payloads)
    n = len(payloads)
    results = [None] * n
    pending: dict[int, tuple] = {}  # idx -> (AsyncResult, deadline, attempt)
    n_retries = n_timeouts = 0

    def dispatch(idx: int, attempt: int) -> None:
        res = supervisor.pool.apply_async(fn, ((payloads[idx], attempt),))
        pending[idx] = (res, time.monotonic() + timeout, attempt)

    def backoff(attempt: int) -> None:
        time.sleep(backoff_s * (2**attempt))

    for idx in range(n):
        dispatch(idx, 0)

    remaining = set(range(n))
    while pending:
        for idx in list(pending):
            res, _deadline, attempt = pending[idx]
            if not res.ready():
                continue
            del pending[idx]
            try:
                results[idx] = res.get()
                remaining.discard(idx)
            except RETRYABLE as exc:
                if attempt >= retries:
                    instant_or_null(
                        recorder, FAULT_GIVEUP, site=site, task=idx, attempt=attempt
                    )
                    _note_counts(recorder, site, n_retries, n_timeouts)
                    raise RecoveryExhaustedError(
                        f"{site} task {idx} still failing after "
                        f"{attempt + 1} attempts: {exc}",
                        site=site,
                    ) from exc
                n_retries += 1
                instant_or_null(
                    recorder, FAULT_RETRY, site=site, task=idx,
                    attempt=attempt, error=type(exc).__name__,
                )
                backoff(attempt)
                dispatch(idx, attempt + 1)
            # non-retryable exceptions propagate: they are real bugs,
            # and masking them behind retries would hide miscounts.

        if not pending:
            break
        now = time.monotonic()
        expired = {idx for idx, (_r, dl, _a) in pending.items() if now >= dl}
        if expired:
            n_timeouts += len(expired)
            for idx in sorted(expired):
                instant_or_null(
                    recorder, FAULT_TIMEOUT, site=site, task=idx,
                    attempt=pending[idx][2], timeout_s=timeout,
                )
            exhausted = sorted(
                idx for idx in expired if pending[idx][2] >= retries
            )
            if exhausted:
                instant_or_null(
                    recorder, FAULT_GIVEUP, site=site, tasks=exhausted,
                    attempt=pending[exhausted[0]][2],
                )
                _note_counts(recorder, site, n_retries, n_timeouts)
                raise TaskTimeoutError(
                    f"{site} task(s) {exhausted} missed the {timeout:g}s deadline "
                    f"on every allowed attempt "
                    f"({pending[exhausted[0]][2] + 1} of {retries + 1})",
                    site=site,
                )
            # The pool lost or wedged at least one worker; nothing it
            # still holds can be trusted, so respawn and re-dispatch
            # every pending attempt (expired ones count a retry and
            # back off; collateral ones keep their attempt number, so
            # deterministic injection decisions are unaffected).
            survivors = {idx: a for idx, (_r, _d, a) in pending.items()}
            pending.clear()
            supervisor.respawn(reason=f"{site} deadline")
            min_attempt = min(survivors[idx] for idx in expired)
            backoff(min_attempt)
            for idx, attempt in sorted(survivors.items()):
                if idx in expired:
                    n_retries += 1
                    instant_or_null(
                        recorder, FAULT_RETRY, site=site, task=idx,
                        attempt=attempt, error="TaskTimeout",
                    )
                    dispatch(idx, attempt + 1)
                else:
                    dispatch(idx, attempt)
        else:
            next_dl = min(dl for _r, dl, _a in pending.values())
            step = min(max(next_dl - now, 0.0), _POLL_S)
            # Wait on an arbitrary pending result; the bounded step
            # keeps deadline checks prompt even if that one is hung.
            next(iter(pending.values()))[0].wait(step)

    _note_counts(recorder, site, n_retries, n_timeouts)
    return results


def _note_counts(recorder, site: str, n_retries: int, n_timeouts: int) -> None:
    if recorder is None:
        return
    if n_retries:
        recorder.count(f"{FAULT_RETRY}:{site}", n_retries)
    if n_timeouts:
        recorder.count(f"{FAULT_TIMEOUT}:{site}", n_timeouts)
