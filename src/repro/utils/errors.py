"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch a single type.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid machine / grid / algorithm configuration was requested.

    Examples: a processor count that is not a power of two, more
    processors than pixels, a grey-level count that is not a power of
    two.
    """


class ValidationError(ReproError, ValueError):
    """An input value (image, array, parameter) failed validation."""


class HazardError(ReproError, RuntimeError):
    """A same-phase memory hazard was detected by the BDM simulator.

    The phase-based SPMD execution model requires that within one phase
    no two processors touch the same word with at least one write
    (real machines would order these through the barrier that separates
    phases).  The per-word shadow memory checker
    (:mod:`repro.checker.shadow`) classifies violations as
    read-after-write, write-after-write, or write-after-read and raises
    this error; the structured record is attached as the ``hazard``
    attribute when available.
    """

    hazard = None  #: :class:`repro.checker.shadow.Hazard` provenance, if any


class LintError(ReproError):
    """Static analysis found a discipline violation in an SPMD program.

    Raised by strict-mode entry points (the ``spmd_strict`` pytest
    fixture); plain ``repro check`` reports diagnostics without raising.
    """


class FaultError(ReproError, RuntimeError):
    """A fault (injected or real) could not be recovered from.

    The hardened runtime (:mod:`repro.runtime.dispatch`) and the
    simulator's failover model (:mod:`repro.core.connected_components`)
    guarantee that a faulted run either returns results bit-identical
    to the unfaulted serial engine -- via retry, shadow-manager
    failover, or degradation to the serial engine -- or raises a typed
    subclass of this error within the configured deadline.  It never
    hangs and never returns silently wrong labels.

    ``site`` names the fault site (see :data:`repro.faults.plan.SITES`)
    when known.
    """

    def __init__(self, message: str, *, site: str | None = None):
        super().__init__(message)
        self.site = site


class TransientTaskError(FaultError):
    """An injected transient exception inside a worker task.

    Retryable: the dispatcher re-runs the task (with backoff) and only
    escalates to :class:`RecoveryExhaustedError` when retries run out.
    """


class CorruptPayloadError(FaultError):
    """A border payload failed validation (e.g. negative labels).

    Raised by the merge task's payload check when an injected (or real)
    corruption is detected before the border graph is solved; retryable
    like :class:`TransientTaskError`.
    """


class TaskTimeoutError(FaultError):
    """A worker task missed its deadline on every allowed attempt.

    Covers both hangs and hard worker crashes (a crashed worker's task
    never completes, so its deadline expires); the dispatcher respawns
    the pool and retries before raising this.
    """


class WorkerCrashError(FaultError):
    """A pool worker died (non-zero exit) while tasks were in flight."""


class RecoveryExhaustedError(FaultError):
    """A retryable task fault persisted past the retry budget."""


class ServiceOverloadError(ReproError, RuntimeError):
    """The serving layer shed a request because its queue was full.

    Raised by the admission controller of :mod:`repro.service` when the
    bounded request queue is at its configured depth.  Load shedding is
    deliberate: refusing work immediately (so callers can back off or
    retry elsewhere) beats queueing unboundedly until every request
    times out.  ``depth`` carries the queue depth at rejection time.
    """

    def __init__(self, message: str, *, depth: int | None = None):
        super().__init__(message)
        self.depth = depth


class ServiceClosedError(ReproError, RuntimeError):
    """A request was submitted to a service that is not running."""


class ServiceDrainingError(ReproError, RuntimeError):
    """A request arrived while the service was draining for shutdown.

    Raised (and sent as a typed wire reply) once a ``shutdown`` control
    op -- or a router-initiated shard retirement -- has been accepted:
    the service stops admitting new work, finishes its in-flight
    batches within the drain deadline, and only then exits.  Clients
    should retry against another shard; the router does so
    automatically.
    """


class ShardDownError(ReproError, RuntimeError):
    """Every routing candidate for a request was down or unreachable.

    Raised by the shard router when the ring walk exhausts all shards
    (each one open-circuited, dead, or failing) without an answer.
    ``attempts`` carries the per-shard failure summary when known.
    """

    def __init__(self, message: str, *, attempts: list | None = None):
        super().__init__(message)
        self.attempts = attempts or []


class DegradedRunWarning(UserWarning):
    """The process-parallel darray engine fell back to the serial engine.

    Emitted (with a ``fault:degrade`` obs instant) when fault recovery
    was exhausted and the caller allowed degradation; the returned
    result is still bit-identical to the serial engine -- it just was
    not computed in parallel.
    """


class FailoverError(FaultError):
    """The simulator lost both the manager and its shadow in one round.

    The paper's redundancy covers any *single* manager loss per border:
    the shadow manager directly across the border takes over the solve.
    Losing both ends of a border in the same round leaves nobody to
    solve it, so the run fails with this typed error.
    """
