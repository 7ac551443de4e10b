"""Deterministic fault injection and recovery (`repro.faults`).

The paper's merge phase already designates a **shadow manager**
directly across each border (Section 5) -- a redundancy hook this
package exploits: a declarative, seeded :class:`FaultPlan` injects
worker crashes, hangs, transient exceptions, and corrupted border
payloads at named sites, and the two engines recover:

* the **multiprocess darray engine** (``shmem`` transport) gains
  per-task deadlines, bounded retry with exponential backoff, pool
  respawn on worker death (:mod:`repro.runtime.dispatch`), and
  graceful degradation to the serial engine;
* the **BDM simulator** gains a processor-fault model at merge-round
  boundaries where the shadow manager fails over, so any single
  manager loss per round still yields bit-identical labels
  (:func:`repro.core.connected_components.parallel_components` with
  ``fault_plan=``).

Under every single-fault plan a run either returns results
bit-identical to the unfaulted serial engine or raises a typed
:class:`~repro.utils.errors.FaultError` within the deadline -- never a
hang, never a leaked ``/dev/shm`` segment
(:mod:`repro.faults.leakcheck`).  See ``docs/FAULTS.md``.
"""

from repro.faults.inject import (
    corrupt_labels,
    corrupt_pixels,
    fire,
    fire_async,
    install_plan,
    validate_border_labels,
)
from repro.faults.leakcheck import assert_no_shm_leak, leaked_since, shm_segments
from repro.faults.plan import (
    KINDS,
    SCHEMA,
    SITES,
    TARGETS,
    FaultPlan,
    FaultSpec,
    single_fault_plans,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "SITES",
    "KINDS",
    "TARGETS",
    "SCHEMA",
    "single_fault_plans",
    "install_plan",
    "fire",
    "fire_async",
    "corrupt_labels",
    "corrupt_pixels",
    "validate_border_labels",
    "shm_segments",
    "leaked_since",
    "assert_no_shm_leak",
]
