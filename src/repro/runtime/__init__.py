"""Multiprocess plumbing: supervised pool dispatch + shared memory.

The BDM simulator (:mod:`repro.bdm`) reproduces the paper's *cost
model*; the real-parallel engine is :mod:`repro.darray` over its
``shmem`` transport, which runs the tile-decomposed algorithms in
genuine OS processes (CPython's GIL rules out thread parallelism for
this workload, hence processes + :mod:`multiprocessing.shared_memory`).
This package holds what that engine and the service tier share:

* :mod:`repro.runtime.dispatch` -- :func:`~repro.runtime.dispatch.pool_context`,
  the respawnable :class:`~repro.runtime.dispatch.PoolSupervisor` and
  the deadline/retry dispatcher :func:`~repro.runtime.dispatch.run_tasks`;
* :mod:`repro.runtime.shmem` -- :class:`SharedNDArray` and the
  zero-copy wire plane (:class:`ShmDescriptor`, :class:`ShmArena`).
"""

from repro.runtime.shmem import (
    SharedNDArray,
    ShmArena,
    ShmDescriptor,
    array_digest,
    verify_descriptor_digest,
)

__all__ = [
    "SharedNDArray",
    "ShmArena",
    "ShmDescriptor",
    "array_digest",
    "verify_descriptor_digest",
]
