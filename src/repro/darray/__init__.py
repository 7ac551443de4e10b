"""repro.darray: a distributed tile array with pluggable transports.

The paper's connected-components algorithm is already shaped for
distributed tiles: after the initial per-tile labeling, the only
communication in its ``log p`` merge rounds is (a) border pixels and
labels and (b) the sorted change arrays the group managers publish.
This subsystem makes that structure explicit: a
:class:`DistributedArray` owns the ``v x w`` grid of tile shards behind
a :class:`Transport` whose *only* verbs are tile-local compute, border
exchange, and change-array publish/fetch.

Three transports implement the contract (see ``docs/DARRAY.md``):

* ``local`` -- shards are in-process ndarrays (today's behavior);
* ``shmem`` -- shards live in per-tile POSIX shared-memory segments and
  every verb is a dispatched worker task with deadline/retry/respawn
  recovery and a ``darray:<verb>`` fault site -- the repository's one
  multiprocess engine;
* ``mmap`` -- out-of-core: pixels stream from a memory-mapped binary
  PGM, label tiles spill to disk, and only the perimeter labels stay
  resident through the merge rounds, so peak memory is one tile plus
  O(n) borders regardless of image size.

The engines (:func:`darray_components`, :func:`darray_histogram`)
produce labels bit-identical to the serial reference across every
transport x kernel-backend combination (tested).
"""

from repro.darray.array import DistributedArray
from repro.darray.engine import (
    DarrayResult,
    count_components,
    darray_components,
    darray_histogram,
)
from repro.darray.transport import (
    TRANSPORTS,
    Transport,
    TransportStats,
    open_transport,
)

__all__ = [
    "DistributedArray",
    "DarrayResult",
    "Transport",
    "TransportStats",
    "TRANSPORTS",
    "open_transport",
    "count_components",
    "darray_components",
    "darray_histogram",
]
