"""Transport-independent drivers: the paper's schedule over a DistributedArray.

:func:`darray_components` and :func:`darray_histogram` run the Bader--
JaJa algorithms against any registered transport: initial tile-local
labeling, ``log p`` border merges (fetch two sides, solve the border
graph, publish the change array to the merged region), hook-based
final interior update.  The *only* transport-facing operations are the
three verbs, so the same driver labels an in-process array, a grid of
shared-memory shards served by a supervised pool, or an out-of-core
spill set over a memory-mapped image -- bit-identically.

Observability: the driver wraps the phases in ``darray:label`` /
``darray:merge:r<t>`` / ``darray:final`` spans and republishes the
transport's traffic counters (border bytes, change bytes, spill
reads/writes, resident-tile highwater) as ``darray:*`` counts.

Fault handling: the ``shmem`` transport dispatches every verb through
the deadline/retry/respawn dispatcher (:mod:`repro.runtime.dispatch`),
and an unrecoverable :class:`~repro.utils.errors.FaultError` out of a
transport degrades to the serial kernel engine (``DegradedRunWarning``
+ ``fault:degrade`` instant, bit-identical result) unless
``degrade=False``.
"""

from __future__ import annotations

import pathlib
import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.border_graph import solve_border_merge
from repro.core.merge import merge_schedule
from repro.core.tiles import ProcessorGrid
from repro.darray.array import DistributedArray
from repro.darray.transport import TransportStats
from repro.kernels import get as get_kernel, resolve_backend
from repro.obs.events import (
    DARRAY_BORDER_BYTES,
    DARRAY_CHANGE_BYTES,
    DARRAY_FINAL,
    DARRAY_LABEL,
    DARRAY_RESIDENT_HIGHWATER,
    DARRAY_SPILL_READS,
    DARRAY_SPILL_WRITES,
    FAULT_DEGRADE,
)
from repro.obs.runtime import WallRecorder, instant_or_null, span_or_null
from repro.utils.errors import DegradedRunWarning, FaultError, ValidationError
from repro.utils.validation import check_image, check_power_of_two

#: Row-block size (in pixels) for the streaming component count.
_COUNT_BLOCK = 1 << 20


@dataclass
class DarrayResult:
    """Labeling result plus the transport's traffic accounting.

    ``labels`` is an ordinary ndarray for the in-memory transports and
    a read-only ``numpy.memmap`` for ``mmap`` (the result never
    materializes in RAM); ``n_components`` is computed by the streaming
    counter either way.
    """

    labels: np.ndarray
    n_components: int
    stats: TransportStats
    grid: ProcessorGrid


def count_components(labels: np.ndarray) -> int:
    """Number of components, streamed in O(1) memory over any label array.

    Exploits the seed-label convention: every component's final label
    is the globally-offset seed ``row * cols + col + 1`` of one of its
    own pixels, so counting pixels whose label equals their own seed
    counts components -- one row block at a time, which never pages a
    memory-mapped result in wholesale.
    """
    flat = labels.reshape(-1)
    total = 0
    for lo in range(0, flat.shape[0], _COUNT_BLOCK):
        block = np.asarray(flat[lo : lo + _COUNT_BLOCK])
        total += int(
            np.count_nonzero(
                block == np.arange(lo + 1, lo + 1 + block.shape[0], dtype=np.int64)
            )
        )
    return total


def _resolve_source(source, transport: str):
    """Split an image source into (shape, transport argument).

    A file path stays a path for ``mmap`` (the transport maps or stages
    it; only the header is read here) and is decoded for the in-memory
    transports.  An array is validated and passed through.
    """
    if isinstance(source, (str, pathlib.Path)):
        from repro.images.io import pnm_info, read_pnm

        if transport == "mmap":
            return pnm_info(source).shape, source
        image = read_pnm(source)
        return image.shape, image
    image = check_image(np.asarray(source), square=False)
    return image.shape, image


def _emit_stats(recorder: WallRecorder | None, stats: TransportStats) -> None:
    if recorder is None:
        return
    recorder.count(DARRAY_BORDER_BYTES, stats.border_bytes)
    recorder.count(DARRAY_CHANGE_BYTES, stats.change_bytes)
    recorder.count(DARRAY_SPILL_READS, stats.spill_reads)
    recorder.count(DARRAY_SPILL_WRITES, stats.spill_writes)
    recorder.count(DARRAY_RESIDENT_HIGHWATER, stats.resident_highwater)


def _degrade_or_raise(
    exc: FaultError, degrade: bool, recorder, what: str
) -> None:
    if recorder is not None:
        recorder.drain()
    if not degrade:
        raise exc
    warnings.warn(
        DegradedRunWarning(
            f"darray {what} degraded to the serial engine after "
            f"unrecoverable fault: {exc}"
        ),
        stacklevel=3,
    )
    instant_or_null(
        recorder, FAULT_DEGRADE, what=what, error=type(exc).__name__, detail=str(exc)
    )


def darray_components(
    source,
    *,
    p: int = 4,
    transport: str = "local",
    connectivity: int = 8,
    grey: bool = False,
    kernel: str | None = None,
    shape: tuple[int, int] | None = None,
    recorder: WallRecorder | None = None,
    fault_plan=None,
    timeout: float | None = None,
    max_retries: int | None = None,
    workers: int | None = None,
    spill_dir=None,
    resident_tiles: int = 1,
    degrade: bool = True,
) -> DarrayResult:
    """Connected components of ``source`` over a DistributedArray.

    ``source`` is a 2-D image array or a PNM file path; with
    ``transport="mmap"`` a binary-PGM path is memory-mapped and never
    read whole.  The grid uses the balanced (non-strict) partition, so
    any image at least ``v x w`` pixels works; ``shape`` forces an
    explicit ``(v, w)`` grid (e.g. ``(1, p)`` for strip tiling).

    ``fault_plan`` / ``timeout`` / ``max_retries`` / ``workers`` apply
    to the dispatched (``shmem``) transport; ``spill_dir`` /
    ``resident_tiles`` to the out-of-core one.  On an unrecoverable
    fault the call degrades to the serial kernel engine unless
    ``degrade=False`` (then the :class:`FaultError` propagates after
    transport teardown -- no segments or spill files leak).
    """
    image_shape, image = _resolve_source(source, transport)
    grid = ProcessorGrid(p, image_shape, strict=False, shape=shape)
    kernel = resolve_backend(kernel)
    try:
        with DistributedArray.open(
            transport,
            grid,
            image,
            connectivity=connectivity,
            grey=grey,
            kernel=kernel,
            recorder=recorder,
            fault_plan=fault_plan,
            timeout=timeout,
            max_retries=max_retries,
            workers=workers,
            spill_dir=spill_dir,
            resident_tiles=resident_tiles,
        ) as da:
            with span_or_null(recorder, DARRAY_LABEL):
                hooks = da.label()
            for si, step in enumerate(merge_schedule(grid)):
                edge_a, edge_b = step.edge_names
                with span_or_null(recorder, f"darray:merge:r{step.t}"):
                    for gi, group in enumerate(step.groups):
                        side_a = da.border(si, gi, group.side_a_pids, edge_a)
                        side_b = da.border(si, gi, group.side_b_pids, edge_b)
                        solve = solve_border_merge(
                            side_a, side_b, connectivity=connectivity, grey=grey
                        )
                        if len(solve.changes):
                            da.publish(
                                si,
                                gi,
                                group.region,
                                solve.changes.alphas,
                                solve.changes.betas,
                            )
            with span_or_null(recorder, DARRAY_FINAL):
                da.finalize(hooks)
            labels = da.gather()
            stats = da.stats
    except FaultError as exc:
        _degrade_or_raise(exc, degrade, recorder, "components")
        if isinstance(image, (str, pathlib.Path)):
            from repro.images.io import read_pnm

            image = read_pnm(image)
        labels = get_kernel("tile_label", backend=kernel)(
            image, connectivity=connectivity, grey=grey
        )
        stats = TransportStats()
        return DarrayResult(labels, count_components(labels), stats, grid)
    _emit_stats(recorder, stats)
    return DarrayResult(labels, count_components(labels), stats, grid)


def darray_histogram(
    source,
    k: int,
    *,
    p: int = 4,
    transport: str = "local",
    kernel: str | None = None,
    shape: tuple[int, int] | None = None,
    recorder: WallRecorder | None = None,
    fault_plan=None,
    timeout: float | None = None,
    max_retries: int | None = None,
    workers: int | None = None,
    spill_dir=None,
    resident_tiles: int = 1,
    degrade: bool = True,
) -> np.ndarray:
    """Grey-level histogram of ``source`` via per-shard tallies (verb 1)."""
    check_power_of_two("k", k)
    image_shape, image = _resolve_source(source, transport)
    grid = ProcessorGrid(p, image_shape, strict=False, shape=shape)
    kernel = resolve_backend(kernel)
    try:
        with DistributedArray.open(
            transport,
            grid,
            image,
            kernel=kernel,
            recorder=recorder,
            fault_plan=fault_plan,
            timeout=timeout,
            max_retries=max_retries,
            workers=workers,
            spill_dir=spill_dir,
            resident_tiles=resident_tiles,
        ) as da:
            with span_or_null(recorder, "darray:hist"):
                hist = da.histogram(k)
            stats = da.stats
    except FaultError as exc:
        _degrade_or_raise(exc, degrade, recorder, "histogram")
        if isinstance(image, (str, pathlib.Path)):
            from repro.images.io import read_pnm

            image = read_pnm(image)
        return get_kernel("histogram", backend=kernel)(np.asarray(image), k)
    hist = np.asarray(hist, dtype=np.int64)
    if int(hist.sum()) != grid.rows * grid.cols:
        raise ValidationError(
            f"histogram mass {int(hist.sum())} != pixel count "
            f"{grid.rows * grid.cols}"
        )
    _emit_stats(recorder, stats)
    return hist
