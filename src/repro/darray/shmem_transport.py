"""Multiprocess transport: per-tile shared-memory shards, dispatched verbs.

Every tile gets two POSIX shared-memory segments (image shard + label
shard, :class:`~repro.runtime.shmem.SharedNDArray`); the verbs run as
tasks on a :class:`~repro.runtime.dispatch.PoolSupervisor` through the
deadline/retry/respawn dispatcher, so a crashed, hung, or corrupted
verb is recovered exactly like any other dispatched task.  Every verb
task is a fault site, named like the dispatch site it runs under:

* ``darray:label`` / ``darray:final`` / ``darray:hist`` fire in the
  tile-local tasks (``task`` = tile id);
* ``darray:border`` fires in a border-exchange task; a ``corrupt`` spec
  damages the fetched labels, which validation converts into the
  retryable :class:`~repro.utils.errors.CorruptPayloadError`;
* ``darray:fetch`` fires in a change-array fetch/apply task (the
  region's shards fetching the published change list).

Faults fire at task entry -- before any shard mutation -- so a retried
attempt always starts from a consistent view, and the change-array
relabel is idempotent besides (one solve's alpha and beta sets are
disjoint).  Teardown is ExitStack-guaranteed: every path out of
:meth:`ShmemTransport.close` unlinks all ``2p`` segments, which the
``/dev/shm`` leak scans assert.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.hooks import TileHooks, apply_hooks, create_tile_hooks
from repro.core.tiles import ProcessorGrid
from repro.darray.borders import perimeter_coords, side_nbytes
from repro.darray.transport import Transport
from repro.faults.inject import corrupt_labels, fire, install_plan, validate_border_labels
from repro.faults.plan import FaultPlan
from repro.kernels import get as get_kernel, resolve_backend
from repro.obs.runtime import init_worker_sink, task_span, worker_instant
from repro.runtime.dispatch import PoolSupervisor, pool_context, run_tasks
from repro.runtime.shmem import SharedNDArray
from repro.utils.errors import CorruptPayloadError
from repro.utils.validation import check_image

#: Worker-side shard attachments and options (set by the initializer).
_SHARD: dict = {}


def _shard_init(metas, opts, obs=None, plan: FaultPlan | None = None) -> None:
    """Pool initializer: attach every shard segment, install the plan."""
    init_worker_sink(obs)
    install_plan(plan)
    _SHARD["tiles"] = {
        pid: (SharedNDArray.attach(img_meta), SharedNDArray.attach(lab_meta))
        for pid, (img_meta, lab_meta) in metas.items()
    }
    _SHARD["opts"] = opts


def _shard_label(arg):
    """Verb 1: label one shard in place; return its hooks."""
    pid, attempt = arg
    fire("darray:label", task=pid, attempt=attempt)
    with task_span(f"darray:label:t{pid}"):
        opts = _SHARD["opts"]
        img, lab = _SHARD["tiles"][pid]
        r0, c0 = opts["origins"][pid]
        result = get_kernel("tile_label", backend=opts["kernel"])(
            img.array,
            connectivity=opts["connectivity"],
            grey=opts["grey"],
            label_base=1,
            label_stride=opts["stride"],
            row_offset=r0,
            col_offset=c0,
        )
        lab.array[:] = result
        return pid, create_tile_hooks(result)


def _shard_border(arg):
    """Verb 2: extract one border side from the owning shards."""
    (step_index, group_index, pids, edge), attempt = arg
    spec = fire("darray:border", round=step_index, group=group_index, attempt=attempt)
    with task_span(f"darray:border:s{step_index}g{group_index}:{edge}"):
        opts = _SHARD["opts"]
        extract = get_kernel("border_extract", backend=opts["kernel"])
        lab_parts = []
        col_parts = []
        for pid in pids:
            img, lab = _SHARD["tiles"][pid]
            lab_parts.append(extract(lab.array, edge))
            col_parts.append(extract(img.array, edge))
        labels = np.concatenate(lab_parts)
        colors = np.concatenate(col_parts)
        if spec is not None:
            labels = corrupt_labels(labels)
        try:
            validate_border_labels(labels)
        except CorruptPayloadError:
            worker_instant(
                "fault:corrupt-detected", round=step_index, group=group_index
            )
            raise
        return labels, colors


def _shard_fetch_changes(arg):
    """Verb 3: fetch the change array and relabel the region perimeters."""
    (step_index, group_index, pids, alphas, betas), attempt = arg
    fire("darray:fetch", round=step_index, group=group_index, attempt=attempt)
    with task_span(f"darray:fetch:s{step_index}g{group_index}"):
        opts = _SHARD["opts"]
        relabel = get_kernel("relabel", backend=opts["kernel"])
        for pid in pids:
            _img, lab = _SHARD["tiles"][pid]
            h, w = lab.array.shape
            rows, cols = perimeter_coords(h, w)
            lab.array[rows, cols] = relabel(lab.array[rows, cols], alphas, betas)
        return len(pids)


def _shard_final(arg):
    """Verb 1: hook-based final interior relabel of one shard."""
    (pid, hooks), attempt = arg
    fire("darray:final", task=pid, attempt=attempt)
    with task_span(f"darray:final:t{pid}"):
        _img, lab = _SHARD["tiles"][pid]
        lab.array[:] = apply_hooks(lab.array, hooks)
        return pid


def _shard_hist(arg):
    """Verb 1: grey-level tally of one shard."""
    (pid, k), attempt = arg
    fire("darray:hist", task=pid, attempt=attempt)
    with task_span(f"darray:hist:t{pid}"):
        opts = _SHARD["opts"]
        img, _lab = _SHARD["tiles"][pid]
        return get_kernel("histogram", backend=opts["kernel"])(img.array, k)


class ShmemTransport(Transport):
    """Per-tile shared-memory shards served by a supervised worker pool."""

    name = "shmem"

    def __init__(
        self,
        grid: ProcessorGrid,
        image: np.ndarray,
        *,
        connectivity: int = 8,
        grey: bool = False,
        kernel: str | None = None,
        recorder=None,
        fault_plan: FaultPlan | None = None,
        timeout: float | None = None,
        max_retries: int | None = None,
        workers: int | None = None,
        **_ignored,
    ):
        super().__init__(grid)
        image = check_image(np.asarray(image), square=False)
        self.kernel = resolve_backend(kernel)
        self._recorder = recorder
        self._dispatch = dict(timeout=timeout, max_retries=max_retries, recorder=recorder)
        self._stack = contextlib.ExitStack()
        self._shards: dict[int, tuple[SharedNDArray, SharedNDArray]] = {}
        try:
            metas = {}
            for pid in range(grid.p):
                sl = grid.tile_slices(pid)
                img_shm = self._stack.enter_context(
                    SharedNDArray.from_array(np.ascontiguousarray(image[sl]))
                )
                lab_shm = self._stack.enter_context(
                    SharedNDArray.create(grid.tile_shape(pid), np.int64)
                )
                self._shards[pid] = (img_shm, lab_shm)
                metas[pid] = (img_shm.meta, lab_shm.meta)
            opts = {
                "origins": {pid: grid.tile_origin(pid) for pid in range(grid.p)},
                "stride": grid.cols,
                "connectivity": connectivity,
                "grey": grey,
                "kernel": self.kernel,
            }
            ctx = pool_context()
            obs = None
            if recorder is not None:
                recorder.make_queue(ctx)
                obs = recorder.worker_init_args()
            if workers is None:
                workers = min(grid.p, max(1, os.cpu_count() or 1), 16)
            self._pool = self._stack.enter_context(
                PoolSupervisor(
                    ctx,
                    workers,
                    initializer=_shard_init,
                    initargs=(metas, opts, obs, fault_plan),
                    recorder=recorder,
                )
            )
        except BaseException:
            self._stack.close()
            raise

    def _run(self, fn, payloads, site: str) -> list:
        """Dispatch one verb's tasks, then fold the workers' spans in.

        Draining after every verb keeps the span pipe from filling up
        (a worker blocked on a full pipe would look hung).
        """
        try:
            return run_tasks(self._pool, fn, payloads, site=site, **self._dispatch)
        finally:
            if self._recorder is not None:
                self._recorder.drain()

    # -- verb 1: tile-local compute ---------------------------------------

    def label(self) -> dict[int, TileHooks]:
        return dict(self._run(_shard_label, range(self.grid.p), "darray:label"))

    def finalize(self, hooks: dict[int, TileHooks]) -> None:
        self._run(
            _shard_final, [(pid, hooks[pid]) for pid in range(self.grid.p)],
            "darray:final",
        )

    def histogram(self, k: int) -> np.ndarray:
        partials = self._run(
            _shard_hist, [(pid, k) for pid in range(self.grid.p)], "darray:hist"
        )
        return np.sum(partials, axis=0, dtype=np.int64)

    # -- verb 2: border exchange -------------------------------------------

    def border(self, step_index, group_index, pids, edge) -> BorderSide:
        ((labels, colors),) = self._run(
            _shard_border, [(step_index, group_index, tuple(pids), edge)],
            "darray:border",
        )
        side = BorderSide(labels, colors)
        self.stats.border_bytes += side_nbytes(side)
        return side

    # -- verb 3: change publish/fetch --------------------------------------

    def publish(self, step_index, group_index, pids, alphas, betas) -> None:
        self._run(
            _shard_fetch_changes,
            [(step_index, group_index, tuple(pids), alphas, betas)],
            "darray:fetch",
        )
        self.stats.change_bytes += int((alphas.nbytes + betas.nbytes) * len(pids))

    # -- collection / lifecycle --------------------------------------------

    def gather(self) -> np.ndarray:
        out = np.zeros((self.grid.rows, self.grid.cols), dtype=np.int64)
        for pid, (_img, lab) in self._shards.items():
            out[self.grid.tile_slices(pid)] = lab.array
        return out

    def close(self) -> None:
        self._stack.close()
        self._shards.clear()
