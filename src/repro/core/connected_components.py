"""Parallel connected components on the BDM machine (Sections 5 and 6).

The algorithm in three acts:

1. **Initial labeling** -- every processor runs a sequential CC pass
   over its own tile, labeling each tile component with the globally
   unique label ``(I q + i) n + (J r + j) + 1`` of its first pixel in
   row-major order (no communication needed for uniqueness), and builds
   its *tile hooks* (one ``(label, border-offset)`` pair per component
   touching the tile border).

2. **log p merge iterations** -- alternating horizontal and vertical
   border merges per :func:`~repro.core.merge.merge_schedule`.  Per
   border, the group manager and shadow manager fetch and sort the two
   border sides; the manager solves the border graph
   (:func:`~repro.core.border_graph.solve_border_merge`) and publishes
   the sorted change array; every processor of the merged region then
   relabels -- and this is the paper's key idea -- *only its tile
   border pixels*, by binary search of the change list ("drastically
   limited updating").

3. **Final consistency update** -- after the last merge each processor
   compares every hook's recorded initial label with the current label
   at the hook's border offset and renames the affected components'
   interior pixels once.

Grey-scale images (Section 6) use the same machinery: the per-tile
labeling joins only equal levels and the border graph adds cross edges
only between equal-colored pixels.

Complexities (equations (11)/(12)): ``T_comp = O(n^2/p)``,
``T_comm <= (4 log p) tau + O(n^2/p)`` for ``p <= n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.baselines.sequential import ENGINES
from repro.bdm.cost import MachineReport
from repro.bdm.machine import Machine
from repro.bdm.memory import GlobalArray
from repro.core.border_graph import BorderSide, solve_border_merge
from repro.core.change_array import ChangeArray, apply_changes
from repro.core.costs import CostParams, DEFAULT_COSTS
from repro.core.hooks import TileHooks, apply_hooks, create_tile_hooks, hook_ops
from repro.core.merge import MergeStep, merge_schedule
from repro.core.tiles import ProcessorGrid, edge_indices, perimeter_indices
from repro.faults.plan import FaultPlan
from repro.kernels import get as get_kernel, resolve_backend
from repro.machines.params import MachineParams, IDEAL
from repro.obs.events import (
    FAULT_FAILOVER,
    FAULT_MANAGER_CRASH,
    FAULT_SHADOW_CRASH,
)
from repro.sorting.hybrid import hybrid_sort_ops
from repro.utils.errors import FailoverError, ValidationError
from repro.utils.validation import check_image


@dataclass
class MergeStepStats:
    """Diagnostics of one merge iteration."""

    t: int
    orientation: str
    n_groups: int
    border_pixels_per_side: int
    n_vertices: int
    n_edges: int
    n_changes: int
    n_failovers: int = 0


@dataclass
class ComponentsResult:
    """Output of :func:`parallel_components`.

    ``labels`` is the assembled ``n x n`` label image: background 0,
    every component labeled with ``1 +`` the row-major index of its
    first pixel (identical to the sequential engines' convention).
    """

    labels: np.ndarray
    report: MachineReport
    grid: ProcessorGrid
    n_components: int
    step_stats: list[MergeStepStats] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return self.report.elapsed_s


def parallel_components(
    image: np.ndarray,
    p: int,
    machine_params: MachineParams = IDEAL,
    *,
    connectivity: int = 8,
    grey: bool = False,
    engine: str = "runs",
    costs: CostParams = DEFAULT_COSTS,
    shadow_manager: bool = True,
    distribution: str = "direct",
    limited_updating: bool = True,
    check_hazards: bool = True,
    overlap: bool = False,
    machine: Machine | None = None,
    kernel: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> ComponentsResult:
    """Label the connected components of an ``n x n`` image on ``p`` processors.

    Parameters
    ----------
    image:
        Integer image; 0 is background.  Binary mode (default) connects
        all non-zero pixels; ``grey=True`` connects equal levels only.
    p:
        Processor count, a power of two with ``p <= n^2`` and the grid
        dividing ``n`` (see :class:`~repro.core.tiles.ProcessorGrid`).
    machine_params:
        Platform cost model for the simulated run.
    connectivity:
        4 or 8 (the paper's two adjacency notions).
    engine:
        Sequential per-tile labeling engine: ``"runs"`` (fast,
        default), ``"bfs"`` (paper-faithful reference), ``"sv"``,
        ``"twopass"``, or ``"kernel"`` (the :mod:`repro.kernels`
        registry; its backend follows the ``kernel`` argument).
    shadow_manager:
        If True (paper's optimization) the processor across the border
        fetches and sorts its side in parallel with the manager;
        if False the manager does both sides itself.
    distribution:
        ``"direct"``: every client fetches the change list straight
        from its manager (equation (8)).  ``"transpose"``: the
        two-round transpose-based distribution of equation (9)/(10).
    limited_updating:
        If True (the paper's algorithm) only tile border pixels are
        relabeled during merges, interiors once at the end via hooks;
        if False every tile pixel is relabeled in every iteration (the
        naive scheme; ablation baseline).
    check_hazards:
        Enable the simulator's same-phase hazard checker.
    overlap:
        Model perfect split-phase overlap of communication and
        computation (see :class:`~repro.bdm.machine.Machine`).
    machine:
        Optional pre-built :class:`Machine` (e.g. with a
        :class:`~repro.bdm.trace.Tracer` attached); must have ``p``
        processors.  When given, the other machine options are ignored.
    kernel:
        Kernel backend (``"python"`` / ``"numpy"``) for the local
        steps dispatched through :mod:`repro.kernels` -- the change-array
        relabel of the update phases, and the tile labeling when
        ``engine="kernel"``.  ``None`` resolves ``REPRO_KERNEL_BACKEND``
        / the numpy default.  The backend changes only how local
        computation runs, never the simulated costs.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  The simulator
        honors ``sim:merge`` specs: a processor loss at a merge-round
        boundary.  Losing a group's *manager* triggers the paper's
        natural redundancy -- the shadow manager already holds one
        sorted border side, so it fetches the other, solves the border
        graph, and publishes the change list itself (bit-identical
        labels, one failover instant on the simulated timeline).
        Losing the *shadow* makes the manager fetch both sides, as if
        ``shadow_manager=False`` for that group.  Losing both (or the
        manager with ``shadow_manager=False``) is unrecoverable and
        raises :class:`~repro.utils.errors.FailoverError`.  Specs at
        other sites target the darray worker processes and are ignored here.
    """
    image = check_image(image, square=False)
    if distribution not in ("direct", "transpose"):
        raise ValidationError(f"unknown distribution {distribution!r}")
    if engine not in ENGINES:
        raise ValidationError(f"unknown engine {engine!r}; known: {sorted(ENGINES)}")
    kernel = resolve_backend(kernel)
    if engine == "kernel":
        label_fn = partial(ENGINES["kernel"], backend=kernel)
    else:
        label_fn = ENGINES[engine]
    relabel_kernel = get_kernel("relabel", backend=kernel)

    grid = ProcessorGrid(p, image.shape)
    stride = grid.cols
    q, r = grid.q, grid.r
    if machine is None:
        machine = Machine(p, machine_params, check_hazards=check_hazards, overlap=overlap)
    elif machine.p != p:
        raise ValidationError(f"machine has {machine.p} processors, expected {p}")
    # Tile placement through the DistributedArray facade (the darray
    # subsystem's in-process transport); imported lazily because
    # repro.core's package init loads this module.
    from repro.darray.array import DistributedArray

    darr = DistributedArray.place(image, grid)

    colors = GlobalArray(machine, q * r, dtype=np.int64, name="colors")
    labels = GlobalArray(machine, q * r, dtype=np.int64, name="labels")
    for pid in range(p):
        colors.place(pid, darr.tile(pid))  # initial placement, free

    # ---- 1. initial per-tile labeling -----------------------------------
    tile_pixels = q * r
    with machine.phase("cc:label"):
        for proc in machine.procs:
            I, J = grid.coords(proc.pid)
            lab = label_fn(
                darr.tile(proc.pid),
                connectivity=connectivity,
                grey=grey,
                label_base=1,
                label_stride=stride,
                row_offset=I * q,
                col_offset=J * r,
            )
            labels.write(proc, proc.pid, lab.ravel())
            proc.charge_comp(costs.label_per_pixel(grey) * tile_pixels)

    hooks: list[TileHooks] = []
    if limited_updating:
        with machine.phase("cc:hooks"):
            for proc in machine.procs:
                lab2d = labels.local(proc.pid).reshape(q, r)
                hooks.append(create_tile_hooks(lab2d))
                bp = hook_ops(q, r)
                proc.charge_comp(costs.hooks_per_border_pixel * bp + hybrid_sort_ops(bp))

    border_idx = perimeter_indices(q, r)
    edge_cache = {name: edge_indices(q, r, name) for name in ("top", "bottom", "left", "right")}

    # ---- 2. merge iterations ---------------------------------------------
    step_stats: list[MergeStepStats] = []
    for step in merge_schedule(grid):
        stats = _run_merge_step(
            machine,
            step,
            labels,
            colors,
            edge_cache,
            border_idx,
            connectivity=connectivity,
            grey=grey,
            costs=costs,
            shadow_manager=shadow_manager,
            distribution=distribution,
            limited_updating=limited_updating,
            tile_pixels=tile_pixels,
            relabel_kernel=relabel_kernel,
            fault_plan=fault_plan,
        )
        step_stats.append(stats)

    # ---- 3. final interior update ----------------------------------------
    if limited_updating:
        with machine.phase("cc:final"):
            for proc in machine.procs:
                lab2d = labels.local(proc.pid).reshape(q, r)
                final = apply_hooks(lab2d, hooks[proc.pid])
                labels.write(proc, proc.pid, final.ravel())
                proc.charge_comp(costs.relabel_per_pixel * tile_pixels)

    full = grid.gather([labels.local(pid).reshape(q, r) for pid in range(p)], dtype=np.int64)
    n_components = int(np.unique(full[full != 0]).size)
    return ComponentsResult(
        labels=full,
        report=machine.report(),
        grid=grid,
        n_components=n_components,
        step_stats=step_stats,
    )


def _fetch_side(machine, proc, pids, edge_idx, labels, colors):
    """Fetch one border side's labels and colors (pipelined prefetch)."""
    lab_parts = []
    col_parts = []
    with proc.prefetch_batch():
        for pid in pids:
            lab_parts.append(labels.read_indices(proc, pid, edge_idx))
            col_parts.append(colors.read_indices(proc, pid, edge_idx))
    return BorderSide(np.concatenate(lab_parts), np.concatenate(col_parts))


def _run_merge_step(
    machine: Machine,
    step: MergeStep,
    labels: GlobalArray,
    colors: GlobalArray,
    edge_cache: dict,
    border_idx: np.ndarray,
    *,
    connectivity: int,
    grey: bool,
    costs: CostParams,
    shadow_manager: bool,
    distribution: str,
    limited_updating: bool,
    tile_pixels: int,
    relabel_kernel=None,
    fault_plan: FaultPlan | None = None,
) -> MergeStepStats:
    """Execute one merge iteration (fetch/sort, solve, distribute+update).

    Per group the protocol runs three roles: the side-A fetcher, the
    side-B fetcher, and the *publisher* (solves the border graph and
    serves the change list).  Normally the manager holds A + publish
    and the shadow holds B; a ``sim:merge`` fault reassigns roles at
    the round boundary -- manager lost, the shadow takes all three
    (failover); shadow lost, the manager does.  The faulted processor's
    tile memory stays served (single global address space), and it
    rejoins as an ordinary update-phase client, so labels stay
    bit-identical to the unfaulted run.
    """
    t = step.t
    edge_a, edge_b = step.edge_names
    idx_a = edge_cache[edge_a]
    idx_b = edge_cache[edge_b]
    side_len = len(idx_a) * len(step.groups[0].side_a_pids)

    # -- role assignment (applies any merge-round-boundary faults) -------
    n_failovers = 0
    roles: dict[int, tuple[int, int, int]] = {}  # manager -> (fetch_a, fetch_b, publisher)
    for gi, group in enumerate(step.groups):
        fetch_a = publisher = group.manager
        fetch_b = group.shadow if shadow_manager else group.manager
        lost: set[str] = set()
        if fault_plan is not None:
            for spec in fault_plan.match_all("sim:merge", round=t - 1, group=gi):
                lost |= {"manager", "shadow"} if spec.target == "both" else {spec.target}
        if "manager" in lost:
            machine.note_instant(
                FAULT_MANAGER_CRASH, lane=group.manager, round=t - 1, group=gi
            )
            if "shadow" in lost or not shadow_manager:
                detail = (
                    f"shadow P{group.shadow} lost too"
                    if "shadow" in lost
                    else "no shadow manager to fail over to"
                )
                raise FailoverError(
                    f"merge round {t - 1} group {gi}: manager P{group.manager} "
                    f"lost and {detail}",
                    site="sim:merge",
                )
            machine.note_instant(
                FAULT_FAILOVER,
                lane=group.shadow,
                round=t - 1,
                group=gi,
                manager=group.manager,
                shadow=group.shadow,
            )
            fetch_a = fetch_b = publisher = group.shadow
            n_failovers += 1
        elif "shadow" in lost and shadow_manager:
            machine.note_instant(
                FAULT_SHADOW_CRASH, lane=group.shadow, round=t - 1, group=gi
            )
            fetch_b = group.manager
            n_failovers += 1
        roles[group.manager] = (fetch_a, fetch_b, publisher)

    sides_a: dict[int, BorderSide] = {}
    sides_b: dict[int, BorderSide] = {}
    with machine.phase(f"cc:m{t}:fetch"):
        for group in step.groups:
            fetch_a, fetch_b, _ = roles[group.manager]
            pa = machine.procs[fetch_a]
            sides_a[group.manager] = _fetch_side(
                machine, pa, group.side_a_pids, idx_a, labels, colors
            )
            pa.charge_comp(hybrid_sort_ops(side_len))
            pb = machine.procs[fetch_b]
            sides_b[group.manager] = _fetch_side(
                machine, pb, group.side_b_pids, idx_b, labels, colors
            )
            pb.charge_comp(hybrid_sort_ops(side_len))

    changes: dict[int, ChangeArray] = {}
    n_vertices = n_edges = n_changes = 0
    with machine.phase(f"cc:m{t}:solve"):
        for group in step.groups:
            _, fetch_b, publisher = roles[group.manager]
            pub = machine.procs[publisher]
            if fetch_b != publisher:
                # Publisher prefetches the other fetcher's sorted side
                # (labels + colors); that fetcher reverts to a client.
                machine.transfer(fetch_b, publisher, 2 * side_len)
            solve = solve_border_merge(
                sides_a[group.manager],
                sides_b[group.manager],
                connectivity=connectivity,
                grey=grey,
            )
            changes[group.manager] = solve.changes
            pub.charge_comp(
                costs.graph_build_per_vertex * solve.n_vertices
                + costs.graph_cc_per_vertex * solve.n_vertices
                + costs.change_per_entry * len(solve.changes)
                + hybrid_sort_ops(len(solve.changes))
            )
            n_vertices += solve.n_vertices
            n_edges += solve.n_edges
            n_changes += len(solve.changes)

    if distribution == "transpose":
        _distribute_transpose(machine, step, changes, roles)

    with machine.phase(f"cc:m{t}:update"):
        for group in step.groups:
            publisher = roles[group.manager][2]
            ch = changes[group.manager]
            ch_words = 1 + 2 * len(ch)
            for pid in group.region:
                proc = machine.procs[pid]
                if distribution == "direct" and pid != publisher:
                    # Client prefetches chSize, then the change pairs,
                    # straight from the publisher (equation (8)).
                    machine.transfer(publisher, pid, ch_words)
                _update_tile(
                    proc, pid, labels, border_idx, ch,
                    costs=costs,
                    limited_updating=limited_updating,
                    tile_pixels=tile_pixels,
                    relabel_kernel=relabel_kernel,
                )

    return MergeStepStats(
        t=t,
        orientation=step.orientation,
        n_groups=len(step.groups),
        border_pixels_per_side=side_len,
        n_vertices=n_vertices,
        n_edges=n_edges,
        n_changes=n_changes,
        n_failovers=n_failovers,
    )


def _update_tile(
    proc, pid, labels, border_idx, ch, *,
    costs, limited_updating, tile_pixels, relabel_kernel=None,
):
    """Relabel a processor's pixels against a change array.

    The binary-search relabel itself is a kernel-dispatched local step;
    the default (``relabel_kernel=None``) is the vectorized
    :func:`~repro.core.change_array.apply_changes` equivalent.
    """
    if len(ch) == 0:
        return
    if relabel_kernel is None:
        relabel = partial(apply_changes, changes=ch)
    else:
        relabel = partial(relabel_kernel, alphas=ch.alphas, betas=ch.betas)
    if limited_updating:
        cur = labels.read_indices(proc, pid, border_idx)
        labels.write_indices(proc, pid, border_idx, relabel(cur))
        proc.charge_comp(costs.binary_search_ops(len(border_idx), len(ch)))
    else:
        cur = labels.read(proc, pid)
        labels.write(proc, pid, relabel(cur))
        proc.charge_comp(costs.binary_search_ops(tile_pixels, len(ch)))


def _distribute_transpose(
    machine: Machine,
    step: MergeStep,
    changes: dict[int, ChangeArray],
    roles: dict[int, tuple[int, int, int]],
) -> None:
    """Equation (9)/(10): two-round change-list distribution.

    Round 1: the publisher (the manager, or the shadow after a
    failover) hands each of the ``f`` region processors one
    ``ceil(c/f)``-word slice of the serialized change list.  Round 2:
    the processors exchange slices circularly, so everyone assembles
    the full list at cost ``2 (tau + c - c/f)`` instead of the direct
    scheme's ``f``-fold serialization at the publisher.
    The reassembled list replaces the publisher-held one in ``changes``
    consumption order, keeping the data path honest.
    """
    t = step.t
    # Per-processor slice lengths for this step's groups.
    lengths = [0] * machine.p
    group_meta = {}
    for group in step.groups:
        region = group.region
        f = len(region)
        ch = changes[group.manager]
        words = ch.to_words()
        c = len(words)
        slice_len = -(-max(c, 1) // f)  # ceil; >=1 so blocks are addressable
        padded = np.zeros(slice_len * f, dtype=np.int64)
        padded[:c] = words
        group_meta[group.manager] = (region, f, slice_len, padded, len(ch))
        for pid in region:
            lengths[pid] = slice_len
    slices = GlobalArray(machine, lengths, dtype=np.int64, name=f"chslices:m{t}")

    with machine.phase(f"cc:m{t}:dist1"):
        for group in step.groups:
            region, f, slice_len, padded, _ = group_meta[group.manager]
            publisher = roles[group.manager][2]
            for rank, pid in enumerate(region):
                proc = machine.procs[pid]
                if pid != publisher:
                    machine.transfer(publisher, pid, slice_len + 1)
                slices.write(proc, pid, padded[rank * slice_len : (rank + 1) * slice_len])

    with machine.phase(f"cc:m{t}:dist2"):
        for group in step.groups:
            region, f, slice_len, _, n_ch = group_meta[group.manager]
            region_list = list(region)
            for my_rank, pid in enumerate(region_list):
                proc = machine.procs[pid]
                parts = [None] * f
                with proc.prefetch_batch():
                    for hop in range(f):
                        rank = (my_rank + hop) % f
                        parts[rank] = slices.read(proc, region_list[rank])
                words = np.concatenate(parts)[: 2 * n_ch]
                if pid == group.manager:
                    # Everyone reassembles identically; adopt one copy so
                    # the update phase consumes shipped (not workspace) data.
                    changes[group.manager] = ChangeArray.from_words(words)
