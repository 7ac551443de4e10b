"""Border-exchange primitives shared across engines and transports.

These helpers are the concrete data movements behind the transport
contract's verbs 2 and 3 when tiles live in one address space: extract
one side of a merge border from a global label/color array, and apply a
change array to the perimeters of a region's tiles.  The in-process
``local`` transport consumes them directly; the ``shmem`` and ``mmap``
transports share the perimeter geometry (:func:`perimeter_coords`,
:func:`edge_positions`) and the traffic accounting (:func:`side_nbytes`),
so the placements cannot drift.

All functions take the kernel callables (``border_extract`` /
``relabel``) as arguments rather than resolving backends themselves --
backend policy belongs to the callers.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.border_graph import BorderSide
from repro.core.tiles import ProcessorGrid, edge_indices, perimeter_indices


def collect_side(
    labels: np.ndarray,
    image: np.ndarray,
    grid: ProcessorGrid,
    pids,
    edge: str,
    extract,
) -> BorderSide:
    """One border side's labels and colors from global arrays.

    ``pids`` lists the side's tiles in scan order; ``extract`` is the
    ``border_extract`` kernel.  Works on uniform and balanced tilings
    alike (tile shapes come from the grid, not from ``q``/``r``).
    """
    lab_parts = []
    col_parts = []
    for pid in pids:
        sl = grid.tile_slices(pid)
        lab_parts.append(extract(labels[sl], edge))
        col_parts.append(extract(image[sl], edge))
    return BorderSide(np.concatenate(lab_parts), np.concatenate(col_parts))


def relabel_perimeters(
    labels: np.ndarray,
    grid: ProcessorGrid,
    pids,
    alphas: np.ndarray,
    betas: np.ndarray,
    relabel,
) -> None:
    """Apply a change array to the tile perimeters of ``pids``, in place.

    The drastically-limited update: only border pixels are touched
    during the merge rounds.  ``relabel`` is the ``relabel`` kernel.
    """
    for pid in pids:
        r0, c0 = grid.tile_origin(pid)
        h, w = grid.tile_shape(pid)
        rows, cols = perimeter_coords(h, w)
        rows = rows + r0
        cols = cols + c0
        labels[rows, cols] = relabel(labels[rows, cols], alphas, betas)


@functools.lru_cache(maxsize=64)
def perimeter_coords(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column coordinates of a ``h x w`` tile's perimeter (cached)."""
    rows, cols = np.unravel_index(perimeter_indices(h, w), (h, w))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=256)
def edge_positions(h: int, w: int, edge: str) -> np.ndarray:
    """Positions of one edge *within* the sorted perimeter ordering.

    Lets a caller that keeps only perimeter-ordered label vectors
    resident (the out-of-core transport) slice an edge out of them in
    scan order: ``perimeter_labels[edge_positions(h, w, edge)]``.
    """
    perim = perimeter_indices(h, w)
    pos = np.searchsorted(perim, edge_indices(h, w, edge))
    pos.setflags(write=False)
    return pos


def side_nbytes(side: BorderSide) -> int:
    """Byte size of one fetched border side (labels + colors)."""
    return int(side.labels.nbytes + side.colors.nbytes)
