"""Cell-identifier packing and neighbour-cell lookup for the grids.

THERMAL-JOIN's primary grid keeps one record per *non-empty* cell
(Figure 3 of the paper) and reaches the neighbouring cells of the
external join without hash lookups.  Here a cell is its packed
identifier: the three integer grid coordinates in a single ``int64``
(21 bits per dimension, biased to allow negative coordinates).  The
build phase groups all objects with one vectorised sort — the moral
equivalent of the paper's ``calculateCellID`` — and the neighbours of
every cell are found at once by :func:`neighbor_pairs`, one binary
search per half-neighbourhood offset over the sorted identifiers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COORD_BITS",
    "COORD_BIAS",
    "pack_cell_ids",
    "unpack_cell_ids",
    "half_neighborhood_offsets",
    "neighbor_pairs",
]

#: Bits per grid coordinate in the packed cell identifier.
COORD_BITS = 21
#: Bias added to each coordinate so negatives pack cleanly.
COORD_BIAS = 1 << (COORD_BITS - 1)
_COORD_MASK = (1 << COORD_BITS) - 1


def pack_cell_ids(coords: np.ndarray) -> np.ndarray:
    """Pack integer grid coordinates ``(n, 3)`` into ``int64`` cell ids.

    Coordinates must lie in ``[-2^20, 2^20)``; with any practical cell
    width that covers grids far beyond the paper's scales.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must have shape (n, 3), got {coords.shape}")
    biased = coords + COORD_BIAS
    if coords.size and (biased.min() < 0 or biased.max() > _COORD_MASK):
        raise ValueError(
            "grid coordinates out of packable range; the grid resolution is "
            "too fine for the dataset extent"
        )
    return (
        (biased[:, 0] << (2 * COORD_BITS))
        | (biased[:, 1] << COORD_BITS)
        | biased[:, 2]
    )


def unpack_cell_ids(cell_ids: np.ndarray) -> np.ndarray:
    """Vectorised inverse of :func:`pack_cell_ids`; returns ``(n, 3)`` coords."""
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    x = ((cell_ids >> (2 * COORD_BITS)) & _COORD_MASK) - COORD_BIAS
    y = ((cell_ids >> COORD_BITS) & _COORD_MASK) - COORD_BIAS
    z = (cell_ids & _COORD_MASK) - COORD_BIAS
    return np.stack([x, y, z], axis=1)


def half_neighborhood_offsets(layers: int | np.ndarray) -> list[tuple[int, int, int]]:
    """Lexicographically positive neighbour offsets within ``layers``.

    The external join must consider each *pair* of adjacent cells exactly
    once, so only half of the neighbourhood is linked (Section 4.2.1,
    Figure 4): of the ``(2L+1)^3 - 1`` offsets, the half whose first
    non-zero component is positive.  For ``layers == 1`` this yields the
    13 offsets the paper quotes for three dimensions.

    ``layers`` may be a scalar or a per-dimension triple (the T-Grid uses
    per-dimension layer counts because its cell width differs per
    dimension).
    """
    layers = np.broadcast_to(np.asarray(layers, dtype=np.int64), (3,))
    if (layers < 0).any():
        raise ValueError(f"layers must be non-negative, got {layers}")
    offsets = []
    for dx in range(-int(layers[0]), int(layers[0]) + 1):
        for dy in range(-int(layers[1]), int(layers[1]) + 1):
            for dz in range(-int(layers[2]), int(layers[2]) + 1):
                if (dx, dy, dz) > (0, 0, 0):
                    offsets.append((dx, dy, dz))
    return offsets


def neighbor_pairs(
    src_ids: np.ndarray, table_ids: np.ndarray, layers: int, direction: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour cells of ``src_ids`` among the sorted ``table_ids``.

    Returns ``(i, j)`` such that ``table_ids[j]`` is the cell at
    ``src_ids[i] + direction * o`` for a half-neighbourhood offset ``o``
    within ``layers`` (``direction=-1`` looks at the mirrored half).
    With ``src_ids`` equal to ``table_ids`` every unordered pair of
    neighbouring cells comes out exactly once, as ``C -> C + o`` — the
    paper's hyperlink graph, found with one ``searchsorted`` per offset.
    Pairs are ordered by offset, then by ``i``.

    A neighbour whose coordinates leave the packable range
    ``[-2^20, 2^20)`` is dropped before its id is formed: per-component
    key arithmetic would carry into the next coordinate and alias a
    cell that is not adjacent.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    table_ids = np.asarray(table_ids, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if not src_ids.size or not table_ids.size:
        return empty, empty.copy()
    biased = unpack_cell_ids(src_ids) + COORD_BIAS
    # For each dimension and shift: whether the shifted coordinate stays
    # packable.  Only then is ``id + packed shift`` the neighbour's id.
    span = range(-int(layers), int(layers) + 1)
    in_range = [
        {
            shift: (biased[:, d] + shift >= 0) & (biased[:, d] + shift <= _COORD_MASK)
            for shift in span
        }
        for d in range(3)
    ]
    last = table_ids.size - 1
    pair_i = []
    pair_j = []
    for ox, oy, oz in half_neighborhood_offsets(layers):
        ox, oy, oz = direction * ox, direction * oy, direction * oz
        valid = in_range[0][ox] & in_range[1][oy] & in_range[2][oz]
        keys = src_ids + ((ox << (2 * COORD_BITS)) + (oy << COORD_BITS) + oz)
        slots = np.minimum(np.searchsorted(table_ids, keys), last)
        hit = np.flatnonzero(valid & (table_ids[slots] == keys))
        pair_i.append(hit)
        pair_j.append(slots[hit])
    return np.concatenate(pair_i), np.concatenate(pair_j)
