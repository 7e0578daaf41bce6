"""Cell-pair join: the sequential one-cell-pair reference.

Both the P-Grid external join and the T-Grid cell-pair join use the same
"optimized variant of the plane-sweep approach" (Section 4.2.1): before
sweeping two cells' object lists, objects of cell A whose MBR encloses
the entire extent of cell B are paired with *all* of B's objects without
any overlap test — the cell extent encloses the centers of B's objects,
and an MBR that contains another object's center is guaranteed to
overlap it with positive volume.

Instead of the nominal cell MBR we use the tight bounding box of the
member objects' *centers* (computed during assignment).  It is contained
in the nominal cell box, so every shortcut the paper's check would take
is also taken here (plus some extra), and the overlap guarantee is
immune to objects that sit exactly on a cell boundary after floating-
point assignment.

:func:`join_sorted_lists` is the sequential one-cell-pair formulation,
kept as the readable reference and as the oracle for the batched
``cell_pair_sweep`` kernel of :mod:`repro.geometry.kernels`, which the
engine's external-join tasks and the T-Grid call directly.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.geometry import encloses, sweep_between

if TYPE_CHECKING:
    from repro.geometry import PairAccumulator

__all__ = ["join_sorted_lists"]


def join_sorted_lists(
    lo: np.ndarray,
    hi: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    b_center_lo: np.ndarray,
    b_center_hi: np.ndarray,
    accumulator: PairAccumulator,
) -> tuple[int, int]:
    """Join two disjoint, x-sorted object lists (cell A against cell B).

    Parameters
    ----------
    lo, hi:
        Global box arrays for the whole dataset.
    a_idx, b_idx:
        Dataset indices of the two cells' objects, each sorted ascending
        by lower x bound.
    b_center_lo, b_center_hi:
        Tight bounds of cell B's member centers (the enclosure-shortcut
        target).
    accumulator:
        Pair accumulator receiving the results.

    Returns
    -------
    tuple
        ``(tests, shortcut_pairs)`` — the number of pairwise overlap
        tests performed and the number of result pairs emitted without a
        test via the enclosure shortcut.
    """
    if a_idx.size == 0 or b_idx.size == 0:
        return 0, 0

    lo_a = lo[a_idx]
    hi_a = hi[a_idx]
    shortcut_pairs = 0
    # Objects of A that enclose all of B's centers overlap every object
    # of B; emit those pairs combinatorially.
    enclosing = encloses(lo_a, hi_a, b_center_lo, b_center_hi)
    if enclosing.any():
        enclosing_ids = a_idx[enclosing]
        accumulator.extend(
            np.repeat(enclosing_ids, b_idx.size),
            np.tile(b_idx, enclosing_ids.size),
        )
        shortcut_pairs = int(enclosing_ids.size) * int(b_idx.size)
        a_idx = a_idx[~enclosing]
        if a_idx.size == 0:
            return 0, shortcut_pairs
        lo_a = lo_a[~enclosing]
        hi_a = hi_a[~enclosing]

    a_ids, b_ids, tests = sweep_between(lo_a, hi_a, a_idx, lo[b_idx], hi[b_idx], b_idx)
    accumulator.extend(a_ids, b_ids)
    return tests, shortcut_pairs
