"""Vectorised numpy implementations of the verify-kernel primitives.

This is the repository's one kernel implementation; ``tests/test_kernels.py``
checks every primitive's emitted pair set against the brute-force
oracle and its counters across chunk sizes.

Many groups or cell pairs are evaluated per numpy call, in batches of at
most ``chunk_candidates`` candidate pairs: per-group calls would drown
in call overhead.  Candidates are tested on the ``(6, n)`` coordinate
rows of :func:`grouped_values`; a plan whose tasks share one grouping
builds those once per step (and, for the external join, the
:func:`sweep_index` window keys with them).

Overlap-test accounting (the machine-independent cost metric of the
paper's Figure 7(c)) is preserved exactly:

* ``count="full"`` — nested-loop accounting: every candidate pair is
  charged one overlap test (EGO's per-cell nested loops, octree
  node-vs-ancestor comparisons, R-Tree leaf processing);
* ``count="x-sweep"`` — forward plane-sweep accounting: only candidates
  whose x-intervals overlap are charged (PBSM's per-partition sweep,
  THERMAL-JOIN's external join); group object lists must then be sorted
  by lower x bound.

The two plane sweeps, :func:`cell_pair_sweep` and :func:`strip_sweep`,
share one test loop: each finds one x-sorted window per row with binary
search and hands the rows in candidate-bounded batches to
``_sweep_windows``, which tests x, then y and z, and emits the hits.

Emission goes through an ``on_pairs`` callback (group joins) or a
:class:`~repro.geometry.pairs.PairAccumulator` (sweeps), so algorithms
can layer their own deduplication — PBSM's reference-point test — on
the matching pairs of each batch.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING, Callable

from repro.geometry.chunking import chunk_edges_by_volume
from repro.geometry.sweep import window_pairs

if TYPE_CHECKING:
    from repro.geometry.pairs import PairAccumulator

__all__ = [
    "PairCallback",
    "self_join_groups",
    "cross_join_groups",
    "cell_pair_sweep",
    "grouped_values",
    "sweep_index",
    "strip_sweep",
    "hot_cell_emit",
]

#: Per-batch emission callback: ``(left_ids, right_ids, pair_index)``.
PairCallback = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

#: Upper bound on candidate object pairs materialised per numpy batch.
DEFAULT_CHUNK_CANDIDATES = 65_536


def grouped_values(lo: np.ndarray, hi: np.ndarray, cat: np.ndarray) -> np.ndarray:
    """``(6, n)`` rows xlo, xhi, ylo, yhi, zlo, zhi of the grouped boxes.

    Candidate evaluation gathers individual coordinate rows by *position*
    in the grouped order; contiguous 1-D gathers are several times
    cheaper than row gathers on ``(n, 3)`` arrays, and object ids are
    only materialised for the surviving pairs.  A plan whose tasks share
    one grouping builds this once per step and passes it in.
    """
    values = np.empty((6, cat.size))
    # ``take`` gathers whole rows; fancy indexing of a 2-D array costs
    # several times more.
    values[0::2] = np.take(lo, cat, axis=0).T
    values[1::2] = np.take(hi, cat, axis=0).T
    return values


def _side(
    lo: np.ndarray, hi: np.ndarray, cat: np.ndarray, values: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(grouped values, cat)`` of one grouping: built here unless given."""
    if values is None:
        return grouped_values(lo, hi, cat), cat
    if values.shape != (6, cat.size):
        raise ValueError(
            f"grouped values of shape {values.shape} do not match a "
            f"grouping of {cat.size} positions"
        )
    return values, cat


def _test_and_emit(
    side_a: tuple[np.ndarray, np.ndarray],
    side_b: tuple[np.ndarray, np.ndarray],
    left_pos: np.ndarray,
    right_pos: np.ndarray,
    pair_groups: np.ndarray,
    count: str,
    on_pairs: PairCallback,
) -> int:
    """Shared candidate evaluation on positional indices.

    Each side is ``(grouped values, cat)``.  Tests dimensions
    progressively (x first, y/z on the survivors) and gathers object ids
    only for the pairs that overlap.  Returns the charged test count
    under the requested accounting.
    """
    (xlo_a, xhi_a, ylo_a, yhi_a, zlo_a, zhi_a), cat_a = side_a
    (xlo_b, xhi_b, ylo_b, yhi_b, zlo_b, zhi_b), cat_b = side_b
    # ``take`` gathers 1-D rows faster than fancy indexing.
    x_overlap = np.logical_and(
        xlo_a.take(left_pos) < xhi_b.take(right_pos),
        xlo_b.take(right_pos) < xhi_a.take(left_pos),
    )
    # "x-sweep" charges only the x-overlapping candidates.
    tests = int(left_pos.size) if count == "full" else int(x_overlap.sum())
    left_pos = left_pos[x_overlap]
    right_pos = right_pos[x_overlap]
    if left_pos.size == 0:
        return tests
    pair_groups = pair_groups[x_overlap]
    keep = np.logical_and(
        np.logical_and(
            ylo_a.take(left_pos) < yhi_b.take(right_pos),
            ylo_b.take(right_pos) < yhi_a.take(left_pos),
        ),
        np.logical_and(
            zlo_a.take(left_pos) < zhi_b.take(right_pos),
            zlo_b.take(right_pos) < zhi_a.take(left_pos),
        ),
    )
    if keep.any():
        on_pairs(
            cat_a[left_pos[keep]],
            cat_b[right_pos[keep]],
            pair_groups[keep],
        )
    return tests


def cross_join_groups(
    lo: np.ndarray,
    hi: np.ndarray,
    cat_a: np.ndarray,
    starts_a: np.ndarray,
    stops_a: np.ndarray,
    cat_b: np.ndarray,
    starts_b: np.ndarray,
    stops_b: np.ndarray,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    on_pairs: PairCallback,
    count: str = "full",
    chunk_candidates: int = DEFAULT_CHUNK_CANDIDATES,
    values_a: np.ndarray | None = None,
    values_b: np.ndarray | None = None,
) -> int:
    """Join group ``pair_a[k]`` of side A against ``pair_b[k]`` of side B.

    Parameters
    ----------
    lo, hi:
        Global box arrays (shared by both sides).
    cat_a, starts_a, stops_a:
        Side A: concatenated object ids and per-group ranges.
    cat_b, starts_b, stops_b:
        Side B grouping (may be the same arrays as side A).
    pair_a, pair_b:
        Group-index arrays naming the group pairs to join.
    on_pairs:
        ``on_pairs(left_ids, right_ids, pair_index)`` called per batch
        with the overlapping pairs; ``pair_index`` gives each pair's
        position in ``pair_a``/``pair_b`` (for per-pair metadata such as
        PBSM's partition bounds).
    count:
        ``"full"`` or ``"x-sweep"`` (see module docstring).
    values_a, values_b:
        :func:`grouped_values` of each side, when built once for many calls.

    Returns
    -------
    int
        Total overlap tests charged.
    """
    if count not in ("full", "x-sweep"):
        raise ValueError(f"unknown count mode {count!r}")
    pair_a = np.asarray(pair_a, dtype=np.int64)
    pair_b = np.asarray(pair_b, dtype=np.int64)
    if pair_a.size == 0:
        return 0
    sizes_a = (stops_a - starts_a)[pair_a]
    sizes_b = (stops_b - starts_b)[pair_b]
    counts = sizes_a * sizes_b
    edges = chunk_edges_by_volume(counts, max_volume=chunk_candidates)
    side_a = _side(lo, hi, cat_a, values_a)
    side_b = side_a if cat_b is cat_a else _side(lo, hi, cat_b, values_b)

    tests = 0
    for e in range(len(edges) - 1):
        sel = slice(int(edges[e]), int(edges[e + 1]))
        c_counts = counts[sel]
        total = int(c_counts.sum())
        if total == 0:
            continue
        c_pair_a = pair_a[sel]
        c_pair_b = pair_b[sel]
        # Nested window expansion: every (group pair, A-member) row, then
        # each row's B window — avoids per-candidate integer division.
        row_of_a, a_positions = window_pairs(
            starts_a[c_pair_a], stops_a[c_pair_a]
        )
        a_row_idx, right_pos = window_pairs(
            starts_b[c_pair_b][row_of_a], stops_b[c_pair_b][row_of_a]
        )
        left_pos = a_positions[a_row_idx]
        pair_groups = row_of_a[a_row_idx] + int(edges[e])
        tests += _test_and_emit(
            side_a, side_b, left_pos, right_pos, pair_groups, count, on_pairs
        )
    return tests


def self_join_groups(
    lo: np.ndarray,
    hi: np.ndarray,
    cat: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    groups: np.ndarray,
    on_pairs: PairCallback,
    count: str = "full",
    chunk_candidates: int = DEFAULT_CHUNK_CANDIDATES,
    values: np.ndarray | None = None,
) -> int:
    """All unordered object pairs within each listed group.

    Same contract as :func:`cross_join_groups` with both sides equal;
    candidates enumerate only the strict upper triangle of each group, so
    ``count="full"`` charges the nested-loop's ``k (k - 1) / 2`` tests
    per group.  ``pair_index`` passed to ``on_pairs`` is the position in
    ``groups``.
    """
    if count not in ("full", "x-sweep"):
        raise ValueError(f"unknown count mode {count!r}")
    groups = np.asarray(groups, dtype=np.int64)
    if groups.size == 0:
        return 0
    g_starts = starts[groups]
    g_stops = stops[groups]
    sizes = g_stops - g_starts
    counts = sizes * (sizes - 1) // 2
    edges = chunk_edges_by_volume(counts, max_volume=chunk_candidates)
    side = _side(lo, hi, cat, values)

    tests = 0
    for e in range(len(edges) - 1):
        sel = slice(int(edges[e]), int(edges[e + 1]))
        c_starts = g_starts[sel]
        c_stops = g_stops[sel]
        if int(counts[sel].sum()) == 0:
            continue
        # Enumerate member positions, then pair each with the remainder
        # of its own group (strict upper triangle).
        row_of_pos, positions = window_pairs(c_starts, c_stops)
        left_row, right_pos = window_pairs(
            positions + 1, np.repeat(c_stops, c_stops - c_starts)
        )
        if left_row.size == 0:
            continue
        left_pos = positions[left_row]
        pair_groups = row_of_pos[left_row] + int(edges[e])
        tests += _test_and_emit(
            side, side, left_pos, right_pos, pair_groups, count, on_pairs
        )
    return tests


def sweep_index(
    lo: np.ndarray,
    hi: np.ndarray,
    cat: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped-order columns and rank keys for :func:`cell_pair_sweep`.

    Returns ``(values, keys)`` over the grouped positions ``p`` (object
    ``cat[p]``):

    * ``values`` — ``(6, n)`` float64 rows xlo, xhi, ylo, yhi, zlo, zhi;
    * ``keys`` — ``(4, n)`` int64 rows: the rank key
      ``run_start * (n + 1) + x_rank``; ``below_lo``, the number of xlo
      values ``< xlo[p]``; ``below_hi``, the number of xlo values
      ``< xhi[p]``; and the reach key ``run_start * (n + 1)`` plus the
      running maximum of ``below_hi`` over the run's members up to ``p``.

    ``x_rank`` is ``p``'s place in a stable sort of all xlo values, so
    ``xlo[p] >= t`` exactly when ``x_rank`` is at least the count of xlo
    values ``< t``, and ``xhi[q] > xlo[p]`` exactly when
    ``below_hi[q] > below_lo[p]``.  Every run is x-sorted and runs take
    disjoint, increasing key ranges, so the rank keys increase strictly
    and the reach keys never decrease over all positions: a window edge
    inside any occupied run is one ``searchsorted``, exact under ties.
    Positions outside every run count as runs of their own.
    """
    n = cat.size
    values = grouped_values(lo, hi, cat)
    order = np.argsort(values[0], kind="stable")
    sorted_xlo = values[0][order]
    keys = np.empty((4, n), dtype=np.int64)
    run_start = np.arange(n, dtype=np.int64)
    rows, positions = window_pairs(starts, stops)
    run_start[positions] = np.asarray(starts, dtype=np.int64)[rows]
    run_base = run_start * (n + 1)
    keys[0, order] = np.arange(n, dtype=np.int64)
    keys[0] += run_base
    keys[1, order] = np.searchsorted(sorted_xlo, sorted_xlo, side="left")
    keys[2] = np.searchsorted(sorted_xlo, values[1], side="left")
    keys[3] = np.maximum.accumulate(run_base + keys[2])
    return values, keys


def _sweep_windows(
    values: np.ndarray, cat: np.ndarray, row_pos: np.ndarray, left: np.ndarray,
    right: np.ndarray, accumulator: PairAccumulator,
) -> int:
    """Test each row against its window ``[left, right)``; emit the hits.

    Every window member starts below the row's xhi; the window may also
    hold members that end at or before the row's xlo, so x is tested
    here and only the x-overlapping candidates are charged.  The row
    side's values are repeated over the window counts, and object ids
    are taken only for the pairs that overlap.  Returns the charged
    test count.
    """
    counts = np.maximum(right - left, 0)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return 0
    window_pos = np.repeat(left - (ends - counts), counts)
    window_pos += np.arange(total, dtype=np.int64)
    xlo, xhi, ylo, yhi, zlo, zhi = values
    hit = np.repeat(xlo.take(row_pos), counts) < xhi.take(window_pos)
    tests = int(np.count_nonzero(hit))
    hit &= np.repeat(ylo.take(row_pos), counts) < yhi.take(window_pos)
    hit &= ylo.take(window_pos) < np.repeat(yhi.take(row_pos), counts)
    hit &= np.repeat(zlo.take(row_pos), counts) < zhi.take(window_pos)
    hit &= zlo.take(window_pos) < np.repeat(zhi.take(row_pos), counts)
    hits = np.flatnonzero(hit)
    if hits.size:
        accumulator.extend(
            np.repeat(cat.take(row_pos), counts).take(hits), cat.take(window_pos.take(hits))
        )
    return tests


def cell_pair_sweep(
    lo: np.ndarray,
    hi: np.ndarray,
    cat: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    center_lo: np.ndarray,
    center_hi: np.ndarray,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    accumulator: PairAccumulator,
    chunk_candidates: int = DEFAULT_CHUNK_CANDIDATES,
    enclosure_shortcut: bool = True,
    index: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[int, int]:
    """External join over *many* cell pairs in vectorised batches.

    The paper's optimized plane sweep (Section 4.2.1) between each
    ``(pair_a[k], pair_b[k])`` cell pair, with all candidate object
    pairs of a batch generated and tested at once.

    The enclosure shortcut comes first: objects of cell A whose MBR
    encloses cell B's tight center bounds pair with all of B without
    any tests, since a box that contains another box's center overlaps
    it.  The tight center bounds lie inside the nominal cell box, so
    every shortcut the paper's cell-extent check takes is taken here
    too, and the guarantee holds for objects that sit exactly on a cell
    boundary.

    The overlap-test count is the plane sweep's accounting: a candidate
    pair is charged one test when its x-intervals overlap (the pairs a
    forward sweep visits); x-disjoint candidates are pruned by the sort
    and are not charged.

    Every other A member gets one window of B's run, found with two
    searches of the :func:`sweep_index` keys: it opens at the first
    member whose running max of xhi exceeds the row's xlo (the reach
    key) and closes before the first member with xlo at or past the
    row's xhi (the rank key).  The window holds every x-overlapping
    member of B; x is tested inside it, so only those are charged.  It
    holds nothing else when x-upper order follows x-lower order, as for
    equal-width boxes.

    Parameters
    ----------
    lo, hi:
        Global box arrays.
    cat, starts, stops:
        Grouped object indices and per-cell ranges (``PGrid.cat`` etc.).
    center_lo, center_hi:
        Per-cell tight center bounds, aligned with ``starts``.
    pair_a, pair_b:
        Cell-slot index arrays naming the cell pairs to join.
    accumulator:
        Pair accumulator receiving the results.
    chunk_candidates:
        Upper bound on candidate object pairs materialised per batch.
    enclosure_shortcut:
        Disable to force every candidate through the sweep test (the
        ablation benchmark's knob).
    index:
        :func:`sweep_index` of this grouping, when built once for many calls.

    Returns
    -------
    tuple
        ``(tests, shortcut_pairs)`` summed over all cell pairs.
    """
    values, keys = sweep_index(lo, hi, cat, starts, stops) if index is None else index
    if values.shape != (6, cat.size) or keys.shape != (4, cat.size):
        raise ValueError(
            f"sweep index of shapes {values.shape}/{keys.shape} does not match "
            f"a grouping of {cat.size} positions"
        )
    pair_a = np.asarray(pair_a, dtype=np.int64)
    pair_b = np.asarray(pair_b, dtype=np.int64)
    if pair_a.size == 0:
        return 0, 0
    xlo, xhi, ylo, yhi, zlo, zhi = values
    rank_key, below_lo, below_hi, reach = keys
    stride = cat.size + 1
    sizes = stops - starts
    counts = sizes[pair_a] * sizes[pair_b]
    # An empty run shares its key range with the run after it, so cell
    # pairs with an empty side are dropped before any search.
    occupied = np.flatnonzero(counts)
    pair_a, pair_b, counts = pair_a[occupied], pair_b[occupied], counts[occupied]
    chunk_edges = chunk_edges_by_volume(counts, max_volume=chunk_candidates)
    if enclosure_shortcut:
        # Contiguous per-dimension rows: ``take`` on them is several
        # times cheaper than 2-D fancy indexing of ``(cells, 3)``.
        cx_lo, cy_lo, cz_lo = np.ascontiguousarray(np.transpose(center_lo))
        cx_hi, cy_hi, cz_hi = np.ascontiguousarray(np.transpose(center_hi))

    total_tests = 0
    total_shortcuts = 0
    for e in range(len(chunk_edges) - 1):
        sel = slice(int(chunk_edges[e]), int(chunk_edges[e + 1]))
        c_pair_a = pair_a[sel]
        c_pair_b = pair_b[sel]

        # Rows are (cell pair, A-member), grouped by cell pair in x order.
        row_of_a, a_pos = window_pairs(starts[c_pair_a], stops[c_pair_a])
        b_cell = c_pair_b.take(row_of_a)
        if enclosure_shortcut:
            # The enclosure predicate depends only on (A-object, B-cell):
            # evaluate per row and emit those rows against all of B.
            encl = xlo.take(a_pos) <= cx_lo.take(b_cell)
            encl &= ylo.take(a_pos) <= cy_lo.take(b_cell)
            encl &= zlo.take(a_pos) <= cz_lo.take(b_cell)
            encl &= xhi.take(a_pos) >= cx_hi.take(b_cell)
            encl &= yhi.take(a_pos) >= cy_hi.take(b_cell)
            encl &= zhi.take(a_pos) >= cz_hi.take(b_cell)
            if encl.any():
                er = np.flatnonzero(encl)
                rr, b_all = window_pairs(starts[b_cell[er]], stops[b_cell[er]])
                accumulator.extend(cat[a_pos[er][rr]], cat[b_all])
                total_shortcuts += int(rr.size)
                keep = ~encl
                a_pos = a_pos[keep]
                b_cell = b_cell[keep]

        # One window per row inside B's run: from the first member whose
        # running max of xhi passes a.xlo to the first member with
        # xlo >= a.xhi.  It holds every x-overlapping member of B.
        base = starts.take(b_cell) * stride
        left = np.searchsorted(reach, base + below_lo.take(a_pos), side="right")
        right = np.searchsorted(rank_key, base + below_hi.take(a_pos))
        total_tests += _sweep_windows(values, cat, a_pos, left, right, accumulator)
    return total_tests, total_shortcuts


def strip_sweep(
    values: np.ndarray,
    ids: np.ndarray,
    start: int,
    stop: int,
    carry: np.ndarray,
    accumulator: PairAccumulator,
) -> int:
    """One strip of the partitioned global plane sweep.

    ``values`` is the :func:`grouped_values` of the *whole* dataset in
    ascending lower-x order and ``ids`` that order's object ids; the
    strip owns the contiguous sorted positions ``[start, stop)``.  The
    rows are the carried positions ``carry`` (sorted positions
    ``< start`` whose x-extent reaches into the strip), then the strip's
    own.  Each row gets one window of later strip members: it opens at
    ``start`` for a carried row and just past the row for a strip row,
    and closes before the first member with xlo at or past the row's
    xhi.  The windows run through the external join's test in batches,
    so each x-overlapping pair is charged exactly once, in the strip of
    its later object: the global sweep's candidate set and test count,
    decomposed.

    Returns the number of overlap tests charged.
    """
    rows = np.concatenate([carry, np.arange(start, stop, dtype=np.int64)])
    left = np.maximum(rows + 1, start)
    right = start + np.searchsorted(values[0, start:stop], values[1].take(rows))
    edges = chunk_edges_by_volume(
        np.maximum(right - left, 0), max_volume=DEFAULT_CHUNK_CANDIDATES
    )
    tests = 0
    for e in range(len(edges) - 1):
        sel = slice(int(edges[e]), int(edges[e + 1]))
        tests += _sweep_windows(values, ids, rows[sel], left[sel], right[sel], accumulator)
    return tests


def hot_cell_emit(
    cat: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    hot_slots: np.ndarray,
    accumulator: PairAccumulator,
) -> int:
    """Emit all within-cell combinations for many hot-spot cells at once.

    Vectorised equivalent of running ``all_combinations`` per hot cell:
    for every member position the "window" is the rest of its cell, so
    one :func:`window_pairs` expansion enumerates every unordered pair of
    every hot cell.  Returns the number of pairs emitted (all without
    overlap tests — the hot-spot guarantee).
    """
    hot_slots = np.asarray(hot_slots, dtype=np.int64)
    if hot_slots.size == 0:
        return 0
    h_starts = starts[hot_slots]
    h_stops = stops[hot_slots]
    sizes = h_stops - h_starts
    # Enumerate member positions of all hot cells...
    _cell_row, positions = window_pairs(h_starts, h_stops)
    # ...and pair each position with the remainder of its own cell.
    pos_stops = np.repeat(h_stops, sizes)
    left_row, right_pos = window_pairs(positions + 1, pos_stops)
    if left_row.size == 0:
        return 0
    accumulator.extend(cat[positions[left_row]], cat[right_pos])
    return int(left_row.size)
