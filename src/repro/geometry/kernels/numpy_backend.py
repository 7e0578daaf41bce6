"""Vectorised numpy implementations of the verify-kernel primitives.

This is the repository's one kernel implementation; ``tests/test_kernels.py``
checks every primitive's emitted pair set against the brute-force
oracle and its counters across chunk sizes.

Many groups or cell pairs are evaluated per numpy call, in batches of at
most ``chunk_candidates`` candidate pairs: per-group calls would drown
in call overhead.  Candidates are tested on the ``(6, n)`` coordinate
rows of :func:`grouped_values`; a plan whose tasks share one grouping
builds those once per step (and, for the external join, the
:func:`sweep_index` rank keys with them).

Overlap-test accounting (the machine-independent cost metric of the
paper's Figure 7(c)) is preserved exactly:

* ``count="full"`` — nested-loop accounting: every candidate pair is
  charged one overlap test (EGO's per-cell nested loops, octree
  node-vs-ancestor comparisons, R-Tree leaf processing);
* ``count="x-sweep"`` — forward plane-sweep accounting: only candidates
  whose x-intervals overlap are charged (PBSM's per-partition sweep,
  THERMAL-JOIN's external join); group object lists must then be sorted
  by lower x bound.

Emission goes through an ``on_pairs`` callback (group joins) or a
:class:`~repro.geometry.pairs.PairAccumulator` (sweeps), so algorithms
can layer their own deduplication — PBSM's reference-point test — on
the matching pairs of each batch.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING, Callable

from repro.geometry.chunking import chunk_edges_by_volume
from repro.geometry.sweep import sweep_self, window_pairs

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
    x_overlap = np.logical_and(
        xlo_a[left_pos] < xhi_b[right_pos],
        xlo_b[right_pos] < xhi_a[left_pos],
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
            ylo_a[left_pos] < yhi_b[right_pos],
            ylo_b[right_pos] < yhi_a[left_pos],
        ),
        np.logical_and(
            zlo_a[left_pos] < zhi_b[right_pos],
            zlo_b[right_pos] < zhi_a[left_pos],
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
      ``run_start * (n + 1) + x_rank``, then the number of xlo values
      ``< xlo[p]``, ``<= xlo[p]`` and ``< xhi[p]``.

    ``x_rank`` is ``p``'s place in a stable sort of all xlo values, so
    ``xlo[p] >= t`` exactly when ``x_rank`` is at least the count of xlo
    values ``< t``.  Every run is x-sorted, so the rank keys increase
    strictly over all positions, and a sweep window edge inside any
    occupied run is one ``searchsorted`` on them, exact under ties.
    """
    n = cat.size
    values = grouped_values(lo, hi, cat)
    order = np.argsort(values[0], kind="stable")
    sorted_xlo = values[0][order]
    keys = np.empty((4, n), dtype=np.int64)
    # Positions outside every run count as runs of their own.
    run_start = np.arange(n, dtype=np.int64)
    rows, positions = window_pairs(starts, stops)
    run_start[positions] = np.asarray(starts, dtype=np.int64)[rows]
    keys[0, order] = np.arange(n, dtype=np.int64)
    keys[0] += run_start * (n + 1)
    keys[1, order] = np.searchsorted(sorted_xlo, sorted_xlo, side="left")
    keys[2, order] = np.searchsorted(sorted_xlo, sorted_xlo, side="right")
    keys[3] = np.searchsorted(sorted_xlo, values[1], side="left")
    return values, keys


def _sweep_windows(
    values: np.ndarray, cat: np.ndarray, row_pos: np.ndarray, left: np.ndarray,
    right: np.ndarray, members: np.ndarray | None, accumulator: PairAccumulator,
) -> int:
    """Test each row against its window ``[left, right)``; emit the hits.

    Window entries are grouped positions, or indices into ``members``.
    The row side's y/z values are repeated over the window counts, and
    object ids are taken only for the pairs that overlap.  Returns the
    candidate count: the windows hold exactly the x-overlapping pairs.
    """
    counts = np.maximum(right - left, 0)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return 0
    window_pos = np.repeat(left - (ends - counts), counts)
    window_pos += np.arange(total, dtype=np.int64)
    if members is not None:
        window_pos = members.take(window_pos)
    ylo, yhi, zlo, zhi = values[2:]
    hit = np.repeat(ylo[row_pos], counts) < yhi.take(window_pos)
    hit &= ylo.take(window_pos) < np.repeat(yhi[row_pos], counts)
    hit &= np.repeat(zlo[row_pos], counts) < zhi.take(window_pos)
    hit &= zlo.take(window_pos) < np.repeat(zhi[row_pos], counts)
    hits = np.flatnonzero(hit)
    if hits.size:
        accumulator.extend(
            np.repeat(cat[row_pos], counts).take(hits), cat.take(window_pos.take(hits))
        )
    return total


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

    Semantically identical to joining each ``(pair_a[k], pair_b[k])``
    cell pair with the sequential optimized sweep
    (:func:`repro.core.celljoin.join_sorted_lists`), but with all
    candidate object pairs of a batch generated and tested at once.

    The overlap-test count reproduces the plane sweep's accounting: a
    candidate pair is charged one test when its x-intervals overlap (the
    pairs the forward sweep would actually visit); x-disjoint candidates
    are pruned for free by the sort in the sequential formulation and are
    therefore not charged here either.  The enclosure shortcut is applied
    first exactly as in the sequential version: objects of cell A whose
    MBR encloses cell B's tight center bounds pair with all of B without
    any tests.

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
    rank_key, below_lo, upto_lo, below_hi = keys
    stride = cat.size + 1
    sizes = stops - starts
    counts = sizes[pair_a] * sizes[pair_b]
    # An empty run shares its rank-key range with the run after it, so
    # cell pairs with an empty side are dropped before any search.
    occupied = np.flatnonzero(counts)
    pair_a, pair_b, counts = pair_a[occupied], pair_b[occupied], counts[occupied]
    chunk_edges = chunk_edges_by_volume(counts, max_volume=chunk_candidates)

    total_tests = 0
    total_shortcuts = 0
    for e in range(len(chunk_edges) - 1):
        sel = slice(int(chunk_edges[e]), int(chunk_edges[e + 1]))
        c_pair_a = pair_a[sel]
        c_pair_b = pair_b[sel]

        # Rows are (cell pair, A-member), grouped by cell pair in x order.
        row_of_a, a_pos = window_pairs(starts[c_pair_a], stops[c_pair_a])
        b_start = starts[c_pair_b][row_of_a]
        if enclosure_shortcut:
            # The enclosure predicate depends only on (A-object, B-cell):
            # evaluate per row and emit those rows against all of B.
            b_cell = c_pair_b[row_of_a]
            encl = xlo[a_pos] <= center_lo[b_cell, 0]
            encl &= ylo[a_pos] <= center_lo[b_cell, 1]
            encl &= zlo[a_pos] <= center_lo[b_cell, 2]
            encl &= xhi[a_pos] >= center_hi[b_cell, 0]
            encl &= yhi[a_pos] >= center_hi[b_cell, 1]
            encl &= zhi[a_pos] >= center_hi[b_cell, 2]
            if encl.any():
                er = np.flatnonzero(encl)
                rr, b_all = window_pairs(b_start[er], stops[b_cell[er]])
                accumulator.extend(cat[a_pos[er][rr]], cat[b_all])
                total_shortcuts += int(rr.size)
                keep = ~encl
                row_of_a = row_of_a[keep]
                a_pos = a_pos[keep]
                b_start = b_start[keep]

        # ---- Direction 1: scan from A over B (xlo_b in [a.xlo, a.xhi)).
        # Each window edge is one search of the rank keys inside B's run.
        base = b_start * stride
        left = np.searchsorted(rank_key, base + below_lo[a_pos])
        right = np.searchsorted(rank_key, base + below_hi[a_pos])
        total_tests += _sweep_windows(values, cat, a_pos, left, right, None, accumulator)

        # ---- Direction 2: scan from B over A (xlo_a in (b.xlo, b.xhi);
        # ties on xlo break toward direction 1, so no pair repeats).  It
        # searches only the kept A rows of the same cell pair, keyed by
        # the pair's row, so enclosure-shortcut pairs are never repeated.
        kept_key = rank_key[a_pos] + (row_of_a - starts[c_pair_a][row_of_a]) * stride
        row_of_b, b_pos = window_pairs(starts[c_pair_b], stops[c_pair_b])
        base = row_of_b * stride
        left = np.searchsorted(kept_key, base + upto_lo[b_pos])
        right = np.searchsorted(kept_key, base + below_hi[b_pos])
        total_tests += _sweep_windows(values, cat, b_pos, left, right, a_pos, accumulator)
    return total_tests, total_shortcuts


def strip_sweep(
    lo: np.ndarray,
    hi: np.ndarray,
    ids: np.ndarray,
    start: int,
    stop: int,
    carry: np.ndarray,
    accumulator: PairAccumulator,
) -> int:
    """One strip of the partitioned global plane sweep.

    ``lo``/``hi``/``ids`` are the *whole* dataset sorted ascending by
    lower x bound; the strip owns the contiguous sorted positions
    ``[start, stop)``.  Runs the forward sweep within the strip plus the
    carried-in windows of ``carry`` (sorted positions ``< start`` whose
    x-extent reaches into the strip), so each x-overlapping pair is
    charged exactly once, in the strip of its later object — the global
    sweep's candidate set and test count, decomposed.

    Returns the number of overlap tests charged.
    """
    i_ids, j_ids, tests = sweep_self(lo[start:stop], hi[start:stop], ids[start:stop])
    accumulator.extend(i_ids, j_ids)

    if carry.size:
        # Each carried object scans strip members while xlo < its xhi
        # (members' xlo ≥ the carried xlo by sort order).
        strip_xlo = lo[start:stop, 0]
        windows = np.searchsorted(strip_xlo, hi[carry, 0], side="left")
        left, right = window_pairs(
            np.zeros(carry.size, dtype=np.int64), windows.astype(np.int64)
        )
        tests += int(left.size)
        if left.size:
            c_pos = carry[left]
            s_pos = right + start
            keep = np.logical_and(
                np.logical_and(
                    lo[c_pos, 1] < hi[s_pos, 1], lo[s_pos, 1] < hi[c_pos, 1]
                ),
                np.logical_and(
                    lo[c_pos, 2] < hi[s_pos, 2], lo[s_pos, 2] < hi[c_pos, 2]
                ),
            )
            accumulator.extend(ids[c_pos[keep]], ids[s_pos[keep]])
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
