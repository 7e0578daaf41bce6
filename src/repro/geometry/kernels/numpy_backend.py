"""Vectorised numpy implementations of the verify-kernel primitives.

This is the repository's one kernel implementation; ``tests/test_kernels.py``
checks every primitive's emitted pair set against the brute-force
oracle and its counters across chunk sizes.

The implementations consolidate what used to live in four places:

* the batched group joins of the former ``repro.geometry.batch``
  (Python-level loops with one numpy call per group pair would drown in
  call overhead, so many group pairs are evaluated per numpy call);
* the cell-pair sweep with the paper's enclosure shortcut from
  ``repro.core.celljoin`` (Section 4.2.1's "optimized variant of the
  plane-sweep approach", minus the legacy nested thread pool — chunk
  parallelism belongs to the engine executors);
* the partitioned global plane sweep's strip + carry predicate that was
  inlined in ``engine/plan.py::SweepStripTask``;
* the hot-cell combinatorial emission.

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
from repro.geometry.mbr import encloses
from repro.geometry.sweep import sweep_self, window_pairs

if TYPE_CHECKING:
    from repro.geometry.pairs import PairAccumulator

__all__ = [
    "PairCallback",
    "self_join_groups",
    "cross_join_groups",
    "cell_pair_sweep",
    "strip_sweep",
    "hot_cell_emit",
]

#: Per-batch emission callback: ``(left_ids, right_ids, pair_index)``.
PairCallback = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

#: Upper bound on candidate object pairs materialised per numpy batch.
DEFAULT_CHUNK_CANDIDATES = 2_000_000


def _expand_windows(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat enumeration of ``[starts, stops)`` windows: (row, position)."""
    counts = np.maximum(stops - starts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    rows = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    ends = np.cumsum(counts)
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )
    return rows, positions


class _Columns:
    """Per-column contiguous copies of one side's grouped boxes.

    Candidate evaluation gathers individual coordinate columns by
    *position* in the grouped order; contiguous 1-D gathers are several
    times cheaper than row gathers on ``(n, 3)`` arrays, and object ids
    are only materialised for the surviving pairs.
    """

    __slots__ = ("cat", "xlo", "xhi", "ylo", "yhi", "zlo", "zhi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, cat: np.ndarray) -> None:
        self.cat = cat
        ordered_lo = lo[cat]
        ordered_hi = hi[cat]
        self.xlo = np.ascontiguousarray(ordered_lo[:, 0])
        self.xhi = np.ascontiguousarray(ordered_hi[:, 0])
        self.ylo = np.ascontiguousarray(ordered_lo[:, 1])
        self.yhi = np.ascontiguousarray(ordered_hi[:, 1])
        self.zlo = np.ascontiguousarray(ordered_lo[:, 2])
        self.zhi = np.ascontiguousarray(ordered_hi[:, 2])


def _test_and_emit(
    side_a: _Columns,
    side_b: _Columns,
    left_pos: np.ndarray,
    right_pos: np.ndarray,
    pair_groups: np.ndarray,
    count: str,
    on_pairs: PairCallback,
) -> int:
    """Shared candidate evaluation on positional indices.

    Tests dimensions progressively (x first, y/z on the survivors) and
    gathers object ids only for the pairs that overlap.  Returns the
    charged test count under the requested accounting.
    """
    x_overlap = np.logical_and(
        side_a.xlo[left_pos] < side_b.xhi[right_pos],
        side_b.xlo[right_pos] < side_a.xhi[left_pos],
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
            side_a.ylo[left_pos] < side_b.yhi[right_pos],
            side_b.ylo[right_pos] < side_a.yhi[left_pos],
        ),
        np.logical_and(
            side_a.zlo[left_pos] < side_b.zhi[right_pos],
            side_b.zlo[right_pos] < side_a.zhi[left_pos],
        ),
    )
    if keep.any():
        on_pairs(
            side_a.cat[left_pos[keep]],
            side_b.cat[right_pos[keep]],
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
    side_a = _Columns(lo, hi, cat_a)
    side_b = side_a if cat_b is cat_a else _Columns(lo, hi, cat_b)

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
        row_of_a, a_positions = _expand_windows(
            starts_a[c_pair_a], stops_a[c_pair_a]
        )
        a_row_idx, right_pos = _expand_windows(
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
    side = _Columns(lo, hi, cat)

    tests = 0
    for e in range(len(edges) - 1):
        sel = slice(int(edges[e]), int(edges[e + 1]))
        c_starts = g_starts[sel]
        c_stops = g_stops[sel]
        if int(counts[sel].sum()) == 0:
            continue
        # Enumerate member positions, then pair each with the remainder
        # of its own group (strict upper triangle).
        row_of_pos, positions = _expand_windows(c_starts, c_stops)
        left_row, right_pos = _expand_windows(
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


def _bisect_runs(
    values: np.ndarray, targets: np.ndarray, lo: np.ndarray, hi: np.ndarray, strict: bool
) -> np.ndarray:
    """Vectorised binary search inside per-row ranges of ``values``.

    For each row ``k`` finds, within ``values[lo[k]:hi[k]]`` (each run
    individually sorted ascending), the first index whose value is
    ``> targets[k]`` (``strict=True``) or ``>= targets[k]``
    (``strict=False``).  This is the batched equivalent of the forward
    plane sweep's window location: thousands of tiny ``searchsorted``
    calls collapsed into ~log2(run length) vectorised passes.
    """
    lo = lo.copy()
    hi = hi.copy()
    if lo.size == 0:
        return lo
    span = int((hi - lo).max())
    guard = values.shape[0] - 1
    for _ in range(max(span, 1).bit_length()):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        v = values[np.minimum(mid, guard)]
        go_right = (v <= targets) if strict else (v < targets)
        go_right &= active
        stay = active & ~go_right
        lo[go_right] = mid[go_right] + 1
        hi[stay] = mid[stay]
    return lo


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
) -> tuple[int, int]:
    """External join over *many* cell pairs in vectorised batches.

    Semantically identical to joining each ``(pair_a[k], pair_b[k])``
    cell pair with the sequential optimized sweep
    (:func:`repro.core.celljoin.join_sorted_lists`), but with all
    candidate object pairs of a batch generated and tested at once —
    P-Grid cells hold few objects each, so per-pair numpy calls would
    drown in call overhead.

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

    Returns
    -------
    tuple
        ``(tests, shortcut_pairs)`` summed over all cell pairs.
    """
    pair_a = np.asarray(pair_a, dtype=np.int64)
    pair_b = np.asarray(pair_b, dtype=np.int64)
    if pair_a.size == 0:
        return 0, 0
    sizes = stops - starts
    size_a = sizes[pair_a]
    size_b = sizes[pair_b]
    counts = size_a * size_b

    # Per-column contiguous copies in grouped order: candidate tests then
    # gather 1-D columns by position, and object ids are materialised only
    # for the surviving pairs.
    ordered_lo = lo[cat]
    ordered_hi = hi[cat]
    xlo = np.ascontiguousarray(ordered_lo[:, 0])
    xhi = np.ascontiguousarray(ordered_hi[:, 0])
    ylo = np.ascontiguousarray(ordered_lo[:, 1])
    yhi = np.ascontiguousarray(ordered_hi[:, 1])
    zlo = np.ascontiguousarray(ordered_lo[:, 2])
    zhi = np.ascontiguousarray(ordered_hi[:, 2])

    chunk_edges = chunk_edges_by_volume(counts, max_volume=chunk_candidates)

    def emit_candidates(left_pos: np.ndarray, right_pos: np.ndarray) -> None:
        """Evaluate y/z on x-overlapping candidates and emit."""
        yz = np.logical_and(
            np.logical_and(
                ylo[left_pos] < yhi[right_pos], ylo[right_pos] < yhi[left_pos]
            ),
            np.logical_and(
                zlo[left_pos] < zhi[right_pos], zlo[right_pos] < zhi[left_pos]
            ),
        )
        accumulator.extend(cat[left_pos[yz]], cat[right_pos[yz]])

    total_tests = 0
    total_shortcuts = 0
    for e in range(len(chunk_edges) - 1):
        sel = slice(int(chunk_edges[e]), int(chunk_edges[e + 1]))
        c_counts = counts[sel]
        if int(c_counts.sum()) == 0:
            continue
        c_pair_a = pair_a[sel]
        c_pair_b = pair_b[sel]

        # ---- Direction 1: scan from A over B (xlo_b in [a.xlo, a.xhi)).
        # Rows are (cell pair, A-member); the sweep windows inside each
        # B run are located by batched binary search, so x-disjoint
        # candidates are never materialised — as in the pointer-walking
        # sweep the accounting models.
        row_of_a, a_positions = window_pairs(starts[c_pair_a], stops[c_pair_a])
        b_start_rows = starts[c_pair_b][row_of_a]
        b_stop_rows = stops[c_pair_b][row_of_a]
        a_xlo = xlo[a_positions]
        a_xhi = xhi[a_positions]

        full_flags = None
        if enclosure_shortcut:
            # The enclosure predicate depends only on (A-object, B-cell):
            # evaluate per row and emit those rows against all of B.
            bc_lo = center_lo[c_pair_b[row_of_a]]
            bc_hi = center_hi[c_pair_b[row_of_a]]
            flags = encloses(ordered_lo[a_positions], ordered_hi[a_positions], bc_lo, bc_hi)
            if flags.any():
                full_flags = flags  # original (pair, A-member) enumeration
                er = np.flatnonzero(flags)
                rr, b_pos_full = window_pairs(b_start_rows[er], b_stop_rows[er])
                accumulator.extend(cat[a_positions[er][rr]], cat[b_pos_full])
                total_shortcuts += int(rr.size)
                keep_rows = ~flags
                a_positions = a_positions[keep_rows]
                b_start_rows = b_start_rows[keep_rows]
                b_stop_rows = b_stop_rows[keep_rows]
                a_xlo = a_xlo[keep_rows]
                a_xhi = a_xhi[keep_rows]

        left_edge = _bisect_runs(xlo, a_xlo, b_start_rows, b_stop_rows, strict=False)
        right_edge = _bisect_runs(xlo, a_xhi, left_edge, b_stop_rows, strict=False)
        r1, right_pos = window_pairs(left_edge, right_edge)
        total_tests += int(r1.size)
        if r1.size:
            emit_candidates(a_positions[r1], right_pos)

        # ---- Direction 2: scan from B over A (xlo_a in (b.xlo, b.xhi);
        # ties on xlo break toward direction 1, so no pair repeats).
        row_of_b, b_positions = window_pairs(starts[c_pair_b], stops[c_pair_b])
        a_start_rows = starts[c_pair_a][row_of_b]
        a_stop_rows = stops[c_pair_a][row_of_b]
        left_edge = _bisect_runs(
            xlo, xlo[b_positions], a_start_rows, a_stop_rows, strict=True
        )
        right_edge = _bisect_runs(
            xlo, xhi[b_positions], left_edge, a_stop_rows, strict=False
        )
        r2, a_pos2 = window_pairs(left_edge, right_edge)
        if r2.size and full_flags is not None:
            # Pairs whose A-object was already emitted via the enclosure
            # shortcut must not be rediscovered from the B side: map each
            # candidate's A position back to its (pair, A-member) flag in
            # the original (pre-filter) row enumeration.
            pair_idx = row_of_b[r2]
            a_offset = a_pos2 - starts[c_pair_a][pair_idx]
            sizes_a_sel = size_a[sel]
            block_starts = np.cumsum(sizes_a_sel) - sizes_a_sel
            keep = ~full_flags[block_starts[pair_idx] + a_offset]
            r2 = r2[keep]
            a_pos2 = a_pos2[keep]
        total_tests += int(r2.size)
        if r2.size:
            emit_candidates(a_pos2, b_positions[r2])
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
