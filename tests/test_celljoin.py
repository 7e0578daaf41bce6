"""Tests for THERMAL-JOIN's cell-pair kernels against the sequential
reference :func:`repro.core.celljoin.join_sorted_lists`."""

from __future__ import annotations

import numpy as np

from repro.core.celljoin import join_sorted_lists
from repro.geometry import (
    PairAccumulator,
    all_combinations,
    group_by_keys,
    mbr,
    pack_pairs,
    unique_pairs,
)
from repro.geometry.kernels import cell_pair_sweep, hot_cell_emit, sweep_index


def make_grouped_boxes(rng, n=150, n_groups=6, span=40.0, width=6.0):
    centers = rng.uniform(0, span, size=(n, 3))
    lo, hi = mbr.boxes_from_centers(centers, width)
    keys = rng.integers(0, n_groups, size=n)
    cat, starts, stops, _unique = group_by_keys(keys, secondary_sort=lo[:, 0])
    # Tight center bounds per group (what PGrid.refresh provides).
    center_lo = np.stack(
        [centers[cat[starts[g]:stops[g]]].min(axis=0) for g in range(starts.size)]
    )
    center_hi = np.stack(
        [centers[cat[starts[g]:stops[g]]].max(axis=0) for g in range(starts.size)]
    )
    return lo, hi, centers, cat, starts, stops, center_lo, center_hi


def _rank_windows(index, starts):
    """Both window edges found through the keys, for every (run, query
    position): the first run member whose running max of ``xhi`` is
    ``> xlo`` of the query's box, and the first member ``>= xhi``."""
    _values, keys = index
    rank_key, below_lo, below_hi, reach = keys
    base = (np.asarray(starts, dtype=np.int64) * (rank_key.size + 1))[:, None]
    return np.stack(
        [
            np.searchsorted(reach, base + below_lo[None, :], side="right"),
            np.searchsorted(rank_key, base + below_hi[None, :]),
        ],
        axis=-1,
    )


def _per_run_windows(lo, hi, cat, starts, stops):
    """The same edges by a plain loop over each run's members."""
    xlo, xhi = lo[cat, 0], hi[cat, 0]
    out = np.empty((starts.size, cat.size, 2), dtype=np.int64)
    for g, (a, b) in enumerate(zip(starts, stops, strict=True)):
        running_max = []
        for p in range(a, b):
            running_max.append(max(running_max[-1], xhi[p]) if running_max else xhi[p])
        for q in range(cat.size):
            lower = [a + k for k, reach in enumerate(running_max) if reach > xlo[q]]
            upper = [p for p in range(a, b) if xlo[p] >= xhi[q]]
            out[g, q] = (lower[0] if lower else b, upper[0] if upper else b)
    return out


def _check_windows(lo, hi, cat, starts, stops):
    """Windows of every occupied run; the kernel never searches an empty one."""
    index = sweep_index(lo, hi, cat, starts, stops)
    values, keys = index
    assert values.shape == (6, cat.size) and keys.shape == (4, cat.size)
    assert np.array_equal(values[0], lo[cat, 0]) and np.array_equal(values[5], hi[cat, 2])
    assert (np.diff(keys[0]) > 0).all(), "rank keys must strictly increase"
    assert (np.diff(keys[3]) >= 0).all(), "reach keys must never decrease"
    occupied = stops > starts
    got = _rank_windows(index, starts[occupied])
    assert np.array_equal(got, _per_run_windows(lo, hi, cat, starts, stops)[occupied])
    return got


def _boxes_from_x(xlo, xhi):
    lo = np.zeros((len(xlo), 3))
    hi = np.ones((len(xlo), 3))
    lo[:, 0] = xlo
    hi[:, 0] = xhi
    return lo, hi


class TestSweepIndex:
    """Window edges through the sweep-index keys against a per-run loop."""

    def test_matches_searchsorted_per_run(self, rng):
        # Integer xlo values: ties inside runs and across runs.
        n = 120
        xlo = rng.integers(0, 15, size=n).astype(float)
        lo, hi = _boxes_from_x(xlo, xlo + rng.integers(0, 4, size=n))
        keys = rng.integers(0, 9, size=n)
        cat, starts, stops, _unique = group_by_keys(keys, secondary_sort=lo[:, 0])
        run_x = lo[cat, 0]
        assert any((np.diff(run_x[a:b]) == 0).any() for a, b in zip(starts, stops))
        _check_windows(lo, hi, cat, starts, stops)

    def test_signed_zero(self):
        lo, hi = _boxes_from_x([0.0, -0.0, 0.0, -0.0, -1.0], [1.0, 0.0, 2.0, 3.0, -0.0])
        cat = np.asarray([4, 1, 0, 3, 2], dtype=np.int64)
        starts = np.asarray([0, 3], dtype=np.int64)
        stops = np.asarray([3, 5], dtype=np.int64)
        got = _check_windows(lo, hi, cat, starts, stops)
        # -0.0 == 0.0: for the box [-0.0, 0.0] in run 0, only the box
        # [0.0, 1.0] reaches past its xlo, and every box from [-0.0, 0.0]
        # on starts at or past its xhi, so its window is empty.
        assert got[0, 1].tolist() == [2, 1]

    def test_box_rounding_to_zero_width(self):
        # Center 1e17, width 1: both bounds round to 1e17.
        lo, hi = _boxes_from_x([1e17 - 0.5, 1e17 - 4.0, 1e17], [1e17 + 0.5, 1e17 + 4.0, 1e17 + 8.0])
        assert lo[0, 0] == hi[0, 0]
        cat = np.asarray([1, 0, 2], dtype=np.int64)
        starts = np.asarray([0, 1], dtype=np.int64)
        stops = np.asarray([1, 3], dtype=np.int64)
        got = _check_windows(lo, hi, cat, starts, stops)
        # Every bound rounds to 1e17: no member of run 1 reaches past
        # its xlo, and each starts at its xhi, so its window is empty.
        assert got[1, 1].tolist() == [3, 1]

    def test_empty_run_between_occupied(self, rng):
        xlo = rng.integers(0, 6, size=7).astype(float)
        lo, hi = _boxes_from_x(xlo, xlo + 2.0)
        keys = np.asarray([0, 0, 0, 2, 2, 2, 2])
        cat, _starts, _stops, _unique = group_by_keys(keys, secondary_sort=lo[:, 0])
        starts = np.asarray([0, 3, 3], dtype=np.int64)
        stops = np.asarray([3, 3, 7], dtype=np.int64)
        # The empty run starts where the last run does.
        _check_windows(lo, hi, cat, starts, stops)

    def test_one_object_grouping(self):
        lo, hi = _boxes_from_x([2.0], [5.0])
        one = np.asarray([0], dtype=np.int64)
        got = _check_windows(lo, hi, one, np.asarray([0]), np.asarray([1]))
        assert got.tolist() == [[[0, 1]]]

    def test_empty_grouping(self):
        empty = np.empty(0, dtype=np.int64)
        values, keys = sweep_index(np.empty((0, 3)), np.empty((0, 3)), empty, empty, empty)
        assert values.shape == (6, 0) and keys.shape == (4, 0)


class TestJoinCellPairsBatched:
    def _expected_pairs(self, lo, hi, cat, starts, stops, pair_a, pair_b, n):
        expected = set()
        for ga, gb in zip(pair_a, pair_b, strict=True):
            for a in cat[starts[ga]:stops[ga]]:
                for b in cat[starts[gb]:stops[gb]]:
                    if a != b and mbr.overlap_single(lo[a], hi[a], lo[b], hi[b]):
                        expected.add((min(a, b), max(a, b)))
        return expected

    def _run(self, rng, **kwargs):
        lo, hi, centers, cat, starts, stops, c_lo, c_hi = make_grouped_boxes(rng)
        n_groups = starts.size
        pair_a = []
        pair_b = []
        for ga in range(n_groups):
            for gb in range(ga + 1, n_groups):
                pair_a.append(ga)
                pair_b.append(gb)
        acc = PairAccumulator(lo.shape[0])
        tests, shortcuts = cell_pair_sweep(
            lo, hi, cat, starts, stops, c_lo, c_hi,
            np.asarray(pair_a), np.asarray(pair_b), acc, **kwargs,
        )
        n = lo.shape[0]
        got = set(zip(*(arr.tolist() for arr in unique_pairs(*acc.as_arrays(), n)), strict=True))
        expected = self._expected_pairs(lo, hi, cat, starts, stops, pair_a, pair_b, n)
        return got, expected, tests, shortcuts, len(acc)

    def test_matches_naive(self, rng):
        got, expected, _t, _s, emitted = self._run(rng)
        assert got == expected
        assert emitted == len(expected)  # no duplicate emissions

    def test_enclosure_off_same_results_more_tests(self, rng):
        got_on, exp, tests_on, shortcuts_on, _ = self._run(rng)
        rng2 = np.random.default_rng(1234)  # same fixture seed
        got_off, _exp, tests_off, shortcuts_off, _ = self._run(
            rng2, enclosure_shortcut=False
        )
        assert got_on == got_off
        assert shortcuts_off == 0
        assert tests_off >= tests_on

    def test_small_chunks_equal_serial(self, rng):
        got_serial, expected, tests_serial, s_serial, _ = self._run(rng)
        rng2 = np.random.default_rng(1234)
        got_chunked, _exp, tests_chunked, s_chunked, _ = self._run(
            rng2, chunk_candidates=64
        )
        assert got_serial == got_chunked == expected
        assert tests_serial == tests_chunked
        assert s_serial == s_chunked

    def test_chunking_invariance(self, rng):
        got_big, expected, tests_big, _s, _ = self._run(rng, chunk_candidates=10**9)
        rng2 = np.random.default_rng(1234)
        got_small, _exp, tests_small, _s2, _ = self._run(rng2, chunk_candidates=16)
        assert got_big == got_small == expected
        assert tests_big == tests_small

    def test_matches_sequential_join_sorted_lists(self, rng):
        """The batched kernel is semantically the per-pair sequential
        join (same pairs, same plane-sweep test accounting)."""
        lo, hi, centers, cat, starts, stops, c_lo, c_hi = make_grouped_boxes(
            rng, n=80, n_groups=4
        )
        pair_a = np.asarray([0, 1, 2])
        pair_b = np.asarray([1, 2, 3])
        batched_acc = PairAccumulator(lo.shape[0])
        batched_tests, batched_shortcuts = cell_pair_sweep(
            lo, hi, cat, starts, stops, c_lo, c_hi, pair_a, pair_b, batched_acc
        )
        seq_acc = PairAccumulator(lo.shape[0])
        seq_tests = 0
        seq_shortcuts = 0
        for ga, gb in zip(pair_a, pair_b, strict=True):
            t, s = join_sorted_lists(
                lo,
                hi,
                cat[starts[ga]:stops[ga]],
                cat[starts[gb]:stops[gb]],
                c_lo[gb],
                c_hi[gb],
                seq_acc,
            )
            seq_tests += t
            seq_shortcuts += s
        n = lo.shape[0]
        assert np.array_equal(
            pack_pairs(*batched_acc.as_unique_arrays(), n),
            pack_pairs(*seq_acc.as_unique_arrays(), n),
        )
        assert batched_tests == seq_tests
        assert batched_shortcuts == seq_shortcuts

    def test_empty_pairs(self, rng):
        lo, hi, _c, cat, starts, stops, c_lo, c_hi = make_grouped_boxes(rng, n=20)
        acc = PairAccumulator(lo.shape[0])
        assert cell_pair_sweep(
            lo, hi, cat, starts, stops, c_lo, c_hi,
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), acc,
        ) == (0, 0)


class TestEmitHotCells:
    def test_matches_per_cell_all_combinations(self, rng):
        lo, hi, _c, cat, starts, stops, _cl, _ch = make_grouped_boxes(rng, n=60)
        acc_batched = PairAccumulator(lo.shape[0])
        hot = np.arange(starts.size)
        emitted = hot_cell_emit(cat, starts, stops, hot, acc_batched)
        acc_per_cell = PairAccumulator(lo.shape[0])
        for g in range(starts.size):
            i_ids, j_ids = all_combinations(cat[starts[g]:stops[g]])
            acc_per_cell.extend_canonical(i_ids, j_ids)
        n = lo.shape[0]
        assert emitted == len(acc_per_cell)
        assert np.array_equal(
            pack_pairs(*acc_batched.as_unique_arrays(), n),
            pack_pairs(*acc_per_cell.as_unique_arrays(), n),
        )

    def test_no_hot_cells(self, rng):
        lo, hi, _c, cat, starts, stops, _cl, _ch = make_grouped_boxes(rng, n=20)
        acc = PairAccumulator(lo.shape[0])
        assert hot_cell_emit(
            cat, starts, stops, np.empty(0, dtype=np.int64), acc
        ) == 0

    def test_single_member_cells_emit_nothing(self):
        cat = np.arange(3, dtype=np.int64)
        starts = np.asarray([0, 1, 2], dtype=np.int64)
        stops = np.asarray([1, 2, 3], dtype=np.int64)
        acc = PairAccumulator(cat.size)
        assert hot_cell_emit(cat, starts, stops, np.arange(3), acc) == 0
