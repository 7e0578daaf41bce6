"""Unit tests for the plane sweeps: window expansion, the forward sweep
within one x-sorted list (``strip_sweep``) and between two
(``cell_pair_sweep``), and the plane-sweep join's sort."""

from __future__ import annotations

import numpy as np

from repro.datasets import SpatialDataset
from repro.geometry import (
    PairAccumulator,
    brute_force_pairs,
    mbr,
    pack_pairs,
    window_pairs,
)
from repro.geometry import kernels
from repro.joins import PlaneSweepJoin
from tests.conftest import random_boxes


def _sweep_self(lo, hi, ids=None):
    """Forward sweep self-join: one strip holding every box, no carry.

    Returns ``(accumulator, tests)``; pairs are in ``ids`` (positions
    when omitted).
    """
    n = lo.shape[0]
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    order = np.argsort(lo[:, 0], kind="stable")
    acc = PairAccumulator(int(ids.max()) + 1 if n else 1)
    tests = kernels.strip_sweep(
        kernels.grouped_values(lo, hi, order), ids[order], 0, n,
        np.empty(0, dtype=np.int64), acc,
    )
    return acc, tests


def _sweep_between(lo, hi, ids_a, ids_b):
    """Forward sweep between the boxes ``ids_a`` and ``ids_b`` of the
    global arrays: ``cell_pair_sweep`` over two cells, shortcut off.

    Returns ``(accumulator, tests)``.
    """
    cat = np.concatenate([
        np.asarray(ids, dtype=np.int64)[np.argsort(lo[ids, 0], kind="stable")]
        for ids in (ids_a, ids_b)
    ])
    starts = np.asarray([0, len(ids_a)], dtype=np.int64)
    stops = np.asarray([len(ids_a), cat.size], dtype=np.int64)
    bounds = np.zeros((2, 3))
    acc = PairAccumulator(lo.shape[0])
    tests, shortcuts = kernels.cell_pair_sweep(
        lo, hi, cat, starts, stops, bounds, bounds, [0], [1], acc,
        enclosure_shortcut=False,
    )
    assert shortcuts == 0
    return acc, tests


def _pair_set(acc):
    return set(zip(*(side.tolist() for side in acc.as_arrays()), strict=True))


class TestWindowPairs:
    def test_basic_expansion(self):
        left, right = window_pairs([1, 0, 3], [3, 0, 5])
        assert left.tolist() == [0, 0, 2, 2]
        assert right.tolist() == [1, 2, 3, 4]

    def test_empty_windows(self):
        left, right = window_pairs([2, 5], [2, 5])
        assert left.size == 0 and right.size == 0

    def test_inverted_window_clipped(self):
        left, right = window_pairs([5], [2])
        assert left.size == 0

    def test_total_count(self):
        starts = np.array([0, 2, 4])
        stops = np.array([3, 2, 10])
        left, _right = window_pairs(starts, stops)
        assert left.size == 3 + 0 + 6


class TestSweepSelf:
    """``strip_sweep`` over a single strip is the forward sweep self-join."""

    def test_matches_oracle_random(self, rng):
        lo, hi = random_boxes(rng, 200, span=60.0)
        exp = pack_pairs(*brute_force_pairs(lo, hi), 200)
        acc, tests = _sweep_self(lo, hi)
        got = pack_pairs(*acc.as_unique_arrays(), 200)
        assert np.array_equal(got, exp)
        assert tests >= exp.size  # every found pair was tested

    def test_no_duplicates(self, rng):
        lo, hi = random_boxes(rng, 150, span=40.0)
        acc, _tests = _sweep_self(lo, hi)
        assert len(_pair_set(acc)) == len(acc)  # emission already duplicate-free

    def test_identical_x_bounds(self):
        # All boxes share the same x interval: ties must not drop pairs.
        centers = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 50.0, 0.0]])
        lo, hi = mbr.boxes_from_centers(centers, 4.0)
        acc, tests = _sweep_self(lo, hi)
        assert _pair_set(acc) == {(0, 1)}
        assert tests == 3

    def test_fewer_than_two_boxes(self):
        lo = np.array([[0.0, 0.0, 0.0]])
        hi = np.array([[1.0, 1.0, 1.0]])
        acc, tests = _sweep_self(lo, hi)
        assert len(acc) == 0 and tests == 0
        empty = np.empty((0, 3))
        acc, tests = _sweep_self(empty, empty)
        assert len(acc) == 0 and tests == 0

    def test_test_count_bounded_by_x_overlaps(self, rng):
        lo, hi = random_boxes(rng, 100, span=30.0)
        _, tests = _sweep_self(lo, hi)
        # Count pairs with overlapping x intervals by brute force.
        x_overlaps = 0
        for a in range(100):
            for b in range(a + 1, 100):
                if lo[a, 0] < hi[b, 0] and lo[b, 0] < hi[a, 0]:
                    x_overlaps += 1
        assert tests == x_overlaps


class TestSweepBetween:
    """``cell_pair_sweep`` over two cells is the forward sweep between
    two disjoint x-sorted lists."""

    def test_matches_cross_oracle(self, rng):
        lo_a, hi_a = random_boxes(rng, 80, span=30.0)
        lo_b, hi_b = random_boxes(rng, 90, span=30.0)
        lo, hi = np.vstack([lo_a, lo_b]), np.vstack([hi_a, hi_b])
        acc, tests = _sweep_between(lo, hi, np.arange(80), np.arange(80, 170))
        got = _pair_set(acc)
        matrix = mbr.overlap_matrix(lo_a, hi_a, lo_b, hi_b)
        exp = {(int(a), int(b) + 80) for a, b in zip(*np.nonzero(matrix), strict=True)}
        assert got == exp
        assert len(got) == len(acc)  # no duplicates
        assert tests >= len(exp)

    def test_tied_x_bounds_counted_once(self):
        # a and b boxes with identical lower x bounds.
        lo = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        hi = np.array([[2.0, 2.0, 2.0], [2.0, 3.0, 3.0]])
        for ids_a, ids_b in (([0], [1]), ([1], [0])):
            acc, tests = _sweep_between(lo, hi, ids_a, ids_b)
            assert len(acc) == 1 and tests == 1

    def test_empty_side(self):
        lo = np.array([[0.0, 0.0, 0.0]])
        hi = np.array([[1.0, 1.0, 1.0]])
        acc, tests = _sweep_between(lo, hi, [0], [])
        assert len(acc) == 0 and tests == 0

    def test_global_ids_passed_through(self, rng):
        lo, hi = random_boxes(rng, 520, span=10.0)
        ids_a = np.arange(100, 120, dtype=np.int64)
        ids_b = np.arange(500, 520, dtype=np.int64)
        acc, _tests = _sweep_between(lo, hi, ids_a, ids_b)
        i_ids, j_ids = acc.as_arrays()
        assert i_ids.size > 0
        assert set(i_ids.tolist()) <= set(ids_a.tolist())
        assert set(j_ids.tolist()) <= set(ids_b.tolist())


class TestSortByX:
    """The plane-sweep join sorts once by lower x bound per step."""

    def test_sorts_by_lower_x(self, rng):
        lo, hi = random_boxes(rng, 50, span=20.0)
        dataset = SpatialDataset((lo + hi) / 2.0, hi - lo)
        join = PlaneSweepJoin()
        join._build(dataset)
        ctx = join.plan(dataset).context
        values, ids = ctx["values"], ctx["ids"]
        d_lo, d_hi = dataset.boxes()
        assert (np.diff(values[0]) >= 0).all()
        assert np.array_equal(values, kernels.grouped_values(d_lo, d_hi, ids))

    def test_custom_ids_follow_boxes(self):
        lo = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        hi = lo + 1.5
        ids = np.array([30, 10, 20], dtype=np.int64)
        acc, tests = _sweep_self(lo, hi, ids)
        # Only the x-neighbours 1–2 and 2–3 overlap, in their own ids.
        assert _pair_set(acc) == {(10, 20), (20, 30)}
        assert tests == 2
