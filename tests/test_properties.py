"""Property-based tests (hypothesis) for core invariants.

These complement the example-based suites with randomised adversarial
inputs: every join algorithm must agree with the brute-force oracle on
*arbitrary* box configurations, the hot-spot guarantee must hold for
whatever lands in a grid cell, identifier packing must round-trip, and
the tuner must converge on arbitrary convex landscapes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HillClimbingTuner,
    PGrid,
    ThermalJoin,
    neighbor_pairs,
    pack_cell_ids,
    unpack_cell_ids,
)
from repro.core.tuning import R_MAX, R_MIN
from repro.datasets import SpatialDataset
from repro.geometry import (
    PairAccumulator,
    brute_force_pairs,
    mbr,
    pack_pairs,
    unique_pairs,
)
from repro.geometry import kernels
from repro.joins import EGOJoin, PBSMJoin, SynchronousRTreeJoin, TouchJoin

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Finite, well-scaled coordinates (extreme magnitudes are exercised by
#: dedicated unit tests; property tests target combinatorial adversity).
coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
width = st.floats(min_value=0.05, max_value=40.0, allow_nan=False)


@st.composite
def box_sets(draw, min_size=2, max_size=40):
    """A random collection of boxes as (centers, widths) arrays."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    centers = draw(
        st.lists(
            st.tuples(coordinate, coordinate, coordinate), min_size=n, max_size=n
        )
    )
    widths = draw(st.lists(width, min_size=n, max_size=n))
    return np.asarray(centers, dtype=np.float64), np.asarray(widths, dtype=np.float64)


def oracle_keys(dataset):
    lo, hi = dataset.boxes()
    i_idx, j_idx = brute_force_pairs(lo, hi)
    return pack_pairs(i_idx, j_idx, len(dataset))


def result_keys(result, n):
    return pack_pairs(*unique_pairs(*result.pairs, n), n)


# ----------------------------------------------------------------------
# Oracle equivalence of the joins
# ----------------------------------------------------------------------
class TestJoinOracleEquivalence:
    @given(box_sets(), st.sampled_from([0.4, 0.8, 1.0, 1.7]))
    @settings(max_examples=60, deadline=None)
    def test_thermal_matches_oracle(self, boxes, resolution):
        centers, widths = boxes
        dataset = SpatialDataset(centers, widths)
        result = ThermalJoin(resolution=resolution).step(dataset)
        assert np.array_equal(result_keys(result, len(dataset)), oracle_keys(dataset))

    @given(box_sets())
    @settings(max_examples=40, deadline=None)
    def test_pbsm_matches_oracle(self, boxes):
        centers, widths = boxes
        dataset = SpatialDataset(centers, widths)
        result = PBSMJoin().step(dataset)
        assert np.array_equal(result_keys(result, len(dataset)), oracle_keys(dataset))

    @given(box_sets())
    @settings(max_examples=40, deadline=None)
    def test_ego_matches_oracle(self, boxes):
        centers, widths = boxes
        dataset = SpatialDataset(centers, widths)
        result = EGOJoin().step(dataset)
        assert np.array_equal(result_keys(result, len(dataset)), oracle_keys(dataset))

    @given(box_sets(), st.sampled_from([2, 3, 8]))
    @settings(max_examples=40, deadline=None)
    def test_rtree_matches_oracle(self, boxes, fanout):
        centers, widths = boxes
        dataset = SpatialDataset(centers, widths)
        result = SynchronousRTreeJoin(fanout=fanout).step(dataset)
        assert np.array_equal(result_keys(result, len(dataset)), oracle_keys(dataset))

    @given(box_sets())
    @settings(max_examples=40, deadline=None)
    def test_touch_matches_oracle(self, boxes):
        centers, widths = boxes
        dataset = SpatialDataset(centers, widths)
        result = TouchJoin().step(dataset)
        assert np.array_equal(result_keys(result, len(dataset)), oracle_keys(dataset))

    @given(box_sets())
    @settings(max_examples=40, deadline=None)
    def test_sweep_matches_oracle(self, boxes):
        centers, widths = boxes
        lo, hi = mbr.boxes_from_centers(centers, widths)
        n = lo.shape[0]
        ids = np.argsort(lo[:, 0], kind="stable")
        acc = PairAccumulator(n)
        kernels.strip_sweep(
            kernels.grouped_values(lo, hi, ids), ids, 0, n, np.empty(0, dtype=np.int64), acc
        )
        got = pack_pairs(*unique_pairs(*acc.as_arrays(), n), n)
        assert got.size == len(acc)
        exp = pack_pairs(*brute_force_pairs(lo, hi), n)
        assert np.array_equal(got, exp)


# ----------------------------------------------------------------------
# Hot-spot guarantee
# ----------------------------------------------------------------------
class TestHotSpotInvariant:
    @given(box_sets(min_size=4, max_size=60), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_hot_cells_are_cliques(self, boxes, resolution):
        """Whenever the hot-spot condition holds for a P-Grid cell, every
        pair of its objects genuinely overlaps — the guarantee that lets
        THERMAL-JOIN skip the predicate entirely."""
        centers, widths = boxes
        dataset = SpatialDataset(centers, widths)
        lo, hi = dataset.boxes()
        grid = PGrid(resolution * dataset.max_width, dataset.bounds[0])
        grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
        for slot, (start, stop) in enumerate(
            zip(grid.cell_starts, grid.cell_stops, strict=True)
        ):
            members = grid.cat[start:stop]
            if members.size < 2:
                continue
            spread = grid.cell_center_hi[slot] - grid.cell_center_lo[slot]
            if not (spread < grid.cell_min_width[slot]).all():
                continue
            for a in range(members.size):
                for b in range(a + 1, members.size):
                    ia, ib = members[a], members[b]
                    assert mbr.overlap_single(lo[ia], hi[ia], lo[ib], hi[ib])

    @given(box_sets(min_size=3, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_every_object_in_exactly_one_cell(self, boxes):
        centers, widths = boxes
        dataset = SpatialDataset(centers, widths)
        lo, _hi = dataset.boxes()
        grid = PGrid(dataset.max_width, dataset.bounds[0])
        grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
        sizes = grid.cell_stops - grid.cell_starts
        assert (sizes > 0).all() and sizes.size == grid.n_occupied
        assert np.array_equal(np.sort(grid.cat), np.arange(len(dataset)))


# ----------------------------------------------------------------------
# P-Grid splice: an incremental refresh equals a full assignment
# ----------------------------------------------------------------------
#: Half-unit lattice points: lower x bounds tie often, within and across cells.
lattice = st.integers(min_value=0, max_value=24).map(lambda k: k * 0.5)
#: A region no object starts in, so moves there open brand-new cells.
far = st.integers(min_value=60, max_value=80).map(lambda k: k * 0.5)
point = st.one_of(st.tuples(lattice, lattice, lattice), st.tuples(far, far, far))


@st.composite
def motion_runs(draw, max_size=40, max_steps=5):
    """Objects on the lattice plus a few steps of (index, target) moves."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    centers = draw(
        st.lists(st.tuples(lattice, lattice, lattice), min_size=n, max_size=n)
    )
    widths = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    moves = st.lists(st.tuples(st.integers(min_value=0, max_value=n - 1), point))
    steps = draw(st.lists(moves, min_size=1, max_size=max_steps))
    return np.asarray(centers), np.asarray(widths), steps


class _SplicingGrid(PGrid):
    """A P-Grid that counts the refreshes it spliced."""

    splices = 0

    def _splice(self, *args):
        self.splices += 1
        return super()._splice(*args)


def _refresh(grid, dataset, delta=None):
    lo, _hi = dataset.boxes()
    grid.refresh(
        dataset.centers,
        lo[:, 0],
        dataset.widths,
        dataset.max_width,
        source=(dataset.uid, dataset.version),
        delta=delta,
    )


def _move(dataset, moves):
    before = dataset.centers.copy()
    for index, target in moves:
        dataset.centers[index] = target
    return dataset.commit_motion(before)


def _assert_same_grid(spliced, assigned):
    for name in (
        "cat",
        "cell_starts",
        "cell_stops",
        "cell_min_width",
        "cell_max_width",
        "cell_center_lo",
        "cell_center_hi",
        "ids",
        "vacant",
    ):
        a, b = getattr(spliced, name), getattr(assigned, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("cells_created", "cells_recycled", "gc_runs", "_n_links"):
        assert getattr(spliced, name) == getattr(assigned, name), name
    links = neighbor_pairs(spliced.ids, spliced.ids, spliced.layers)[0].size
    assert spliced._n_links == links


class TestPGridSplice:
    @given(motion_runs(), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_splice_equals_full_assign(self, run, resolution):
        """Splicing the moved objects gives the arrays, table and counters
        a full ``lexsort`` assignment gives — tied x bounds, new and
        emptied cells, garbage collection and two layers (``r < 1``)
        included."""
        centers, widths, steps = run
        dataset = SpatialDataset(centers, widths)
        cell_width = resolution * dataset.max_width
        spliced = _SplicingGrid(cell_width, np.full(3, -1.0))
        assigned = PGrid(cell_width, np.full(3, -1.0))
        _refresh(spliced, dataset)
        _refresh(assigned, dataset)
        for moves in steps:
            delta = _move(dataset, moves)
            _refresh(spliced, dataset, delta)
            _refresh(assigned, dataset)
            _assert_same_grid(spliced, assigned)
        assert spliced.splices == len(steps)

    def test_splice_through_new_cells_and_garbage_collection(self):
        rng = np.random.default_rng(5)
        dataset = SpatialDataset(rng.integers(0, 20, size=(30, 3)) * 0.5, 1.0)
        spliced = _SplicingGrid(1.0, np.full(3, -1.0))
        assigned = PGrid(1.0, np.full(3, -1.0))
        _refresh(spliced, dataset)
        _refresh(assigned, dataset)
        created = spliced.cells_created
        delta = _move(dataset, [(i, (35.0 + i, 35.0, 35.0)) for i in range(25)])
        _refresh(spliced, dataset, delta)
        _refresh(assigned, dataset)
        assert spliced.splices == 1
        assert spliced.cells_created > created and spliced.gc_runs == 1
        _assert_same_grid(spliced, assigned)


# ----------------------------------------------------------------------
# Packing and pair encodings
# ----------------------------------------------------------------------
class TestEncodings:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**20), max_value=2**20 - 1),
                st.integers(min_value=-(2**20), max_value=2**20 - 1),
                st.integers(min_value=-(2**20), max_value=2**20 - 1),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100)
    def test_cell_id_roundtrip(self, coords):
        arr = np.asarray(coords, dtype=np.int64)
        assert np.array_equal(unpack_cell_ids(pack_cell_ids(arr)), arr)

    @given(
        st.integers(min_value=2, max_value=500),
        st.data(),
    )
    @settings(max_examples=60)
    def test_pair_pack_roundtrip(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=30))
        i_idx = data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
        )
        j_idx = data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
        )
        i_arr = np.asarray(i_idx, dtype=np.int64)
        j_arr = np.asarray(j_idx, dtype=np.int64)
        keys = pack_pairs(i_arr, j_arr, n)
        from repro.geometry import unpack_pairs

        ri, rj = unpack_pairs(keys, n)
        assert np.array_equal(ri, i_arr)
        assert np.array_equal(rj, j_arr)


# ----------------------------------------------------------------------
# Tuner convergence
# ----------------------------------------------------------------------
class TestTunerProperties:
    @given(
        st.floats(min_value=0.25, max_value=1.9),
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=5.0, max_value=200.0),
    )
    @settings(max_examples=100)
    def test_converges_on_any_convex_landscape(self, optimum, curvature, base):
        tuner = HillClimbingTuner()
        for _ in range(60):
            tuner.observe(base + curvature * (tuner.current_r - optimum) ** 2)
            if tuner.converged:
                break
        assert tuner.converged
        assert R_MIN <= tuner.current_r <= R_MAX

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=80)
    def test_never_leaves_bounds_on_arbitrary_costs(self, costs):
        tuner = HillClimbingTuner()
        for cost in costs:
            tuner.observe(cost)
            assert R_MIN <= tuner.current_r <= R_MAX


# ----------------------------------------------------------------------
# Simulation invariants
# ----------------------------------------------------------------------
class TestMotionInvariants:
    @given(
        st.integers(min_value=2, max_value=60),
        st.floats(min_value=0.1, max_value=80.0),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_reflection_keeps_objects_inside(self, n, distance, steps):
        from repro.datasets import RandomTranslation

        rng = np.random.default_rng(n)
        centers = rng.uniform(10.0, 40.0, size=(n, 3))
        dataset = SpatialDataset(
            centers, 1.0, bounds=(np.zeros(3), np.full(3, 50.0))
        )
        motion = RandomTranslation(dataset, distance=distance, seed=1)
        for _ in range(steps):
            motion.step(dataset)
            lo_b, hi_b = dataset.bounds
            assert (dataset.centers >= lo_b).all()
            assert (dataset.centers <= hi_b).all()

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_incremental_thermal_equals_fresh_thermal(self, n, steps):
        """After any number of maintenance cycles the incremental index
        answers exactly like a freshly built one."""
        from repro.datasets import RandomTranslation

        rng = np.random.default_rng(n * 7 + steps)
        centers = rng.uniform(0.0, 60.0, size=(n, 3))
        dataset = SpatialDataset(
            centers, 8.0, bounds=(np.zeros(3), np.full(3, 60.0))
        )
        motion = RandomTranslation(dataset, distance=15.0, seed=3)
        incremental = ThermalJoin(resolution=1.0)
        for _ in range(steps):
            incremental_result = incremental.step(dataset)
            fresh_result = ThermalJoin(resolution=1.0).step(dataset)
            assert np.array_equal(
                result_keys(incremental_result, n), result_keys(fresh_result, n)
            )
            motion.step(dataset)
