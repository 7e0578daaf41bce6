"""The verify-kernel layer: chunking, the five primitives, recorded series.

Each primitive's emitted pair set is checked against the brute-force
oracle, its overlap-test count against the accounting it declares, and
every counter for equality across chunk sizes (the batching must never
show in the results).  Whole-algorithm series are pinned to a fixture
recorded before the kernel layer existed.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import ThermalJoin
from repro.core.celljoin import join_sorted_lists
from repro.datasets import IntermittentTranslation, make_uniform_workload
from repro.engine import chunk_by_volume
from repro.geometry import (
    PairAccumulator,
    brute_force_pairs,
    chunk_edges_by_volume,
    group_by_keys,
    pack_pairs,
    unique_pairs,
)
from repro.geometry import kernels
from repro.geometry.kernels import DEFAULT_CHUNK_CANDIDATES
from repro.joins import EGOJoin, PBSMJoin, PlaneSweepJoin
from repro.simulation import SimulationRunner

FIXTURE_PATH = pathlib.Path(__file__).parent / "fixtures" / "kernel_refactor_oracle.json"

#: The batch bounds every counter must be invariant under: one far above
#: the default (one batch here) and one small enough to split every input.
CHUNKS = (2_000_000, 64)


# ----------------------------------------------------------------------
# Shared chunking helper
# ----------------------------------------------------------------------
class TestChunkEdges:
    def test_exactly_one_mode_required(self):
        counts = np.asarray([1, 2, 3], dtype=np.int64)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts, max_volume=4, n_chunks=2)

    def test_invalid_bounds_raise(self):
        counts = np.asarray([1, 2, 3], dtype=np.int64)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts, max_volume=0)
        with pytest.raises(ValueError):
            chunk_edges_by_volume(counts, n_chunks=0)

    def test_max_volume_small_total_single_chunk(self):
        counts = np.asarray([3, 1, 2], dtype=np.int64)
        assert chunk_edges_by_volume(counts, max_volume=100).tolist() == [0, 3]

    def test_max_volume_known_split(self):
        counts = np.asarray([5, 5, 5], dtype=np.int64)
        assert chunk_edges_by_volume(counts, max_volume=5).tolist() == [0, 1, 2, 3]

    def test_max_volume_single_oversized_group(self):
        counts = np.asarray([10], dtype=np.int64)
        assert chunk_edges_by_volume(counts, max_volume=3).tolist() == [0, 1]

    def test_empty_counts(self):
        empty = np.empty(0, dtype=np.int64)
        assert chunk_edges_by_volume(empty, max_volume=4).tolist() == [0, 0]
        assert chunk_edges_by_volume(empty, n_chunks=4).tolist() == [0, 0]

    def test_max_volume_bounds_every_multi_group_chunk(self, rng):
        counts = rng.integers(0, 50, size=200).astype(np.int64)
        limit = 120
        edges = chunk_edges_by_volume(counts, max_volume=limit)
        assert edges[0] == 0 and edges[-1] == counts.size
        for a, b in zip(edges[:-1], edges[1:], strict=True):
            assert b > a
            # Each chunk is the smallest prefix reaching the target: it
            # may overshoot with its final group only.
            assert counts[a:b - 1].sum() < limit

    def test_n_chunks_mode_matches_chunk_by_volume(self, rng):
        for n_tasks in (1, 3, 8, 64):
            counts = rng.integers(0, 40, size=57).astype(np.int64)
            edges = chunk_edges_by_volume(counts, n_chunks=n_tasks)
            expected = chunk_by_volume(counts, n_tasks)
            got = [(int(edges[k]), int(edges[k + 1])) for k in range(len(edges) - 1)]
            assert got == expected
            assert len(got) <= n_tasks


# ----------------------------------------------------------------------
# The five primitives against the brute-force oracle
# ----------------------------------------------------------------------
def _grouped_boxes(rng, n=160, n_groups=6, span=40.0, integer=False):
    """Grouped boxes with a few giants so the enclosure shortcut fires.

    ``integer`` draws integer centers and widths, so many xlo/xhi values
    are equal within and across groups.
    """
    if integer:
        centers = rng.integers(0, int(span), size=(n, 3)).astype(float)
        widths = rng.integers(1, 9, size=(n, 3)).astype(float)
    else:
        centers = rng.uniform(0, span, size=(n, 3))
        widths = rng.uniform(1.0, 9.0, size=(n, 3))
    widths[: max(2, n // 25)] = 2.5 * span  # encloses whole cells
    lo = centers - widths / 2.0
    hi = centers + widths / 2.0
    keys = rng.integers(0, n_groups, size=n)
    cat, starts, stops, _unique = group_by_keys(keys, secondary_sort=lo[:, 0])
    center_lo = np.stack(
        [centers[cat[starts[g]:stops[g]]].min(axis=0) for g in range(starts.size)]
    )
    center_hi = np.stack(
        [centers[cat[starts[g]:stops[g]]].max(axis=0) for g in range(starts.size)]
    )
    return lo, hi, cat, starts, stops, center_lo, center_hi


def _integer_runs(rng, sizes, wide_share):
    """Integer boxes in x-sorted runs of ``sizes`` objects; a size of 0
    is an empty run between its neighbours.

    Bounds tie within and across runs.  A ``wide_share`` of the boxes
    start early and are wide in x, so a wide box early in a run is
    followed by narrow ones and x-upper order does not follow x-lower
    order.
    """
    n = int(sum(sizes))
    lo = rng.integers(0, 12, size=(n, 3)).astype(float)
    width = rng.integers(1, 4, size=(n, 3)).astype(float)
    wide = rng.random(n) < wide_share
    lo[wide, 0] = rng.integers(0, 3, size=int(wide.sum()))
    width[wide, 0] = rng.integers(8, 14, size=int(wide.sum()))
    hi = lo + width
    stops = np.cumsum(np.asarray(sizes, dtype=np.int64))
    starts = stops - np.asarray(sizes, dtype=np.int64)
    ids = rng.permutation(n).astype(np.int64)
    cat = np.concatenate([
        ids[a:b][np.argsort(lo[ids[a:b], 0], kind="stable")]
        for a, b in zip(starts, stops, strict=True)
    ])
    centers = (lo + hi) / 2.0
    center_lo = np.zeros((len(sizes), 3))
    center_hi = np.zeros((len(sizes), 3))
    for g, (a, b) in enumerate(zip(starts, stops, strict=True)):
        if b > a:
            center_lo[g] = centers[cat[a:b]].min(axis=0)
            center_hi[g] = centers[cat[a:b]].max(axis=0)
    return lo, hi, cat, starts, stops, center_lo, center_hi


def _group_of(cat, starts, stops, n):
    group = np.full(n, -1, dtype=np.int64)
    for g in range(starts.size):
        group[cat[starts[g]:stops[g]]] = g
    return group


def _oracle(lo, hi, group):
    """Brute-force pairs and candidate counts, split by group membership.

    Returns ``{"same"|"cross": (packed overlapping pairs, {"full": n,
    "x-sweep": n})}``: the overlapping pairs within one group or across
    two, and the candidate pairs each accounting charges — every
    candidate (``full``) or the x-overlapping ones (``x-sweep``).
    """
    n = lo.shape[0]
    i, j = brute_force_pairs(lo, hi)
    iu, ju = np.triu_indices(n, k=1)
    x_overlap = (lo[iu, 0] < hi[ju, 0]) & (lo[ju, 0] < hi[iu, 0])
    out = {}
    for name, pairs_mask, cand_mask in (
        ("same", group[i] == group[j], group[iu] == group[ju]),
        ("cross", group[i] != group[j], group[iu] != group[ju]),
    ):
        counts = {"full": int(cand_mask.sum()), "x-sweep": int((cand_mask & x_overlap).sum())}
        out[name] = (pack_pairs(i[pairs_mask], j[pairs_mask], n).tolist(), counts)
    return out


class _Collector:
    """``on_pairs`` callback recording every emitted (left, right) pair."""

    def __init__(self):
        self.left = []
        self.right = []

    def __call__(self, left, right, _groups):
        self.left.append(np.asarray(left))
        self.right.append(np.asarray(right))

    def packed(self, n):
        """Canonical packed keys; asserts nothing was emitted twice."""
        if not self.left:
            return []
        left = np.concatenate(self.left)
        unique = pack_pairs(*unique_pairs(left, np.concatenate(self.right), n), n)
        assert unique.size == left.size, "a pair was emitted more than once"
        return unique.tolist()


def _canonical(accumulator, n):
    return pack_pairs(*accumulator.as_unique_arrays(), n).tolist()


class TestKernelParity:
    @pytest.mark.parametrize("count", ["full", "x-sweep"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_self_join_groups(self, count, chunk, rng):
        lo, hi, cat, starts, stops, _cl, _ch = _grouped_boxes(rng)
        n = lo.shape[0]
        expected, tests_expected = _oracle(lo, hi, _group_of(cat, starts, stops, n))["same"]
        groups = np.arange(starts.size, dtype=np.int64)
        got = _Collector()
        tests = kernels.self_join_groups(
            lo, hi, cat, starts, stops, groups, got,
            count=count, chunk_candidates=chunk,
        )
        assert tests == tests_expected[count]
        assert got.packed(n) == expected

    @pytest.mark.parametrize("count", ["full", "x-sweep"])
    def test_cross_join_groups(self, count, rng):
        lo, hi, cat, starts, stops, _cl, _ch = _grouped_boxes(rng)
        n = lo.shape[0]
        expected, tests_expected = _oracle(lo, hi, _group_of(cat, starts, stops, n))["cross"]
        pair_a, pair_b = np.triu_indices(starts.size, k=1)
        values = kernels.grouped_values(lo, hi, cat)
        for chunk in CHUNKS:
            for given in (None, values):
                got = _Collector()
                tests = kernels.cross_join_groups(
                    lo, hi, cat, starts, stops, cat, starts, stops,
                    pair_a, pair_b, got, count=count, chunk_candidates=chunk,
                    values_a=given, values_b=given,
                )
                assert tests == tests_expected[count]
                assert got.packed(n) == expected
        # Columns built for another grouping are refused.
        with pytest.raises(ValueError):
            kernels.self_join_groups(
                lo, hi, cat, starts, stops, pair_a, _Collector(), values=values[:, 1:]
            )

    @pytest.mark.parametrize("shortcut", [True, False])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_cell_pair_sweep(self, shortcut, chunk, rng):
        lo, hi, cat, starts, stops, c_lo, c_hi = _grouped_boxes(rng)
        n = lo.shape[0]
        expected, tests_expected = _oracle(lo, hi, _group_of(cat, starts, stops, n))["cross"]
        pair_a, pair_b = np.triu_indices(starts.size, k=1)
        counters = []
        for bound in (DEFAULT_CHUNK_CANDIDATES, chunk):
            acc = PairAccumulator(n)
            counters.append(kernels.cell_pair_sweep(
                lo, hi, cat, starts, stops, c_lo, c_hi, pair_a, pair_b, acc,
                chunk_candidates=bound, enclosure_shortcut=shortcut,
            ))
            assert _canonical(acc, n) == expected
        # Identical to the default batch bound's counters.
        assert counters[0] == counters[1]
        tests, shortcuts = counters[1]
        # Every x-overlapping candidate is either tested or shortcut,
        # never both; the giants guarantee shortcut pairs.
        assert tests + shortcuts == tests_expected["x-sweep"]
        assert (shortcuts > 0) == shortcut

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_cell_pair_sweep_ties(self, chunk, rng):
        # Tied xlo/xhi values are where the window search's "<" counts
        # and its "side" decide whether a member opens or closes a window.
        lo, hi, cat, starts, stops, c_lo, c_hi = _grouped_boxes(rng, integer=True)
        n = lo.shape[0]
        assert np.unique(lo[:, 0]).size < n // 2
        expected, tests_expected = _oracle(lo, hi, _group_of(cat, starts, stops, n))["cross"]
        # One extra empty cell that starts where the last cell does,
        # paired both ways with every cell: it must add nothing.
        g = starts.size
        starts, stops = np.append(starts, starts[-1]), np.append(stops, starts[-1])
        c_lo, c_hi = np.vstack([c_lo, c_lo[-1]]), np.vstack([c_hi, c_hi[-1]])
        pair_a, pair_b = np.triu_indices(g, k=1)
        others = np.arange(g)
        pair_a = np.concatenate([pair_a, others, np.full(g, g)])
        pair_b = np.concatenate([pair_b, np.full(g, g), others])
        index = kernels.sweep_index(lo, hi, cat, starts, stops)
        counters = []
        for given in (None, index):
            acc = PairAccumulator(n)
            counters.append(kernels.cell_pair_sweep(
                lo, hi, cat, starts, stops, c_lo, c_hi, pair_a, pair_b, acc,
                chunk_candidates=chunk, index=given,
            ))
            assert _canonical(acc, n) == expected
            assert len(acc) == len(expected), "a pair was emitted more than once"
        assert counters[0] == counters[1]
        tests, shortcuts = counters[0]
        assert tests + shortcuts == tests_expected["x-sweep"]
        assert shortcuts > 0
        stale = kernels.sweep_index(lo, hi, cat[1:], starts[:0], stops[:0])
        with pytest.raises(ValueError):
            kernels.cell_pair_sweep(
                lo, hi, cat, starts, stops, c_lo, c_hi, pair_a, pair_b,
                PairAccumulator(n), index=stale,
            )

    def test_cell_pair_sweep_zero_width_at_xlo(self):
        # Box 1 has zero x-width at box 0's xlo (bounds can round to
        # that) and overlaps it in y and z: the strict "<" of the
        # brute-force test rejects it, so it is neither charged nor
        # emitted, in either pair order.
        lo = np.asarray([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        hi = np.asarray([[2.0, 1.0, 1.0], [0.0, 1.0, 1.0], [6.0, 1.0, 1.0]])
        cat = np.arange(3, dtype=np.int64)
        starts, stops = np.asarray([0, 1]), np.asarray([1, 3])
        centers = (lo + hi) / 2.0
        c_lo = np.stack([centers[:1].min(axis=0), centers[1:].min(axis=0)])
        c_hi = np.stack([centers[:1].max(axis=0), centers[1:].max(axis=0)])
        assert not lo[0, 0] < hi[1, 0], "boxes 0 and 1 are x-disjoint"
        for pair_a, pair_b in (([0], [1]), ([1], [0])):
            acc = PairAccumulator(3)
            assert kernels.cell_pair_sweep(
                lo, hi, cat, starts, stops, c_lo, c_hi, pair_a, pair_b, acc
            ) == (0, 0)
            assert len(acc) == 0

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 9), min_size=2, max_size=6),
        wide_share=st.sampled_from([0.0, 0.25, 0.6]),
        shortcut=st.booleans(),
        chunk=st.sampled_from([16, 17, 100, 4096, 10**9]),
    )
    @example(seed=5, sizes=[6, 0, 6], wide_share=0.6, shortcut=False, chunk=10**9)
    @settings(max_examples=120, deadline=None)
    def test_cell_pair_sweep_windows(self, seed, sizes, wide_share, shortcut, chunk):
        # One window per row opens at the running max of the run's xhi:
        # with a wide box early in a run, a member's own xhi would close
        # the window's lower edge too early.
        assume(sum(sizes) > 0)
        rng = np.random.default_rng(seed)
        lo, hi, cat, starts, stops, c_lo, c_hi = _integer_runs(rng, sizes, wide_share)
        n = lo.shape[0]
        pair_a, pair_b = np.triu_indices(len(sizes), k=1)
        flip = rng.random(pair_a.size) < 0.5
        pair_a, pair_b = np.where(flip, pair_b, pair_a), np.where(flip, pair_a, pair_b)
        index = kernels.sweep_index(lo, hi, cat, starts, stops)
        # The sequential sweep of each cell pair; bounds nothing encloses
        # turn its enclosure shortcut off.
        never = (np.full(3, -np.inf), np.full(3, np.inf))
        summed = np.zeros(2, dtype=np.int64)
        for a, b in zip(pair_a, pair_b, strict=True):
            got, want = PairAccumulator(n), PairAccumulator(n)
            counters = kernels.cell_pair_sweep(
                lo, hi, cat, starts, stops, c_lo, c_hi, [a], [b], got,
                chunk_candidates=chunk, enclosure_shortcut=shortcut, index=index,
            )
            target = (c_lo[b], c_hi[b]) if shortcut else never
            assert counters == join_sorted_lists(
                lo, hi, cat[starts[a]:stops[a]], cat[starts[b]:stops[b]], *target, want
            )
            assert np.array_equal(np.sort(got.as_keys()), np.sort(want.as_keys()))
            summed += counters
        acc = PairAccumulator(n)
        tests, shortcuts = kernels.cell_pair_sweep(
            lo, hi, cat, starts, stops, c_lo, c_hi, pair_a, pair_b, acc,
            chunk_candidates=chunk, enclosure_shortcut=shortcut,
        )
        assert [tests, shortcuts] == summed.tolist()
        expected, tests_expected = _oracle(lo, hi, _group_of(cat, starts, stops, n))["cross"]
        assert _canonical(acc, n) == expected
        assert len(acc) == len(expected), "a pair was emitted more than once"
        assert tests + shortcuts == tests_expected["x-sweep"]
        assert shortcut or shortcuts == 0

    def test_strip_sweep(self, rng):
        n = 200
        centers = rng.uniform(0, 60, size=(n, 3))
        widths = rng.uniform(1.0, 10.0, size=(n, 3))
        lo = centers - widths / 2.0
        hi = centers + widths / 2.0
        order = np.argsort(lo[:, 0], kind="stable").astype(np.int64)
        slo, shi, ids = lo[order], hi[order], order
        union = PairAccumulator(n)
        total_tests = 0
        for start, stop in ((0, 70), (70, 140), (140, n)):
            if start:
                carry = np.flatnonzero(shi[:start, 0] > slo[start, 0]).astype(np.int64)
            else:
                carry = np.empty(0, dtype=np.int64)
            total_tests += kernels.strip_sweep(slo, shi, ids, start, stop, carry, union)
        # The strips decompose the global sweep: their union is the
        # answer, each x-overlapping candidate charged exactly once.
        expected = brute_force_pairs(lo, hi)
        assert _canonical(union, n) == pack_pairs(*expected, n).tolist()
        no_groups = np.zeros(n, dtype=np.int64)
        assert total_tests == _oracle(lo, hi, no_groups)["same"][1]["x-sweep"]

    def test_hot_cell_emit(self, rng):
        # Hot cells: every member box contains its cell's anchor point,
        # so all within-cell pairs overlap and emission needs no tests.
        n, n_groups = 90, 5
        keys = rng.integers(0, n_groups, size=n)
        anchors = rng.uniform(0, 40, size=(n_groups, 3))
        centers = anchors[keys] + rng.uniform(-0.5, 0.5, size=(n, 3))
        half = rng.uniform(1.0, 3.0, size=(n, 3))
        lo, hi = centers - half, centers + half
        cat, starts, stops, _unique = group_by_keys(keys)
        expected, tests_expected = _oracle(lo, hi, _group_of(cat, starts, stops, n))["same"]
        acc = PairAccumulator(n)
        hot = np.arange(starts.size, dtype=np.int64)
        emitted = kernels.hot_cell_emit(cat, starts, stops, hot, acc)
        assert emitted == tests_expected["full"] == len(expected) > 0
        assert _canonical(acc, n) == expected

    def test_empty_inputs(self):
        empty_i = np.empty(0, dtype=np.int64)
        empty_box = np.empty((0, 3))
        acc = PairAccumulator(1)
        assert kernels.cell_pair_sweep(
            empty_box, empty_box, empty_i, empty_i, empty_i, empty_box, empty_box,
            empty_i, empty_i, acc,
        ) == (0, 0)
        assert kernels.hot_cell_emit(empty_i, empty_i, empty_i, empty_i, acc) == 0
        assert kernels.self_join_groups(
            empty_box, empty_box, empty_i, empty_i, empty_i, empty_i, _Collector()
        ) == 0
        assert kernels.cross_join_groups(
            empty_box, empty_box, empty_i, empty_i, empty_i, empty_i, empty_i,
            empty_i, empty_i, empty_i, _Collector(),
        ) == 0
        assert len(acc) == 0


#: Per-step index counters pinned by the ``thermal-join-index`` series.
INDEX_INFO_KEYS = (
    "cell_pair_joins",
    "cells_created",
    "occupied_cells",
    "total_cells",
    "vacant_cells",
    "tgrid_cells",
    "tgrid_fallbacks",
    "gc_runs",
    "layers",
)

#: Scenario -> (join factory, steps, workload kwargs, motion factory).
#: Together they cover GC runs, tuner re-tunes, two-layer grids, T-Grid
#: fallbacks next to real T-Grids, and pair-maintenance steps.
INDEX_SCENARIOS = {
    "uniform-r0.5": (
        lambda: ThermalJoin(resolution=0.5, count_only=True),
        12,
        {"width": 10.0, "side": 120.0},
        None,
    ),
    "tuned-dense": (
        lambda: ThermalJoin(count_only=True),
        10,
        {"width_range": (0.05, 10.0), "side": 40.0},
        None,
    ),
    "mixed-r2": (
        lambda: ThermalJoin(resolution=2.0, count_only=True),
        6,
        {"width_range": (2.0, 10.0), "side": 50.0},
        None,
    ),
    "maintain-r0.5": (
        lambda: ThermalJoin(resolution=0.5, count_only=True, pair_maintenance=True),
        8,
        {"width": 10.0, "side": 120.0},
        lambda ds: IntermittentTranslation(ds, seed=5, move_fraction=0.05, distance=2.0),
    ),
}


def _index_series(scenario):
    """Per-step results and index counters of one ``INDEX_SCENARIOS`` run."""
    factory, steps, workload, motion_factory = INDEX_SCENARIOS[scenario]
    side = workload["side"]
    dataset, motion = make_uniform_workload(
        900,
        width=workload.get("width", 15.0),
        width_range=workload.get("width_range"),
        bounds=(np.zeros(3), np.full(3, side)),
        seed=11,
    )
    if motion_factory is not None:
        motion = motion_factory(dataset)
    join = factory()
    rows = []
    delta = None
    for step in range(steps):
        if step:
            delta = motion.step(dataset)
        result = join.step_delta(dataset, delta)
        info = join.last_step_info
        row = {
            "n_results": result.n_results,
            "overlap_tests": result.stats.overlap_tests,
            "memory_bytes": result.stats.memory_bytes,
        }
        row.update({key: info[key] for key in INDEX_INFO_KEYS})
        row["tgrid_peak_cells"] = result.stats.index_counters["tgrid"]["peak_cells"]
        row["resolution"] = info["resolution"]
        rows.append(row)
    return rows


def _series(algorithm, steps=3, motion_factory=None, n_objects=500):
    dataset, motion = make_uniform_workload(
        n_objects, width=10.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=11
    )
    if motion_factory is not None:
        motion = motion_factory(dataset)
    runner = SimulationRunner(dataset, motion, algorithm)
    records = runner.run(steps)
    assert runner.failure is None
    return [(r.n_results, r.overlap_tests) for r in records]


# ----------------------------------------------------------------------
# Pre-refactor oracle regression (recorded before the kernel layer existed)
# ----------------------------------------------------------------------
class TestRecordedOracle:
    """The kernels must reproduce the pre-refactor per-step series."""

    def _recorded(self, name):
        rows = json.loads(FIXTURE_PATH.read_text())["runs"][name]
        return [(row["n_results"], row["overlap_tests"]) for row in rows]

    @pytest.mark.parametrize(
        "name, factory",
        [
            ("thermal-join", lambda: ThermalJoin(count_only=True)),
            ("pbsm", lambda: PBSMJoin(count_only=True)),
            ("plane-sweep", lambda: PlaneSweepJoin(count_only=True)),
            ("ego", lambda: EGOJoin(count_only=True)),
        ],
    )
    def test_random_walk_series(self, name, factory):
        got = _series(factory(), steps=4, n_objects=900)
        assert got == self._recorded(name)

    def test_incremental_series(self):
        got = _series(
            ThermalJoin(count_only=True, pair_maintenance=True),
            steps=6,
            n_objects=900,
            motion_factory=lambda ds: IntermittentTranslation(
                ds, seed=5, move_fraction=0.05, distance=2.0
            ),
        )
        assert got == self._recorded("thermal-join-incremental")

    @pytest.mark.parametrize("scenario", sorted(INDEX_SCENARIOS))
    def test_index_series(self, scenario):
        """P-Grid/T-Grid accounting, recorded before the columnar P-Grid."""
        recorded = json.loads(FIXTURE_PATH.read_text())["runs"]["thermal-join-index"]
        assert _index_series(scenario) == recorded[scenario]
