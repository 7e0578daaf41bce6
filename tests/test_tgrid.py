"""Unit tests for the one-pass T-Grid joiner (repro.core.tgrid)."""

from __future__ import annotations

import numpy as np

from repro.core import PGrid, TGrid
from repro.datasets import SpatialDataset
from repro.geometry import PairAccumulator, mbr, pack_pairs, unique_pairs


def build_cells(dataset, resolution=2.0, min_members=2):
    """Build a coarse P-Grid; return its join context and populous cells."""
    lo, hi = dataset.boxes()
    grid = PGrid(resolution * dataset.max_width, dataset.bounds[0])
    grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
    ctx = {
        "lo": lo,
        "hi": hi,
        "centers": dataset.centers,
        "widths": dataset.widths,
        "cat": grid.cat,
        "starts": grid.cell_starts,
        "stops": grid.cell_stops,
        "cell_min_width": grid.cell_min_width,
        "cell_max_width": grid.cell_max_width,
    }
    slots = np.flatnonzero(grid.cell_stops - grid.cell_starts >= min_members)
    return ctx, slots, grid.cell_lo(slots), grid.cell_width


def join(cells, accumulator, part=slice(None)):
    ctx, slots, cell_lo, cell_width = cells
    return TGrid.join_cells(ctx, accumulator, slots[part], cell_lo[part], cell_width)


def naive_internal_pairs(dataset, cells):
    """Oracle: all overlapping pairs *within* each cell."""
    ctx, slots, _cell_lo, _width = cells
    lo, hi = dataset.boxes()
    expected = set()
    for slot in slots:
        members = ctx["cat"][ctx["starts"][slot]:ctx["stops"][slot]]
        for a in range(members.size):
            for b in range(a + 1, members.size):
                i, j = int(members[a]), int(members[b])
                if mbr.overlap_single(lo[i], hi[i], lo[j], hi[j]):
                    expected.add((min(i, j), max(i, j)))
    return expected


def pair_set(accumulator, n):
    return set(zip(*(a.tolist() for a in unique_pairs(*accumulator.as_arrays(), n)), strict=True))


def varied_dataset(n=300, seed=0, width_low=2.0, width_high=9.0, side=60.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, side, size=(n, 3))
    widths = rng.uniform(width_low, width_high, size=(n, 3))
    return SpatialDataset(centers, widths, bounds=(np.zeros(3), np.full(3, side)))


class TestJoinCells:
    def test_matches_naive_within_cell_join(self):
        dataset = varied_dataset(seed=1)
        cells = build_cells(dataset)
        assert cells[1].size, "fixture produced no multi-member cells"
        acc = PairAccumulator(len(dataset))
        join(cells, acc)
        assert pair_set(acc, len(dataset)) == naive_internal_pairs(dataset, cells)

    def test_no_duplicate_emissions(self):
        dataset = varied_dataset(seed=2)
        cells = build_cells(dataset)
        acc = PairAccumulator(len(dataset))
        join(cells, acc)
        i_idx, j_idx = acc.as_arrays()
        keys = pack_pairs(i_idx, j_idx, len(dataset))
        assert np.unique(keys).size == keys.size

    def test_fallback_on_degenerate_resolution(self):
        # One minuscule object among giants would demand a huge T-Grid;
        # the budget forces the sweep fallback, results stay exact.
        rng = np.random.default_rng(3)
        centers = rng.uniform(20.0, 30.0, size=(40, 3))
        widths = np.full((40, 3), 20.0)
        widths[0] = 0.01
        dataset = SpatialDataset(
            centers, widths, bounds=(np.zeros(3), np.full(3, 50.0))
        )
        cells = build_cells(dataset, resolution=2.0)
        acc = PairAccumulator(len(dataset))
        counters = join(cells, acc)
        assert counters["tgrid_fallbacks"] > 0
        assert pair_set(acc, len(dataset)) == naive_internal_pairs(dataset, cells)

    def test_peak_cells_tracked(self):
        dataset = varied_dataset(seed=4)
        cells = build_cells(dataset)
        counters = join(cells, PairAccumulator(len(dataset)))
        assert counters["tgrid_t_cells"] > 0

    def test_single_member_cells_skipped(self):
        dataset = varied_dataset(n=12, seed=5, side=200.0)
        # Every occupied cell, single-member ones included.
        cells = build_cells(dataset, min_members=1)
        acc = PairAccumulator(len(dataset))
        counters = join(cells, acc)
        # Sparse layout: nothing shares a cell, nothing to join.
        assert len(acc) == 0
        assert counters["tgrid_t_cells"] == 0
        assert counters["overlap_tests"] == 0

    def test_counts_are_deterministic(self):
        dataset = varied_dataset(seed=6)
        cells = build_cells(dataset)
        runs = [join(cells, PairAccumulator(len(dataset), count_only=True)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_batching_is_invisible(self):
        # Any split of the cells into batches sums to the same counters
        # and pair set as one batch: the engine chunks this task freely.
        dataset = varied_dataset(n=500, seed=7, width_low=0.5)
        cells = build_cells(dataset)
        whole = PairAccumulator(len(dataset))
        expected = join(cells, whole)
        assert expected["tgrid_t_cells"] and expected["tgrid_fallbacks"]
        split = PairAccumulator(len(dataset))
        middle = cells[1].size // 2
        parts = [join(cells, split, slice(None, middle)), join(cells, split, slice(middle, None))]
        assert {key: sum(p[key] for p in parts) for key in expected} == expected
        assert pair_set(split, len(dataset)) == pair_set(whole, len(dataset))
