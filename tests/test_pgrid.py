"""Unit tests for the P-Grid (build, maintenance, GC, neighbour pairs)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import PGrid, neighbor_pairs, pack_cell_ids, unpack_cell_ids
from repro.datasets import make_uniform_dataset


def refresh_grid(grid, dataset):
    lo, _hi = dataset.boxes()
    grid.refresh(dataset.centers, lo[:, 0], dataset.widths, dataset.max_width)
    return cell_members(grid)


def cell_members(grid):
    """Object indices of each occupied cell, in slot order."""
    return [
        grid.cat[start:stop]
        for start, stop in zip(grid.cell_starts, grid.cell_stops, strict=True)
    ]


def small_dataset(n=200, width=10.0, side=100.0, seed=0):
    return make_uniform_dataset(
        n, width=width, bounds=(np.zeros(3), np.full(3, side)), seed=seed
    )


def adjacent_table_pairs(grid):
    """Brute force: unordered pairs of table cells at most ``layers`` apart."""
    coords = unpack_cell_ids(grid.ids)
    pairs = set()
    for a, b in itertools.combinations(range(grid.ids.size), 2):
        if np.abs(coords[a] - coords[b]).max() <= grid.layers:
            pairs.add(frozenset((int(grid.ids[a]), int(grid.ids[b]))))
    return pairs


def table_links(grid):
    """The neighbour pairs among all table cells, as id frozensets."""
    i, j = neighbor_pairs(grid.ids, grid.ids, grid.layers)
    return [frozenset((int(grid.ids[a]), int(grid.ids[b]))) for a, b in zip(i, j, strict=True)]


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PGrid(0.0, np.zeros(3))
        with pytest.raises(ValueError):
            PGrid(1.0, np.zeros(3), gc_threshold=0.0)
        with pytest.raises(ValueError):
            PGrid(1.0, np.zeros(2))

    def test_required_layers(self):
        grid = PGrid(10.0, np.zeros(3))
        assert grid.required_layers(10.0) == 1  # r = 1 -> one layer
        assert grid.required_layers(5.0) == 1  # coarser than objects
        assert grid.required_layers(20.0) == 2  # r = 0.5 -> two layers
        assert grid.required_layers(25.0) == 3


class TestBuild:
    def test_every_object_assigned_once(self):
        ds = small_dataset(300)
        grid = PGrid(10.0, np.zeros(3))
        members = refresh_grid(grid, ds)
        seen = np.concatenate(members)
        assert np.array_equal(np.sort(seen), np.arange(300))

    def test_objects_assigned_by_center(self):
        ds = small_dataset(300)
        grid = PGrid(10.0, np.zeros(3))
        members = refresh_grid(grid, ds)
        cell_lo = grid.cell_lo(np.arange(len(members)))
        for slot, objects in enumerate(members):
            centers = ds.centers[objects]
            assert (centers >= cell_lo[slot]).all()
            assert (centers < cell_lo[slot] + grid.cell_width).all()

    def test_object_lists_sorted_by_x_lo(self):
        ds = small_dataset(500)
        grid = PGrid(10.0, np.zeros(3))
        lo, _hi = ds.boxes()
        for objects in refresh_grid(grid, ds):
            xlo = lo[objects, 0]
            assert (np.diff(xlo) >= 0).all()

    def test_only_nonempty_cells_materialized(self):
        ds = small_dataset(10, side=1000.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert grid.n_cells <= 10  # far fewer than the 100^3 virtual cells

    def test_cell_metadata(self):
        ds = make_uniform_dataset(
            300,
            width_range=(5.0, 15.0),
            bounds=(np.zeros(3), np.full(3, 80.0)),
            seed=1,
        )
        grid = PGrid(15.0, np.zeros(3))
        for slot, objects in enumerate(refresh_grid(grid, ds)):
            widths = ds.widths[objects]
            centers = ds.centers[objects]
            assert np.allclose(grid.cell_min_width[slot], widths.min(axis=0))
            assert np.allclose(grid.cell_max_width[slot], widths.max(axis=0))
            assert np.allclose(grid.cell_center_lo[slot], centers.min(axis=0))
            assert np.allclose(grid.cell_center_hi[slot], centers.max(axis=0))

    def test_slots_align_with_occupied_list(self):
        ds = small_dataset(200)
        grid = PGrid(10.0, np.zeros(3))
        members = refresh_grid(grid, ds)
        assert grid.occupied_ids.size == len(members) == grid.n_occupied
        for slot, objects in enumerate(members):
            coords = np.floor(ds.centers[objects] / grid.cell_width).astype(np.int64)
            assert (pack_cell_ids(coords) == grid.occupied_ids[slot]).all()


class TestHyperlinks:
    """Neighbour pairs: the paper's hyperlinks, found by binary search."""

    def test_each_adjacent_pair_linked_exactly_once(self):
        ds = small_dataset(400, width=10.0, side=60.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        links = table_links(grid)
        assert len(set(links)) == len(links), "cell pair linked twice"
        assert set(links) == adjacent_table_pairs(grid)
        # A first build counts its links with the forward search alone.
        assert grid._n_links == len(adjacent_table_pairs(grid))

    def test_links_point_to_adjacent_cells_only(self):
        ds = small_dataset(300, width=10.0, side=80.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        i, j = neighbor_pairs(grid.occupied_ids, grid.occupied_ids, grid.layers)
        occupied = unpack_cell_ids(grid.occupied_ids)
        delta = np.abs(occupied[i] - occupied[j]).max(axis=1)
        assert i.size and (delta >= 1).all() and (delta <= grid.layers).all()

    def test_multiple_layers_when_cells_finer_than_objects(self):
        ds = small_dataset(300, width=20.0, side=80.0)
        grid = PGrid(10.0, np.zeros(3))  # cell width = half the object width
        refresh_grid(grid, ds)
        assert grid.layers == 2

    def test_incremental_new_cells_get_links(self):
        ds = small_dataset(300, width=10.0, side=60.0, seed=2)
        grid = PGrid(10.0, np.zeros(3), gc_threshold=0.99)
        refresh_grid(grid, ds)
        # Move everything, creating new cells next to old (now vacant) ones.
        ds.translate(np.full((300, 3), 7.0))
        refresh_grid(grid, ds)
        assert grid.n_vacant > 0
        assert grid._n_links == len(adjacent_table_pairs(grid))
        assert set(table_links(grid)) == adjacent_table_pairs(grid)

    def test_no_alias_at_edge_of_packable_range(self):
        # (0, 0, 2^20 - 1) and (0, 1, -2^20) are not adjacent, but naive
        # key arithmetic carries z + 1 into y and links them.
        edge = float(1 << 20)
        centers = np.array([[0.5, 0.5, edge - 0.5], [0.5, 1.5, -edge + 0.5]])
        widths = np.ones((2, 3))
        grid = PGrid(1.0, np.zeros(3))
        grid.refresh(centers, centers[:, 0] - 0.5, widths, 1.0)
        assert grid.n_cells == 2
        i, _j = neighbor_pairs(grid.ids, grid.ids, grid.layers)
        assert i.size == 0
        assert grid.memory_footprint() == brute_force_footprint(grid)
        assert grid._n_links == 0


class TestIncrementalMaintenance:
    def test_cells_recycled_when_objects_stay(self):
        ds = small_dataset(300)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        created_first = grid.cells_created
        refresh_grid(grid, ds)  # same positions: all cells recycled
        assert grid.cells_created == created_first
        assert grid.cells_recycled >= created_first

    def test_vacated_cells_kept_and_aged(self):
        ds = small_dataset(50, width=5.0, side=30.0, seed=3)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.99)
        refresh_grid(grid, ds)
        n_before = grid.n_cells
        ds.translate(np.full((50, 3), 11.0))  # everyone moves 2+ cells
        refresh_grid(grid, ds)
        assert grid.n_vacant > 0
        assert grid.n_cells >= n_before  # vacants kept (GC off)
        vacated = set(grid.ids[grid.vacant].tolist())
        ds.translate(np.full((50, 3), 11.0))
        refresh_grid(grid, ds)
        # Still vacant a step later, and still in the table.
        assert vacated <= set(grid.ids[grid.vacant].tolist())

    def test_vacant_cell_reused_on_return(self):
        ds = small_dataset(50, width=5.0, side=30.0, seed=4)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.99)
        refresh_grid(grid, ds)
        ids_before = set(grid.ids.tolist())
        shift = np.full((50, 3), 11.0)
        ds.translate(shift)
        refresh_grid(grid, ds)
        created_mid = grid.cells_created
        ds.translate(-shift)  # everyone returns home
        refresh_grid(grid, ds)
        assert grid.cells_created == created_mid  # nothing new created
        assert set(grid.ids.tolist()) >= ids_before

    def test_layer_change_forces_rebuild(self):
        ds = small_dataset(100, width=10.0)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert grid.layers == 1
        lo, _hi = ds.boxes()
        # Same grid, but objects now twice as wide: two layers needed.
        wide = np.full_like(ds.widths, 20.0)
        grid.refresh(ds.centers, lo[:, 0], wide, 20.0)
        assert grid.layers == 2


class TestGarbageCollection:
    def _scatter(self, grid, ds, repeats):
        rng = np.random.default_rng(9)
        for _ in range(repeats):
            ds.update_positions(rng.uniform(0, 30.0, size=ds.centers.shape))
            refresh_grid(grid, ds)

    def test_triggered_above_threshold(self):
        ds = small_dataset(30, width=5.0, side=30.0, seed=5)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        self._scatter(grid, ds, 10)
        total = grid.n_cells
        assert grid.n_vacant <= 0.35 * total + 1
        assert grid.gc_runs > 0

    def test_gc_dissolves_stale_hyperlinks(self):
        ds = small_dataset(30, width=5.0, side=30.0, seed=6)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        self._scatter(grid, ds, 10)
        assert grid.gc_runs > 0
        # The link total counts only pairs among the surviving cells.
        assert grid._n_links == len(adjacent_table_pairs(grid))

    def test_high_threshold_never_collects(self):
        ds = small_dataset(30, width=5.0, side=30.0, seed=7)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=1.0)
        self._scatter(grid, ds, 6)
        assert grid.gc_runs == 0


class TestFootprint:
    def test_footprint_grows_with_cells(self):
        small = small_dataset(50, side=50.0)
        large = small_dataset(1000, side=200.0)
        grid_s = PGrid(10.0, np.zeros(3))
        grid_l = PGrid(10.0, np.zeros(3))
        refresh_grid(grid_s, small)
        refresh_grid(grid_l, large)
        assert grid_l.memory_footprint() > grid_s.memory_footprint()

    def test_empty_grid_has_zero_footprint(self):
        assert PGrid(10.0, np.zeros(3)).memory_footprint() == 0

    def test_finer_grid_uses_more_memory(self):
        ds = small_dataset(500, width=10.0, side=100.0)
        coarse = PGrid(10.0, np.zeros(3))
        fine = PGrid(3.0, np.zeros(3))
        refresh_grid(coarse, ds)
        refresh_grid(fine, ds)
        assert fine.memory_footprint() > coarse.memory_footprint()


def brute_force_footprint(grid):
    """Recompute the footprint from scratch: one pointer per assigned
    object and per pair of adjacent table cells, vacant cells included;
    the incrementally maintained version must match it exactly."""
    from repro.core.pgrid import CELL_RECORD_BYTES, _bucket_count
    from repro.joins.base import POINTER_BYTES

    n_cells = grid.n_cells
    if n_cells == 0:
        return 0
    total = _bucket_count(n_cells) * POINTER_BYTES
    total += n_cells * CELL_RECORD_BYTES
    total += grid.cat.size * POINTER_BYTES
    total += len(adjacent_table_pairs(grid)) * POINTER_BYTES
    return total


class TestIncrementalAccounting:
    """The vacancy mask and O(1) footprint must track a from-scratch walk."""

    def _drift(self, grid, ds, steps, seed=13):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            ds.update_positions(rng.uniform(0, 30.0, size=ds.centers.shape))
            refresh_grid(grid, ds)
            yield

    def test_footprint_matches_brute_force_across_steps(self):
        ds = small_dataset(40, width=5.0, side=30.0, seed=11)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        for _ in self._drift(grid, ds, 12):
            assert grid.memory_footprint() == brute_force_footprint(grid)
        assert grid.gc_runs > 0  # the equivalence held across GC too

    def test_footprint_matches_without_gc(self):
        ds = small_dataset(40, width=5.0, side=30.0, seed=12)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=1.0)
        for _ in self._drift(grid, ds, 8):
            assert grid.memory_footprint() == brute_force_footprint(grid)
        assert grid.n_vacant > 0  # vacants accumulated, still exact

    def test_vacant_set_matches_cell_walk(self):
        ds = small_dataset(40, width=5.0, side=30.0, seed=14)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.35)
        for _ in self._drift(grid, ds, 10):
            coords = np.floor(ds.centers / grid.cell_width).astype(np.int64)
            occupied = set(pack_cell_ids(coords).tolist())
            walked = set(grid.ids.tolist()) - occupied
            assert set(grid.ids[grid.vacant].tolist()) == walked
            assert grid.n_vacant == len(walked)


class TestClear:
    def test_clear_resets_batched_arrays(self):
        # Regression: clear() dropped the cell table but left the stacked
        # per-occupied-cell arrays of the dead generation behind; a
        # batched consumer could read assignments for cells that no
        # longer exist.
        ds = small_dataset(200)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        assert grid.cat is not None
        grid.clear()
        for name in (
            "cat",
            "cell_starts",
            "cell_stops",
            "cell_min_width",
            "cell_max_width",
            "cell_center_lo",
            "cell_center_hi",
        ):
            assert getattr(grid, name) is None, name
        assert grid.n_cells == 0
        assert grid.n_occupied == 0
        assert grid.n_vacant == 0
        assert grid.memory_footprint() == 0

    def test_rebuild_after_clear_is_consistent(self):
        ds = small_dataset(200)
        grid = PGrid(10.0, np.zeros(3))
        refresh_grid(grid, ds)
        before = grid.memory_footprint()
        grid.clear()
        refresh_grid(grid, ds)
        assert grid.memory_footprint() == before
        assert grid.memory_footprint() == brute_force_footprint(grid)


def restore(arrays, meta, ds):
    lo, _hi = ds.boxes()
    return PGrid.from_state(arrays, meta, ds.centers, lo[:, 0], ds.widths)


class TestSnapshot:
    """Checkpoint round trips and snapshot/dataset mismatch rejection."""

    def _grid_with_vacancies(self):
        ds = small_dataset(60, width=5.0, side=30.0, seed=21)
        grid = PGrid(5.0, np.zeros(3), gc_threshold=0.99)
        refresh_grid(grid, ds)
        ds.translate(np.full((60, 3), 6.0))
        refresh_grid(grid, ds)
        assert grid.n_vacant > 0
        return grid, ds

    def _assert_same(self, restored, grid):
        assert np.array_equal(restored.ids, grid.ids)
        assert np.array_equal(restored.vacant, grid.vacant)
        assert np.array_equal(restored.cat, grid.cat)
        assert np.array_equal(restored.cell_starts, grid.cell_starts)
        assert restored.memory_footprint() == grid.memory_footprint()
        assert restored.cells_created == grid.cells_created
        assert restored.gc_runs == grid.gc_runs

    def test_roundtrip(self):
        grid, ds = self._grid_with_vacancies()
        arrays, meta = grid.snapshot_state()
        assert set(arrays) == {"cell_ids", "vacant"}
        self._assert_same(restore(arrays, meta, ds), grid)

    def test_unsorted_ids_rejected(self):
        grid, ds = self._grid_with_vacancies()
        arrays, meta = grid.snapshot_state()
        arrays = {"cell_ids": arrays["cell_ids"][::-1], "vacant": arrays["vacant"][::-1]}
        with pytest.raises(ValueError, match="strictly increasing"):
            restore(arrays, meta, ds)

    def test_occupied_count_mismatch_rejected(self):
        grid, ds = self._grid_with_vacancies()
        arrays, meta = grid.snapshot_state()
        arrays = {**arrays, "vacant": np.zeros_like(arrays["vacant"])}
        with pytest.raises(ValueError, match="occupied cells"):
            restore(arrays, meta, ds)

    def test_occupied_cell_mismatch_rejected(self):
        grid, ds = self._grid_with_vacancies()
        arrays, meta = grid.snapshot_state()
        vacant = arrays["vacant"].copy()
        # Swap one occupied and one vacant cell: same count, wrong cells.
        vacant[np.flatnonzero(vacant)[0]] = False
        vacant[np.flatnonzero(~arrays["vacant"])[0]] = True
        with pytest.raises(ValueError, match="does not hold occupied"):
            restore({**arrays, "vacant": vacant}, meta, ds)
