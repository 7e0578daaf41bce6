"""White-box tests of the baseline joins' internal structures.

The oracle suites prove the *results* right; these tests pin down the
structural invariants each index is supposed to maintain — STR packing
quality, octree containment, loose-octree fit, TOUCH routing, PBSM
replication, ST2B's Morton grid — so a regression inside an index shows
up as the broken invariant, not as a mysterious slowdown.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_uniform_dataset
from repro.joins.loose_octree import loose_containment_depths
from repro.joins.octree import (
    containment_depths,
    count_directory_nodes,
    octree_root_cube,
)
from repro.joins.rtree import STRTree, _str_order


def uniform_boxes(n=200, width=8.0, side=100.0, seed=0):
    dataset = make_uniform_dataset(
        n, width=width, bounds=(np.zeros(3), np.full(3, side)), seed=seed
    )
    return dataset, *dataset.boxes()


class TestSTRTree:
    def test_leaf_order_is_a_permutation(self):
        _ds, lo, hi = uniform_boxes(123)
        tree = STRTree(lo, hi, fanout=8)
        assert np.array_equal(np.sort(tree.leaf_order), np.arange(123))

    def test_node_mbrs_cover_children(self):
        _ds, lo, hi = uniform_boxes(300)
        tree = STRTree(lo, hi, fanout=8)
        # Leaves cover their objects...
        for leaf in range(tree.level_lo[0].shape[0]):
            start, stop = tree.leaf_object_range(leaf)
            members = tree.leaf_order[start:stop]
            assert (tree.level_lo[0][leaf] <= lo[members]).all()
            assert (tree.level_hi[0][leaf] >= hi[members]).all()
        # ...and every directory node covers its children.
        for level in range(1, tree.n_levels):
            for node in range(tree.level_lo[level].shape[0]):
                c_start, c_stop = tree.children_range(level, node)
                assert (
                    tree.level_lo[level][node]
                    <= tree.level_lo[level - 1][c_start:c_stop]
                ).all()
                assert (
                    tree.level_hi[level][node]
                    >= tree.level_hi[level - 1][c_start:c_stop]
                ).all()

    def test_top_level_fits_fanout(self):
        _ds, lo, hi = uniform_boxes(500)
        tree = STRTree(lo, hi, fanout=4)
        assert tree.level_lo[-1].shape[0] <= 4

    def test_str_beats_random_packing(self):
        # STR's whole point: spatially packed leaves have far less total
        # MBR volume than randomly packed ones.
        _ds, lo, hi = uniform_boxes(400, seed=3)
        tree = STRTree(lo, hi, fanout=8)
        str_volume = float(
            np.prod(tree.level_hi[0] - tree.level_lo[0], axis=1).sum()
        )
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(400)
        random_volume = 0.0
        for start in range(0, 400, 8):
            members = shuffled[start : start + 8]
            random_volume += float(
                np.prod(hi[members].max(axis=0) - lo[members].min(axis=0))
            )
        assert str_volume < random_volume / 3

    def test_str_order_groups_by_x_slabs(self):
        _ds, lo, hi = uniform_boxes(512, seed=4)
        order = _str_order(lo, hi, leaf_capacity=8)
        centers_x = ((lo + hi) / 2.0)[order, 0]
        # The first slab's x-centers all precede the last slab's.
        slab = 8 * int(np.ceil((512 / 8) ** (1 / 3))) ** 2
        assert centers_x[:slab].max() <= centers_x[-slab:].min()

    def test_tiny_trees(self):
        _ds, lo, hi = uniform_boxes(3)
        tree = STRTree(lo, hi, fanout=8)
        assert tree.n_levels == 1
        assert tree.n_nodes() == 1

    def test_fanout_validation(self):
        _ds, lo, hi = uniform_boxes(10)
        with pytest.raises(ValueError):
            STRTree(lo, hi, fanout=1)


class TestOctreeAssignment:
    def test_assigned_cell_contains_object(self):
        # Depth >= 1 assignments are genuine containments; objects that
        # fit nowhere (including boundary objects protruding beyond the
        # root cube) stay at depth 0, where no containment is claimed.
        dataset, lo, hi = uniform_boxes(250, width=12.0, side=120.0, seed=5)
        origin, root_side = octree_root_cube(dataset)
        depths, coords = containment_depths(lo, hi, origin, root_side)
        assert (depths >= 1).any()
        for k in np.flatnonzero(depths >= 1):
            cell = root_side / (1 << int(depths[k]))
            cell_lo = origin + coords[k] * cell
            assert (lo[k] >= cell_lo - 1e-9).all()
            assert (hi[k] <= cell_lo + cell + 1e-9).all()

    def test_assignment_is_deepest_possible(self):
        dataset, lo, hi = uniform_boxes(250, width=12.0, side=120.0, seed=6)
        origin, root_side = octree_root_cube(dataset)
        depths, _coords = containment_depths(lo, hi, origin, root_side)
        for k in range(0, len(dataset), 10):
            deeper = int(depths[k]) + 1
            cell = root_side / (1 << deeper)
            lo_cell = np.floor((lo[k] - origin) / cell).astype(np.int64)
            hi_cell = np.floor((hi[k] - origin) / cell).astype(np.int64)
            assert (lo_cell != hi_cell).any(), "object would fit deeper"

    def test_plane_straddlers_stay_at_root(self):
        # An object across the root's central split can fit nowhere below.
        dataset = SpatialDataset(
            np.asarray([[50.0, 50.0, 50.0]]), 10.0,
            bounds=(np.zeros(3), np.full(3, 100.0)),
        )
        lo, hi = dataset.boxes()
        origin, root_side = octree_root_cube(dataset)
        depths, _ = containment_depths(lo, hi, origin, root_side)
        assert depths[0] == 0

    def test_directory_node_count(self):
        # Two occupied leaf cells in separate octants: root + 2 children.
        coords = [np.empty((0, 3), dtype=np.int64)] * 2
        coords[1] = np.asarray([[0, 0, 0], [1, 1, 1]], dtype=np.int64)
        coords[0] = np.empty((0, 3), dtype=np.int64)
        assert count_directory_nodes(coords) == 3


class TestLooseOctreeAssignment:
    def test_loose_cube_contains_object(self):
        dataset, lo, hi = uniform_boxes(250, width=12.0, side=120.0, seed=7)
        origin, root_side = octree_root_cube(dataset)
        p = 0.1
        depths, coords = loose_containment_depths(
            lo, hi, dataset.centers, origin, root_side, p, 10
        )
        for k in range(len(dataset)):
            cell = root_side / (1 << int(depths[k]))
            slack = p * cell / 2.0
            cube_lo = origin + coords[k] * cell - slack
            cube_hi = origin + (coords[k] + 1) * cell + slack
            assert (lo[k] >= cube_lo - 1e-9).all()
            assert (hi[k] <= cube_hi + 1e-9).all()

    def test_looseness_pushes_objects_deeper(self):
        # The design goal (§2.1): slight boundary overlap no longer pins
        # objects near the root.
        dataset, lo, hi = uniform_boxes(400, width=10.0, side=120.0, seed=8)
        origin, root_side = octree_root_cube(dataset)
        rigid_depths, _ = containment_depths(lo, hi, origin, root_side)
        loose_depths, _ = loose_containment_depths(
            lo, hi, dataset.centers, origin, root_side, 0.5, 10
        )
        assert loose_depths.mean() > rigid_depths.mean()
        assert (loose_depths >= rigid_depths - 1).all()

    def test_zero_looseness_at_least_as_shallow_as_rigid(self):
        dataset, lo, hi = uniform_boxes(200, width=10.0, side=120.0, seed=9)
        origin, root_side = octree_root_cube(dataset)
        zero_loose, _ = loose_containment_depths(
            lo, hi, dataset.centers, origin, root_side, 0.0, 10
        )
        rigid, _ = containment_depths(lo, hi, origin, root_side)
        # With p = 0 the loose rule (center's cell must contain the box)
        # is at least as strict as "some cell contains the box".
        assert (zero_loose <= rigid).all()


class TestPBSMReplication:
    def test_replication_count_matches_intersected_partitions(self):
        from repro.joins import PBSMJoin

        dataset, lo, hi = uniform_boxes(300, width=20.0, side=150.0, seed=10)
        join = PBSMJoin(partition_factor=1.0)
        join._build(dataset)
        index = join._index
        width = 1.0 * dataset.max_width
        origin, _ = dataset.bounds
        expected = int(
            np.prod(
                np.floor((hi - origin) / width).astype(np.int64)
                - np.floor((lo - origin) / width).astype(np.int64)
                + 1,
                axis=1,
            ).sum()
        )
        assert index["replicas"] == expected
        assert index["replicas"] > len(dataset)  # replication happened

    def test_larger_partitions_replicate_less(self):
        from repro.joins import PBSMJoin

        dataset, _lo, _hi = uniform_boxes(300, width=20.0, side=150.0, seed=11)
        fine = PBSMJoin(partition_factor=1.0)
        coarse = PBSMJoin(partition_factor=4.0)
        fine._build(dataset)
        coarse._build(dataset)
        assert coarse._index["replicas"] < fine._index["replicas"]

    def test_duplicate_tests_exceed_sweep(self):
        # The paper's §2.1 complaint, measured: replication makes PBSM
        # test some pairs multiple times.
        from repro.joins import PBSMJoin, PlaneSweepJoin

        dataset, _lo, _hi = uniform_boxes(400, width=18.0, side=120.0, seed=12)
        pbsm = PBSMJoin(partition_factor=1.0).step(dataset)
        sweep = PlaneSweepJoin().step(dataset)
        assert pbsm.n_results == sweep.n_results


class TestST2BGrid:
    def test_keys_follow_morton_encoding(self):
        from repro.geometry.morton import morton_decode
        from repro.joins import ST2BJoin

        dataset, _lo, _hi = uniform_boxes(200, width=10.0, side=100.0, seed=13)
        join = ST2BJoin()
        join._build(dataset)
        coords = morton_decode(join._object_keys)
        origin, _ = dataset.bounds
        expected = np.floor(
            (dataset.centers - origin) / dataset.max_width
        ).astype(np.int64)
        np.maximum(expected, 0, out=expected)
        assert np.array_equal(coords, expected)

    def test_tree_entry_per_object(self):
        from repro.joins import ST2BJoin

        dataset, _lo, _hi = uniform_boxes(150, seed=14)
        join = ST2BJoin()
        join._build(dataset)
        assert len(join._tree) == 150
        join._tree.check_invariants()

    def test_maintenance_preserves_tree_size(self):
        from repro.joins import ST2BJoin

        dataset, _lo, _hi = uniform_boxes(150, seed=15)
        join = ST2BJoin()
        join._build(dataset)
        rng = np.random.default_rng(0)
        dataset.translate(rng.normal(scale=15.0, size=dataset.centers.shape))
        np.clip(dataset.centers, *dataset.bounds, out=dataset.centers)
        join._build(dataset)  # incremental path
        assert len(join._tree) == 150
        join._tree.check_invariants()


class TestTouchRouting:
    def test_every_object_reaches_the_leaf_stage(self):
        # In a self-join every object overlaps (at least) its own leaf,
        # so no query may be dropped during routing.
        from repro.geometry import PairAccumulator
        from repro.joins import TouchJoin

        dataset, lo, hi = uniform_boxes(200, width=10.0, side=80.0, seed=16)
        join = TouchJoin()
        join._build(dataset)
        acc = PairAccumulator(len(dataset), count_only=True)
        tests = join._join(dataset, acc)
        # Lower bound: each object is at least compared against itself.
        assert tests >= len(dataset)
