"""Additional property-based tests: B+-Tree state machine, adjacency,
Morton codes, ST2B over random motion, parallel THERMAL equivalence."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import ThermalJoin
from repro.datasets import SpatialDataset
from repro.geometry import (
    brute_force_pairs,
    pack_pairs,
    pairs_to_adjacency,
    unique_pairs,
)
from repro.geometry.morton import MORTON_COORD_BITS, morton_decode, morton_encode
from repro.index import BPlusTree
from repro.joins import ST2BJoin


class BPlusTreeMachine(RuleBasedStateMachine):
    """Hypothesis-driven churn against a reference set, with invariant
    checks after every operation."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=6)
        self.reference = set()

    @rule(key=st.integers(0, 60), value=st.integers(0, 4))
    def insert(self, key, value):
        outcome = self.tree.insert(key, value)
        assert outcome == ((key, value) not in self.reference)
        self.reference.add((key, value))

    @rule(key=st.integers(0, 60), value=st.integers(0, 4))
    def delete(self, key, value):
        outcome = self.tree.delete(key, value)
        assert outcome == ((key, value) in self.reference)
        self.reference.discard((key, value))

    @rule(lo=st.integers(0, 60), hi=st.integers(0, 60))
    def range_scan(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        got = sorted(self.tree.range_values(lo, hi))
        expected = sorted(v for (k, v) in self.reference if lo <= k <= hi)
        assert got == expected

    @invariant()
    def structurally_sound(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.reference)


TestBPlusTreeStateMachine = BPlusTreeMachine.TestCase
TestBPlusTreeStateMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


class TestAdjacencyProperties:
    @given(st.integers(2, 60), st.integers(0, 200))
    @settings(max_examples=60)
    def test_adjacency_mirrors_pairs(self, n, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, 3 * n))
        i_idx = rng.integers(0, n, size=k)
        j_idx = rng.integers(0, n, size=k)
        ui, uj = unique_pairs(i_idx, j_idx, n)
        offsets, neighbors = pairs_to_adjacency(ui, uj, n)
        assert offsets[-1] == 2 * ui.size
        # Symmetry and exact reconstruction.
        rebuilt = set()
        for obj in range(n):
            for other in neighbors[offsets[obj]:offsets[obj + 1]]:
                assert obj != other
                rebuilt.add((min(obj, int(other)), max(obj, int(other))))
        assert rebuilt == set(zip(ui.tolist(), uj.tolist(), strict=True))

    @given(st.integers(1, 40))
    @settings(max_examples=20)
    def test_empty_pairs(self, n):
        offsets, neighbors = pairs_to_adjacency(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), n
        )
        assert offsets.tolist() == [0] * (n + 1)
        assert neighbors.size == 0


class TestMortonProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, (1 << MORTON_COORD_BITS) - 1),
                st.integers(0, (1 << MORTON_COORD_BITS) - 1),
                st.integers(0, (1 << MORTON_COORD_BITS) - 1),
            ),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip(self, coords):
        arr = np.asarray(coords, dtype=np.int64)
        assert np.array_equal(morton_decode(morton_encode(arr)), arr)

    @given(
        st.integers(0, (1 << MORTON_COORD_BITS) - 2),
        st.integers(0, (1 << MORTON_COORD_BITS) - 2),
        st.integers(0, (1 << MORTON_COORD_BITS) - 2),
    )
    @settings(max_examples=80)
    def test_strict_monotone_in_each_axis(self, x, y, z):
        base = morton_encode(np.asarray([[x, y, z]]))[0]
        for bumped in ([x + 1, y, z], [x, y + 1, z], [x, y, z + 1]):
            assert morton_encode(np.asarray([bumped]))[0] > base


@st.composite
def moving_boxes(draw):
    n = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(5.0, 55.0, size=(n, 3))
    width = draw(st.floats(1.0, 20.0))
    steps = draw(st.integers(1, 3))
    moves = rng.normal(scale=8.0, size=(steps, n, 3))
    return centers, width, moves


class TestMovingJoins:
    @given(moving_boxes())
    @settings(max_examples=30, deadline=None)
    def test_st2b_stays_exact_under_motion(self, scenario):
        centers, width, moves = scenario
        dataset = SpatialDataset(
            centers.copy(), width, bounds=(np.zeros(3), np.full(3, 60.0))
        )
        join = ST2BJoin()
        n = len(dataset)
        for move in moves:
            result = join.step(dataset)
            got = pack_pairs(*unique_pairs(*result.pairs, n), n)
            exp = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
            assert np.array_equal(got, exp)
            new_centers = np.clip(dataset.centers + move, 0.0, 60.0)
            dataset.update_positions(new_centers)
        join._tree.check_invariants()

    @given(moving_boxes(), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_parallel_thermal_equals_serial_under_motion(self, scenario, workers):
        centers, width, moves = scenario
        serial_ds = SpatialDataset(
            centers.copy(), width, bounds=(np.zeros(3), np.full(3, 60.0))
        )
        parallel_ds = SpatialDataset(
            centers.copy(), width, bounds=(np.zeros(3), np.full(3, 60.0))
        )
        serial = ThermalJoin(resolution=1.0)
        threaded = ThermalJoin(resolution=1.0, executor=f"thread:{workers}")
        n = len(serial_ds)
        for move in moves:
            a = serial.step(serial_ds)
            b = threaded.step(parallel_ds)
            assert a.n_results == b.n_results
            assert a.stats.overlap_tests == b.stats.overlap_tests
            assert np.array_equal(
                pack_pairs(*unique_pairs(*a.pairs, n), n),
                pack_pairs(*unique_pairs(*b.pairs, n), n),
            )
            for ds in (serial_ds, parallel_ds):
                ds.update_positions(np.clip(ds.centers + move, 0.0, 60.0))
