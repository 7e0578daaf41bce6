"""Unit tests for pair-set utilities (repro.geometry.pairs)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    MaintainedPairSet,
    PairAccumulator,
    all_combinations,
    brute_force_pairs,
    canonicalize_pairs,
    keys_to_adjacency,
    mbr,
    pack_pairs,
    pairs_equal,
    pairs_to_adjacency,
    sorted_unique_keys,
    unique_pairs,
    unpack_pairs,
)
from repro.geometry import pairs as pairs_module


class TestCanonicalize:
    def test_orders_pairs(self):
        i, j = canonicalize_pairs([5, 1, 3], [2, 4, 3])
        assert i.tolist() == [2, 1]
        assert j.tolist() == [5, 4]

    def test_drops_reflexive(self):
        i, j = canonicalize_pairs([1, 2], [1, 3])
        assert i.tolist() == [2]
        assert j.tolist() == [3]

    def test_empty_input(self):
        i, j = canonicalize_pairs([], [])
        assert i.size == 0 and j.size == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            canonicalize_pairs([1, 2], [3])


class TestPacking:
    def test_roundtrip(self):
        i = np.array([0, 3, 7], dtype=np.int64)
        j = np.array([1, 9, 8], dtype=np.int64)
        keys = pack_pairs(i, j, 10)
        ri, rj = unpack_pairs(keys, 10)
        assert np.array_equal(ri, i)
        assert np.array_equal(rj, j)

    def test_keys_are_unique_per_pair(self):
        n = 25
        i, j = np.triu_indices(n, k=1)
        keys = pack_pairs(i.astype(np.int64), j.astype(np.int64), n)
        assert np.unique(keys).size == keys.size

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            pack_pairs([0], [5], 5)

    def test_nonpositive_n_raises(self):
        with pytest.raises(ValueError):
            pack_pairs([0], [0], 0)

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            pack_pairs([-1], [3], 4)
        with pytest.raises(ValueError):
            pack_pairs([2], [-3], 4)

    def test_n_beyond_int64_key_range_raises(self):
        # Two index fields of more than 31 bits would not fit an int64.
        with pytest.raises(ValueError):
            pack_pairs([0], [1], 2**32 + 1)
        with pytest.raises(ValueError):
            unpack_pairs([1], 2**31 + 1)

    def test_largest_n_round_trips(self):
        n = 2**31
        i = np.array([0, n - 2], dtype=np.int64)
        j = np.array([n - 1, n - 1], dtype=np.int64)
        keys = pack_pairs(i, j, n)
        assert (keys >= 0).all() and keys[0] < keys[1]
        ri, rj = unpack_pairs(keys, n)
        assert np.array_equal(ri, i) and np.array_equal(rj, j)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_lexicographic_order(self, data):
        k = data.draw(st.integers(0, 30))
        n = data.draw(st.sampled_from([1, 2, 3, 2**k, 2**k + 1]))
        index = st.integers(0, n - 1)
        i = np.array(data.draw(st.lists(index, max_size=60)), dtype=np.int64)
        j = np.array(data.draw(st.lists(index, min_size=i.size, max_size=i.size)), dtype=np.int64)
        keys = pack_pairs(i, j, n)
        ri, rj = unpack_pairs(keys, n)
        assert_bit_identical(ri, i)
        assert_bit_identical(rj, j)
        # Keys sort exactly as the (i, j) tuples; equal keys are equal pairs.
        assert_bit_identical(np.argsort(keys, kind="stable"), np.lexsort((j, i)))
        pairs = set(zip(i.tolist(), j.tolist(), strict=True))
        assert sorted_unique_keys(keys).size == len(pairs)


class TestUniquePairs:
    def test_dedup_and_sort(self):
        i, j = unique_pairs([3, 1, 3, 2], [1, 3, 1, 2], n=5)
        # (3,1) duplicated and reversed, (2,2) reflexive dropped
        assert i.tolist() == [1]
        assert j.tolist() == [3]

    def test_pairs_equal_detects_equality(self):
        a = (np.array([1, 2]), np.array([3, 4]))
        b = (np.array([4, 3]), np.array([2, 1]))  # reversed order/commuted
        assert pairs_equal(a, b, n=5)

    def test_pairs_equal_detects_difference(self):
        a = (np.array([1]), np.array([3]))
        b = (np.array([1]), np.array([2]))
        assert not pairs_equal(a, b, n=5)

    def test_negative_index_rejected(self):
        # Packing -1 * 4 + 3 aliases the key of no real pair; it must not
        # come back as the pair (-1, 3).
        with pytest.raises(ValueError):
            unique_pairs([-1, 2], [3, 0], 4)


# ----------------------------------------------------------------------
# Sorted-key canonicalisation: properties against the numpy references
# ----------------------------------------------------------------------
def lexsort_adjacency(i_idx, j_idx, n):
    """Reference CSR construction: lexsort the directed pairs."""
    sources = np.concatenate([i_idx, j_idx]).astype(np.int64)
    targets = np.concatenate([j_idx, i_idx]).astype(np.int64)
    order = np.lexsort((targets, sources))
    counts = np.bincount(sources[order], minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return offsets, targets[order]


def assert_bit_identical(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@st.composite
def pair_sets(draw, canonical):
    """``(n, i, j)`` with ``n >= 1``; objects beyond the pairs stay isolated."""
    n = draw(st.integers(1, 40))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=120))
    i_idx = np.array([p[0] for p in pairs], dtype=np.int64)
    j_idx = np.array([p[1] for p in pairs], dtype=np.int64)
    if canonical:
        i_idx, j_idx = unique_pairs(i_idx, j_idx, n)
    return n, i_idx, j_idx


class TestSortedUniqueKeys:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3_000_000_000),
        raw=st.lists(st.integers(0, 2**62), max_size=200),
    )
    def test_matches_np_unique_up_to_n_squared(self, n, raw):
        keys = np.array([value % (n * n) for value in raw], dtype=np.int64)
        assert_bit_identical(sorted_unique_keys(keys), np.unique(keys))

    @settings(max_examples=50, deadline=None)
    @given(value=st.integers(-(2**63), 2**63 - 1), copies=st.integers(1, 50))
    def test_all_duplicates(self, value, copies):
        keys = np.full(copies, value, dtype=np.int64)
        assert_bit_identical(sorted_unique_keys(keys), np.unique(keys))

    def test_empty_and_single(self):
        for keys in (np.empty(0, dtype=np.int64), np.array([7], dtype=np.int64)):
            assert_bit_identical(sorted_unique_keys(keys), np.unique(keys))

    def test_input_left_untouched(self):
        keys = np.array([5, 1, 5, 3], dtype=np.int64)
        sorted_unique_keys(keys)
        assert keys.tolist() == [5, 1, 5, 3]


class TestPairsToAdjacency:
    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(pair_sets(canonical=True), pair_sets(canonical=False)))
    def test_matches_lexsort_reference(self, data):
        n, i_idx, j_idx = data
        offsets, neighbors = pairs_to_adjacency(i_idx, j_idx, n)
        ref_offsets, ref_neighbors = lexsort_adjacency(i_idx, j_idx, n)
        assert offsets.shape == (n + 1,)
        assert_bit_identical(offsets, ref_offsets)
        assert_bit_identical(neighbors, ref_neighbors)

    def test_single_object(self):
        offsets, neighbors = pairs_to_adjacency(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1
        )
        assert offsets.tolist() == [0, 0]
        assert neighbors.size == 0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            pairs_to_adjacency([0, 1], [1, 5], 4)
        with pytest.raises(ValueError):
            pairs_to_adjacency([0, -1], [1, 2], 4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairs_to_adjacency([0, 1], [1], 4)


class TestKeysToAdjacency:
    @settings(max_examples=150, deadline=None)
    @given(data=pair_sets(canonical=True))
    def test_matches_lexsort_reference(self, data):
        n, i_idx, j_idx = data
        keys = pack_pairs(i_idx, j_idx, n)
        offsets, neighbors = keys_to_adjacency(keys, n)
        ref_offsets, ref_neighbors = lexsort_adjacency(i_idx, j_idx, n)
        assert_bit_identical(offsets, ref_offsets)
        assert_bit_identical(neighbors, ref_neighbors)
        # Order and orientation of the keys do not matter.
        transposed = pack_pairs(j_idx, i_idx, n)[::-1]
        for got, want in zip(keys_to_adjacency(transposed, n), (offsets, neighbors), strict=True):
            assert_bit_identical(got, want)

    def test_input_left_untouched(self):
        keys = pack_pairs([2, 0, 1], [3, 1, 2], 4)
        before = keys.copy()
        keys_to_adjacency(keys, 4)
        assert np.array_equal(keys, before)


def _emitted_keys(n, i_idx, j_idx):
    """The keys a kernel emitting ``(i_idx, j_idx)`` hands the merge stage."""
    accumulator = PairAccumulator(n)
    accumulator.extend(i_idx, j_idx)
    return accumulator.as_keys()


class TestMaintainedPairSetAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(
        base=pair_sets(canonical=False),
        moved_seed=st.integers(0, 2**32 - 1),
        fresh=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    def test_matches_set_reference(self, base, moved_seed, fresh):
        n, i_idx, j_idx = base
        moved = np.random.default_rng(moved_seed).random(n) < 0.3
        fresh_i = np.array([p[0] % n for p in fresh], dtype=np.int64)
        fresh_j = np.array([p[1] % n for p in fresh], dtype=np.int64)
        # Re-verified pairs always have a moved endpoint.
        incident_fresh = moved[fresh_i] | moved[fresh_j]
        fresh_i, fresh_j = fresh_i[incident_fresh], fresh_j[incident_fresh]

        maintained = MaintainedPairSet(n, _emitted_keys(n, i_idx, j_idx))
        maintained.patch(moved, _emitted_keys(n, fresh_i, fresh_j))

        keys = np.unique(pack_pairs(*canonicalize_pairs(i_idx, j_idx), n))
        lo, hi = unpack_pairs(keys, n)
        incident = keys[moved[lo] | moved[hi]]
        fresh_keys = pack_pairs(*canonicalize_pairs(fresh_i, fresh_j), n)
        expected = np.union1d(np.setdiff1d(keys, incident), fresh_keys)
        assert_bit_identical(maintained.snapshot().fold(), expected)
        assert_bit_identical(maintained.packed_keys(), expected)

    @staticmethod
    def _reference_remove(i_idx, j_idx, moved):
        pairs = {(int(a), int(b)) for a, b in zip(*canonicalize_pairs(i_idx, j_idx), strict=True)}
        kept = sorted(p for p in pairs if not (moved[p[0]] or moved[p[1]]))
        return kept, len(pairs) - len(kept)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 64])
    @pytest.mark.parametrize(
        "case", ["first-id", "last-id", "none-moved", "all-moved", "empty-set"]
    )
    def test_remove_incident_edge_inputs(self, n, case):
        """A patch without fresh keys drops exactly the moved-incident pairs."""
        rng = np.random.default_rng(n)
        if case == "empty-set":
            i_idx = j_idx = np.empty(0, dtype=np.int64)
        else:
            i_idx, j_idx = np.triu_indices(n, k=1)
            keep = rng.random(i_idx.size) < 0.6
            i_idx, j_idx = i_idx[keep], j_idx[keep]
        moved = {
            "first-id": np.arange(n) == 0,
            "last-id": np.arange(n) == n - 1,
            "none-moved": np.zeros(n, dtype=bool),
            "all-moved": np.ones(n, dtype=bool),
            "empty-set": rng.random(n) < 0.5,
        }[case]
        maintained = MaintainedPairSet(n, _emitted_keys(n, i_idx, j_idx))
        removed, added = maintained.patch(moved, np.empty(0, dtype=np.int64))
        kept, expected_removed = self._reference_remove(i_idx, j_idx, moved)
        assert (removed, added) == (expected_removed, 0)
        assert len(maintained) == len(kept)
        got_i, got_j = maintained.as_arrays()
        assert list(zip(got_i.tolist(), got_j.tolist(), strict=True)) == kept


@st.composite
def patch_sequences(draw):
    """A seed set over ``n`` objects and a sequence of patch steps.

    Each step is ``(moved mask, fresh pairs, read)``: every fresh pair
    has a moved endpoint (duplicates and either orientation allowed),
    and ``read`` asks for :meth:`packed_keys` after the patch, as a
    checkpoint would.
    """
    n = draw(st.sampled_from([1, 2, 3, 5, 17, 40]))
    index = st.integers(0, n - 1)
    seed = draw(st.lists(st.tuples(index, index), max_size=150))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        share = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
        moved = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))) < share
        candidates = draw(st.lists(st.tuples(index, index), max_size=60))
        fresh = [(a, b) for a, b in candidates if a != b and (moved[a] or moved[b])]
        steps.append((moved, fresh, draw(st.booleans())))
    return n, seed, steps


def _pair_array(pairs):
    return (
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
    )


class TestMaintainedPairSetPatch:
    """Random patch sequences against a Python-set reference."""

    @settings(max_examples=200, deadline=None)
    @given(
        sequence=patch_sequences(),
        share=st.sampled_from([0.0, 0.25, 1.0, float("inf")]),
        block=st.sampled_from([1, 3, 1 << 16]),
    )
    def test_sequences_match_python_sets(self, sequence, share, block):
        n, seed, steps = sequence
        reference = {(min(a, b), max(a, b)) for a, b in seed if a != b}
        snapshots = []
        # The fold threshold decides when the parts are compacted and
        # the block size where the settled-mask gather cuts the base;
        # neither may change a key.
        with (
            mock.patch.object(pairs_module, "COMPACT_SHARE", share),
            mock.patch.object(pairs_module, "_GATHER_BLOCK", block),
        ):
            maintained = MaintainedPairSet(n, _emitted_keys(n, *_pair_array(seed)))
            for moved, fresh, read in steps:
                survivors = {p for p in reference if not (moved[p[0]] or moved[p[1]])}
                added_pairs = {(min(a, b), max(a, b)) for a, b in fresh}
                dropped, added = maintained.patch(moved, _emitted_keys(n, *_pair_array(fresh)))
                assert dropped == len(reference) - len(survivors)
                assert added == len(added_pairs)
                reference = survivors | added_pairs
                assert len(maintained) == len(reference)
                assert maintained.extra_keys <= len(reference)
                expected = np.array(
                    [(i << (max(1, (n - 1).bit_length()))) | j for i, j in sorted(reference)],
                    dtype=np.int64,
                )
                snapshot = maintained.snapshot()
                assert snapshot.size == len(reference)
                snapshots.append((snapshot, expected))
                if read:
                    assert_bit_identical(maintained.packed_keys(), expected)
                    assert maintained.extra_keys == 0
        # Every snapshot still folds to its own step's set, whatever the
        # later patches and folds did.
        for snapshot, expected in snapshots:
            assert_bit_identical(snapshot.fold(), expected)

    def test_compaction_boundary(self):
        """The parts fold exactly when ``extra`` outgrows the base share."""
        n = 512
        i_idx, j_idx = np.triu_indices(40, k=1)
        maintained = MaintainedPairSet(n, pack_pairs(i_idx, j_idx, n))  # 780 keys
        limit = int(pairs_module.COMPACT_SHARE * len(maintained))
        moved = np.zeros(n, dtype=bool)
        moved[n - 1] = True
        fresh = pack_pairs(np.arange(limit), np.full(limit, n - 1), n)
        maintained.patch(moved, fresh)
        assert (maintained.extra_keys, maintained.compactions) == (limit, 0)
        moved[:] = False
        moved[n - 2] = True
        maintained.patch(moved, pack_pairs([0], [n - 2], n))
        assert (maintained.extra_keys, maintained.compactions) == (0, 1)
        assert len(maintained) == 780 + limit + 1
        assert np.all(np.diff(maintained.packed_keys()) > 0)
        assert maintained.compactions == 1  # nothing pending, nothing folded

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_sets(self, n):
        maintained = MaintainedPairSet(n, np.empty(0, dtype=np.int64))
        for moved in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
            assert maintained.patch(moved, np.empty(0, dtype=np.int64)) == (0, 0)
        if n == 2:
            moved = np.array([False, True])
            assert maintained.patch(moved, _emitted_keys(2, [1, 0], [0, 1])) == (0, 1)
            assert maintained.patch(moved, pack_pairs([0], [1], 2)) == (1, 1)
            assert maintained.packed_keys().tolist() == [1]
            assert maintained.patch(np.ones(2, dtype=bool), np.empty(0, dtype=np.int64)) == (1, 0)
        assert len(maintained) == 0
        assert maintained.packed_keys().size == 0

    def test_fresh_key_without_moved_endpoint_raises_and_leaves_the_set(self):
        n = 20
        i_idx, j_idx = np.triu_indices(10, k=1)
        maintained = MaintainedPairSet(n, pack_pairs(i_idx, j_idx, n))
        moved = np.zeros(n, dtype=bool)
        moved[5] = True
        maintained.patch(moved, pack_pairs([5], [15], n))
        before = maintained.snapshot()
        assert before.alive is not None and before.extra.size == 1
        expected = maintained.snapshot().fold()
        moved[:] = False
        moved[6] = True
        for fresh in (
            pack_pairs([6, 1], [16, 8], n),  # (1, 8) has no moved endpoint
            np.array([-1], dtype=np.int64),
            pack_pairs([16], [6], n),  # not canonical
        ):
            with pytest.raises(ValueError):
                maintained.patch(moved, fresh)
            after = maintained.snapshot()
            assert after.base is before.base
            assert after.alive is before.alive
            assert after.extra is before.extra
            assert after.size == before.size == len(maintained)
        assert_bit_identical(maintained.packed_keys(), expected)

    def test_parts_are_read_only(self):
        n = 20
        i_idx, j_idx = np.triu_indices(10, k=1)
        maintained = MaintainedPairSet(n, pack_pairs(i_idx, j_idx, n))
        moved = np.zeros(n, dtype=bool)
        moved[5] = True
        maintained.patch(moved, pack_pairs([5], [15], n))
        snapshot = maintained.snapshot()
        assert snapshot.alive is not None and snapshot.extra.size == 1
        for part in (snapshot.base, snapshot.alive, snapshot.extra, maintained.packed_keys()):
            with pytest.raises(ValueError, match="read-only"):
                part[:1] = 0


class TestPairAccumulator:
    def test_accumulates_batches(self):
        acc = PairAccumulator(6)
        acc.extend([1, 2], [0, 3])
        acc.extend([5], [4])
        i, j = acc.as_arrays()
        assert len(acc) == 3
        assert sorted(zip(i.tolist(), j.tolist(), strict=True)) == [(0, 1), (2, 3), (4, 5)]

    def test_reflexive_dropped_on_entry(self):
        for count_only in (False, True):
            acc = PairAccumulator(4, count_only=count_only)
            acc.extend([1, 2], [1, 3])
            assert len(acc) == 1

    def test_count_only_mode(self):
        acc = PairAccumulator(4, count_only=True)
        acc.extend([1, 2], [0, 3])
        assert len(acc) == 2
        with pytest.raises(RuntimeError):
            acc.as_arrays()

    def test_extend_canonical_fast_path(self):
        acc = PairAccumulator(4)
        acc.extend_canonical(np.array([0, 1]), np.array([2, 3]))
        i, j = acc.as_arrays()
        assert i.tolist() == [0, 1]
        assert j.tolist() == [2, 3]

    def test_empty_accumulator(self):
        acc = PairAccumulator(4)
        i, j = acc.as_arrays()
        assert i.size == 0 and j.size == 0
        assert acc.as_keys().dtype == np.int64 and acc.as_keys().size == 0
        assert len(acc) == 0

    def test_as_unique_arrays_dedups(self):
        acc = PairAccumulator(4)
        acc.extend([1, 3], [3, 1])  # same pair twice
        i, j = acc.as_unique_arrays()
        assert i.tolist() == [1]
        assert j.tolist() == [3]

    def test_keys_decode_to_the_canonical_batches_in_order(self):
        # One key per pair, packed at emit: decoding the concatenation
        # gives each batch's canonicalised pairs, batch by batch.
        rng = np.random.default_rng(11)
        n = 37
        acc = PairAccumulator(n)
        batches = [
            (rng.integers(0, n, size), rng.integers(0, n, size)) for size in (0, 1, 9, 40)
        ]
        for i_idx, j_idx in batches:
            acc.extend(i_idx, j_idx)
        acc.extend_canonical(np.array([2, 5]), np.array([30, 6]))
        expected = [canonicalize_pairs(i, j) for i, j in batches]
        expected.append((np.array([2, 5]), np.array([30, 6])))
        want_i = np.concatenate([lo for lo, _ in expected])
        want_j = np.concatenate([hi for _, hi in expected])
        i, j = acc.as_arrays()
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        assert np.array_equal(acc.as_keys(), pack_pairs(want_i, want_j, n))
        assert len(acc) == want_i.size

    def test_extend_keys_and_merge(self):
        shard = PairAccumulator(9)
        shard.extend([4, 8], [1, 2])
        parent = PairAccumulator(9)
        parent.extend_keys(shard.as_keys())
        parent.merge(shard)
        assert len(parent) == 4 and len(shard) == 0
        assert parent.as_arrays()[0].tolist() == [1, 2, 1, 2]
        with pytest.raises(ValueError, match="objects"):
            parent.merge(PairAccumulator(10))

    def test_object_count_validated(self):
        with pytest.raises(ValueError):
            PairAccumulator(0)


class TestBruteForce:
    def test_known_configuration(self):
        # Three collinear unit-ish boxes: 0 overlaps 1, 1 overlaps 2, 0-2 disjoint.
        centers = np.array([[0.0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]])
        lo, hi = mbr.boxes_from_centers(centers, 2.0)
        i, j = brute_force_pairs(lo, hi)
        assert list(zip(i.tolist(), j.tolist(), strict=True)) == [(0, 1), (1, 2)]

    def test_no_reflexive_or_commutative_duplicates(self):
        rng = np.random.default_rng(3)
        lo, hi = mbr.boxes_from_centers(rng.uniform(0, 20, (60, 3)), 6.0)
        i, j = brute_force_pairs(lo, hi)
        assert (i < j).all()
        keys = pack_pairs(i, j, 60)
        assert np.unique(keys).size == keys.size

    def test_chunking_invariance(self):
        rng = np.random.default_rng(4)
        lo, hi = mbr.boxes_from_centers(rng.uniform(0, 30, (100, 3)), 8.0)
        small = brute_force_pairs(lo, hi, chunk_size=7)
        large = brute_force_pairs(lo, hi, chunk_size=1000)
        assert np.array_equal(small[0], large[0])
        assert np.array_equal(small[1], large[1])

    def test_all_overlapping_clique(self):
        centers = np.zeros((5, 3)) + np.linspace(0, 0.1, 5)[:, None]
        lo, hi = mbr.boxes_from_centers(centers, 10.0)
        i, j = brute_force_pairs(lo, hi)
        assert i.size == 5 * 4 // 2


class TestAllCombinations:
    def test_emits_every_unordered_pair(self):
        i, j = all_combinations([7, 3, 9])
        assert sorted(zip(i.tolist(), j.tolist(), strict=True)) == [(3, 7), (3, 9), (7, 9)]

    def test_canonical_order(self):
        i, j = all_combinations([9, 1, 5, 2])
        assert (i < j).all()

    def test_small_inputs(self):
        for indices in ([], [4]):
            i, j = all_combinations(indices)
            assert i.size == 0 and j.size == 0

    def test_count_formula(self):
        indices = np.arange(20)
        i, j = all_combinations(indices)
        assert i.size == 20 * 19 // 2
