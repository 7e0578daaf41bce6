"""Unit tests for cell-id packing and neighbour lookup (repro.core.cells)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    half_neighborhood_offsets,
    neighbor_pairs,
    pack_cell_ids,
    unpack_cell_ids,
)
from repro.core.cells import COORD_BIAS


class TestPacking:
    def test_roundtrip(self):
        coords = np.array([[0, 0, 0], [1, -2, 3], [-100, 50, 7]], dtype=np.int64)
        assert np.array_equal(unpack_cell_ids(pack_cell_ids(coords)), coords)

    def test_scalar_matches_vectorized(self):
        # One coordinate at a time packs exactly as the whole batch does.
        rng = np.random.default_rng(0)
        coords = rng.integers(-1000, 1000, size=(100, 3))
        packed = pack_cell_ids(coords)
        for k in range(100):
            assert pack_cell_ids(coords[k:k + 1])[0] == packed[k]

    def test_distinct_coords_distinct_ids(self):
        rng = np.random.default_rng(1)
        coords = np.unique(rng.integers(-50, 50, size=(500, 3)), axis=0)
        packed = pack_cell_ids(coords)
        assert np.unique(packed).size == coords.shape[0]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            pack_cell_ids(np.array([[1 << 21, 0, 0]]))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            pack_cell_ids(np.array([1, 2, 3]))


class TestHalfNeighborhood:
    def test_one_layer_has_13_offsets(self):
        # The paper: 13 adjacent cells in 3-D when cell width equals the
        # largest object width (Figure 4a).
        assert len(half_neighborhood_offsets(1)) == 13

    def test_count_formula(self):
        for layers in (1, 2, 3):
            expected = ((2 * layers + 1) ** 3 - 1) // 2
            assert len(half_neighborhood_offsets(layers)) == expected

    def test_no_offset_and_its_negation(self):
        offsets = set(half_neighborhood_offsets(2))
        for ox, oy, oz in offsets:
            assert (-ox, -oy, -oz) not in offsets

    def test_union_with_negation_covers_neighborhood(self):
        offsets = half_neighborhood_offsets(1)
        full = set(offsets) | {(-x, -y, -z) for x, y, z in offsets}
        assert len(full) == 26
        assert (0, 0, 0) not in full

    def test_per_dimension_layers(self):
        offsets = half_neighborhood_offsets((2, 1, 1))
        assert len(offsets) == ((5 * 3 * 3) - 1) // 2
        assert max(abs(o[0]) for o in offsets) == 2
        assert max(abs(o[1]) for o in offsets) == 1

    def test_zero_layers(self):
        assert half_neighborhood_offsets(0) == []

    def test_negative_layers_raise(self):
        with pytest.raises(ValueError):
            half_neighborhood_offsets(-1)


def brute_force_neighbors(src, table, layers, direction=1):
    """Oracle: (i, j) with table[j] == src[i] + direction * o, coordinate-wise."""
    offsets = half_neighborhood_offsets(layers)
    src_coords = unpack_cell_ids(src)
    table_coords = {tuple(c): j for j, c in enumerate(unpack_cell_ids(table).tolist())}
    pairs = set()
    for i, coords in enumerate(src_coords.tolist()):
        for offset in offsets:
            neighbor = tuple(c + direction * o for c, o in zip(coords, offset, strict=True))
            if neighbor in table_coords:
                pairs.add((i, table_coords[neighbor]))
    return pairs


class TestNeighborPairs:
    def test_matches_coordinate_oracle(self):
        rng = np.random.default_rng(2)
        table = np.unique(pack_cell_ids(rng.integers(-4, 4, size=(120, 3))))
        src = table[::3]
        for layers in (1, 2):
            for direction in (1, -1):
                i, j = neighbor_pairs(src, table, layers, direction=direction)
                got = set(zip(i.tolist(), j.tolist(), strict=True))
                assert len(got) == i.size
                assert got == brute_force_neighbors(src, table, layers, direction)

    def test_each_adjacent_pair_once(self):
        rng = np.random.default_rng(3)
        table = np.unique(pack_cell_ids(rng.integers(0, 5, size=(80, 3))))
        i, j = neighbor_pairs(table, table, 1)
        unordered = {frozenset(p) for p in zip(i.tolist(), j.tolist(), strict=True)}
        assert len(unordered) == i.size
        coords = unpack_cell_ids(table)
        adjacent = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2) == 1
        assert 2 * i.size == int(adjacent.sum())

    def test_no_alias_across_packable_edge(self):
        top = COORD_BIAS - 1
        for low, high in (
            ((0, 0, top), (0, 1, -COORD_BIAS)),
            ((0, top, 0), (1, -COORD_BIAS, 0)),
        ):
            table = np.sort(pack_cell_ids(np.array([low, high])))
            i, _j = neighbor_pairs(table, table, 1)
            assert i.size == 0
            _i, j = neighbor_pairs(table, table, 1, direction=-1)
            assert j.size == 0

    def test_empty_inputs(self):
        table = pack_cell_ids(np.zeros((1, 3), dtype=np.int64))
        empty = np.empty(0, dtype=np.int64)
        assert neighbor_pairs(empty, table, 1)[0].size == 0
        assert neighbor_pairs(table, empty, 1)[0].size == 0
