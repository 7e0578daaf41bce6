"""THERMAL-JOIN under a halo mask: no pair with both ends in the halo.

A shard of the service ring joins its home members with an upward halo
and owns only the pairs with a home end.  ``ThermalJoin.halo`` flags the
halo members, and the join then forms no candidate whose two objects are
both flagged.  The contract checked here: a join under a mask emits the
unmasked join's pairs minus the halo×halo ones, bit for bit, in every
join path (external sweep and enclosure shortcut, hot spots, in-cell
sweeps, T-Grids) and under incremental pair maintenance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ThermalJoin
from repro.datasets import IntermittentTranslation, SpatialDataset
from repro.geometry import brute_force_pairs, pack_pairs, unpack_pairs


def clustered_dataset(seed, n_cluster, spread, n_scatter=40, width=10.0):
    """A dense cluster of mixed-width boxes plus a uniform scatter.

    The cluster fills a ``spread``-wide cube: a narrow one makes hot
    spots, a wider one with 24 or more objects per cell makes T-Grid
    cells.
    """
    rng = np.random.default_rng(seed)
    cluster = rng.uniform(50.0, 50.0 + spread, size=(n_cluster, 3))
    scatter = rng.uniform(0.0, 120.0, size=(n_scatter, 3))
    widths = rng.uniform(0.3, 1.0, size=(n_cluster + n_scatter, 3)) * width
    return SpatialDataset(
        np.concatenate([cluster, scatter]),
        widths,
        bounds=(np.zeros(3), np.full(3, 130.0)),
    )


def expected_keys(dataset, halo):
    """The brute-force pairs minus those with both ends in ``halo``."""
    lo, hi = dataset.boxes()
    i, j = brute_force_pairs(lo, hi)
    kept = ~(halo[i] & halo[j])
    return np.sort(pack_pairs(i[kept], j[kept], len(dataset)))


def halo_keys(join, dataset, halo):
    join.halo = halo
    return np.sort(join.step(dataset).keys)


class TestHaloJoin:
    @given(
        seed=st.integers(0, 2**16),
        n_cluster=st.integers(0, 80),
        spread=st.sampled_from([1.0, 4.0, 9.0]),
        halo_share=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        resolution=st.sampled_from([0.5, 1.0]),
        hot_spots=st.booleans(),
        enclosure_shortcut=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_full_join_minus_halo_pairs(
        self, seed, n_cluster, spread, halo_share, resolution, hot_spots,
        enclosure_shortcut,
    ):
        dataset = clustered_dataset(seed, n_cluster, spread)
        halo = np.random.default_rng(seed + 1).random(len(dataset)) < halo_share
        join = ThermalJoin(
            resolution=resolution,
            hot_spots=hot_spots,
            enclosure_shortcut=enclosure_shortcut,
        )
        assert np.array_equal(halo_keys(join, dataset, halo), expected_keys(dataset, halo))

    @pytest.mark.parametrize(
        ("spread", "info_key"), [(1.0, "hot_spot_cells"), (9.0, "tgrid_cells")]
    )
    def test_dense_cells_take_their_own_paths(self, spread, info_key):
        # The property above draws these shapes too; here each is pinned.
        dataset = clustered_dataset(3, 120, spread)
        halo = np.random.default_rng(4).random(len(dataset)) < 0.4
        join = ThermalJoin(resolution=1.0)
        assert np.array_equal(halo_keys(join, dataset, halo), expected_keys(dataset, halo))
        assert join.last_step_info[info_key] > 0

    def test_fewer_tests_than_the_unmasked_join(self):
        dataset = clustered_dataset(5, 60, 9.0, n_scatter=400)
        unmasked = ThermalJoin(resolution=1.0).step(dataset)
        join = ThermalJoin(resolution=1.0)
        join.halo = np.arange(len(dataset)) % 2 == 0
        assert join.step(dataset).stats.overlap_tests < unmasked.stats.overlap_tests

    def test_distance_join_honours_the_mask(self):
        dataset = clustered_dataset(6, 40, 4.0)
        halo = np.random.default_rng(7).random(len(dataset)) < 0.5
        join = ThermalJoin()
        join.halo = halo
        result = join.distance_join(dataset, 1.5)
        assert np.array_equal(
            np.sort(result.keys),
            expected_keys(dataset.with_enlarged_extent(1.5), halo),
        )

    def test_mask_of_the_wrong_length_is_refused(self):
        dataset = clustered_dataset(8, 10, 4.0)
        join = ThermalJoin()
        join.halo = np.zeros(len(dataset) + 1, dtype=bool)
        with pytest.raises(ValueError, match="halo mask"):
            join.step(dataset)


class TestHaloPairMaintenance:
    def _run(self, flip):
        """Six maintained steps; ``flip(halo, moved)`` edits the mask in place."""
        dataset = clustered_dataset(9, 60, 9.0, n_scatter=300)
        motion = IntermittentTranslation(
            dataset, distance=3.0, move_fraction=0.05, seed=2
        )
        halo = np.random.default_rng(10).random(len(dataset)) < 0.4
        join = ThermalJoin(resolution=1.0, pair_maintenance=True)
        join.halo = halo.copy()
        join.step_delta(dataset, None)
        modes = []
        for _ in range(6):
            delta = motion.step(dataset)
            flip(halo, delta.moved)
            join.halo = halo.copy()
            result = join.step_delta(dataset, delta)
            modes.append(join.last_step_info.get("mode", "full"))
            assert np.array_equal(np.sort(result.keys), expected_keys(dataset, halo))
        return modes

    def test_moved_objects_may_change_sides(self):
        # A moved object that crosses a slab edge changes sides; its pairs
        # are all re-verified under the new mask, so the step stays
        # incremental.
        def flip(halo, moved):
            halo[moved[::2]] ^= True

        assert self._run(flip) == ["incremental"] * 6

    def test_a_settled_object_changing_sides_forces_a_full_step(self):
        # Pairs between settled objects are reused verbatim, so a settled
        # flag change cannot be maintained.
        def flip(halo, moved):
            settled = np.setdiff1d(np.arange(halo.size), moved)
            halo[settled[0]] ^= True

        assert self._run(flip) == ["full"] * 6

    def test_the_maintained_set_is_the_masked_join(self):
        dataset = clustered_dataset(11, 40, 4.0, n_scatter=200)
        motion = IntermittentTranslation(dataset, distance=3.0, move_fraction=0.1, seed=1)
        halo = np.random.default_rng(12).random(len(dataset)) < 0.5
        join = ThermalJoin(resolution=1.0, pair_maintenance=True)
        join.halo = halo
        join.step_delta(dataset, None)
        result = join.step_delta(dataset, motion.step(dataset))
        i, j = unpack_pairs(result.keys, len(dataset))
        assert not (halo[i] & halo[j]).any()
