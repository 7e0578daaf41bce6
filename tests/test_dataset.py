"""Unit tests for SpatialDataset (repro.datasets.dataset)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SpatialDataset


def make_simple(n=10, width=2.0):
    rng = np.random.default_rng(0)
    centers = rng.uniform(0, 50, size=(n, 3))
    return SpatialDataset(centers, width, bounds=(np.zeros(3), np.full(3, 50.0)))


class TestConstruction:
    def test_basic_properties(self):
        ds = make_simple(10, 2.0)
        assert len(ds) == 10
        assert ds.n_objects == 10
        assert ds.max_width == pytest.approx(2.0)
        assert ds.min_width == pytest.approx(2.0)

    def test_boxes_are_centered(self):
        ds = make_simple(5, 4.0)
        lo, hi = ds.boxes()
        assert np.allclose((lo + hi) / 2.0, ds.centers)
        assert np.allclose(hi - lo, 4.0)

    def test_per_object_widths(self):
        centers = np.zeros((3, 3))
        ds = SpatialDataset(centers + 10.0, np.array([1.0, 2.0, 3.0]))
        assert ds.min_width == pytest.approx(1.0)
        assert ds.max_width == pytest.approx(3.0)

    def test_rejects_wrong_center_shape(self):
        with pytest.raises(ValueError):
            SpatialDataset(np.zeros((3, 2)), 1.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            SpatialDataset(np.zeros((3, 3)), 0.0)

    def test_rejects_invalid_bounds(self):
        with pytest.raises(ValueError):
            SpatialDataset(np.zeros((3, 3)) + 1.0, 1.0, bounds=(np.ones(3), np.zeros(3)))

    def test_attributes_carried(self):
        ds = SpatialDataset(
            np.zeros((3, 3)) + 5.0, 1.0, attributes={"mass": np.array([1.0, 2.0, 3.0])}
        )
        assert ds.attributes["mass"].tolist() == [1.0, 2.0, 3.0]

    def test_attribute_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            SpatialDataset(np.zeros((3, 3)) + 5.0, 1.0, attributes={"mass": np.ones(2)})

    def test_bounds_derived_when_missing(self):
        centers = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
        ds = SpatialDataset(centers, 2.0)
        lo, hi = ds.bounds
        assert np.allclose(lo, -1.0)
        assert np.allclose(hi, 11.0)


class TestInPlaceUpdates:
    def test_update_positions_bumps_version(self):
        ds = make_simple()
        v0 = ds.version
        ds.update_positions(ds.centers + 1.0)
        assert ds.version == v0 + 1

    def test_update_positions_in_place(self):
        ds = make_simple()
        buffer_before = ds.centers
        ds.update_positions(ds.centers + 1.0)
        assert ds.centers is buffer_before  # same array object mutated

    def test_update_shape_mismatch_raises(self):
        ds = make_simple(4)
        with pytest.raises(ValueError):
            ds.update_positions(np.zeros((5, 3)))

    def test_translate(self):
        ds = make_simple(3)
        before = ds.centers.copy()
        ds.translate(np.ones((3, 3)))
        assert np.allclose(ds.centers, before + 1.0)
        assert ds.version == 1


def far_out_centers():
    """Centers x = 1e17, 1e17 + 8 and 1e17 + 100 with overlapping y/z:
    with widths 1, 16 and 1 every box rounds to zero x-extent."""
    centers = np.zeros((3, 3))
    centers[:, 0] = [1e17, 1e17 + 8, 1e17 + 100]
    return centers


class TestBoxDomain:
    """Boxes that are non-finite or round to zero extent are refused."""

    def test_zero_extent_refused_at_construction(self):
        centers = far_out_centers()
        assert centers[0, 0] - 0.5 == centers[0, 0] + 0.5, "zero x-extent"
        with pytest.raises(ValueError):
            SpatialDataset(centers, np.asarray([1.0, 16.0, 1.0]))

    def test_non_finite_refused_at_construction(self):
        centers = np.zeros((2, 3))
        centers[1, 2] = np.nan
        with pytest.raises(ValueError):
            SpatialDataset(centers, 1.0)

    def test_refused_motion_leaves_last_committed_state(self):
        ds = make_simple(4)
        committed = ds.centers.copy()
        version = ds.version
        before = ds.centers.copy()
        ds.centers[1] += 1.0
        ds.centers[2, 0] = 1e17
        with pytest.raises(ValueError):
            ds.commit_motion(before)
        assert ds.version == version
        assert np.array_equal(ds.centers, committed)
        # A valid motion afterwards commits as usual.
        ds.centers[1] += 1.0
        delta = ds.commit_motion(committed)
        assert delta.moved.tolist() == [1] and ds.version == version + 1

    def test_enlarged_extent_refuses_non_finite_distance(self):
        ds = make_simple(3)
        for distance in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ds.with_enlarged_extent(distance)

    def test_update_positions_and_translate_refused(self):
        ds = make_simple(3)
        committed = ds.centers.copy()
        far = committed.copy()
        far[0, 0] = 1e17
        with pytest.raises(ValueError):
            ds.update_positions(far)
        with pytest.raises(ValueError):
            ds.translate(far - committed)
        assert ds.version == 0
        assert np.array_equal(ds.centers, committed)


class TestDerivedDatasets:
    def test_enlarged_extent_shares_centers(self):
        ds = make_simple(5, 2.0)
        enlarged = ds.with_enlarged_extent(3.0)
        assert enlarged.centers is ds.centers
        assert enlarged.max_width == pytest.approx(5.0)
        # Motion stays visible through the shared center array.
        ds.translate(np.ones((5, 3)))
        assert np.allclose(enlarged.centers, ds.centers)

    def test_enlarged_extent_negative_raises(self):
        with pytest.raises(ValueError):
            make_simple().with_enlarged_extent(-1.0)

    def test_copy_is_independent(self):
        ds = make_simple(5)
        dup = ds.copy()
        ds.translate(np.ones((5, 3)))
        assert not np.allclose(dup.centers, ds.centers)

    def test_memory_accounting_scales_with_n(self):
        assert make_simple(20).memory_nbytes() == 2 * make_simple(10).memory_nbytes()

    def test_repr_mentions_size(self):
        assert "n=10" in repr(make_simple(10))
