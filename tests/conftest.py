"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    make_clustered_dataset,
    make_neural_dataset,
    make_uniform_dataset,
)
from repro.geometry import brute_force_pairs, mbr, pack_pairs, unique_pairs


def random_boxes(rng, n, span=100.0, width_low=1.0, width_high=8.0):
    """Random boxes with varied extents for geometry-level tests."""
    centers = rng.uniform(0.0, span, size=(n, 3))
    widths = rng.uniform(width_low, width_high, size=(n, 3))
    return centers - widths / 2.0, centers + widths / 2.0


def oracle_keys(lo, hi):
    """Canonical packed pair keys from the brute-force oracle."""
    i_idx, j_idx = brute_force_pairs(lo, hi)
    return pack_pairs(i_idx, j_idx, lo.shape[0])


def cell_pair_brute_force(lo, hi, a_ids, b_ids, center_lo, center_hi, shortcut=True):
    """Brute-force counters and pairs of one cell pair's external join.

    Returns ``(tests, shortcuts, keys)``: ``shortcuts`` is the number of
    A members whose box encloses B's center bounds (none without the
    shortcut) times ``|B|``; ``tests`` the x-overlapping (other A member,
    B member) pairs; ``keys`` the sorted packed A×B overlaps.
    """
    a_ids = np.asarray(a_ids, dtype=np.int64)
    b_ids = np.asarray(b_ids, dtype=np.int64)
    n = lo.shape[0]
    enclosing = np.zeros(a_ids.size, dtype=bool)
    if shortcut:
        enclosing = mbr.encloses(lo[a_ids], hi[a_ids], center_lo, center_hi)
    others = a_ids[~enclosing]
    x_overlap = (lo[others, None, 0] < hi[None, b_ids, 0]) & (lo[None, b_ids, 0] < hi[others, None, 0])
    a_hit, b_hit = np.nonzero(mbr.overlap_matrix(lo[a_ids], hi[a_ids], lo[b_ids], hi[b_ids]))
    keys = pack_pairs(*unique_pairs(a_ids[a_hit], b_ids[b_hit], n), n)
    return int(x_overlap.sum()), int(enclosing.sum()) * b_ids.size, keys


def assert_matches_oracle(algorithm, dataset):
    """Run ``algorithm`` on ``dataset`` and compare exactly to the oracle.

    Checks both set equality *and* that the algorithm emitted no
    duplicate pairs (emitted count equals unique count).
    """
    result = algorithm.step(dataset)
    n = len(dataset)
    got_i, got_j = unique_pairs(*result.pairs, n)
    lo, hi = dataset.boxes()
    exp_i, exp_j = brute_force_pairs(lo, hi)
    got = pack_pairs(got_i, got_j, n)
    exp = pack_pairs(exp_i, exp_j, n)
    assert np.array_equal(got, exp), (
        f"{algorithm.name}: result mismatch: got {got.size} pairs, "
        f"expected {exp.size}; missing={np.setdiff1d(exp, got)[:10]}, "
        f"spurious={np.setdiff1d(got, exp)[:10]}"
    )
    assert result.n_results == exp.size, (
        f"{algorithm.name}: emitted {result.n_results} pairs but only "
        f"{exp.size} unique results exist (duplicate emissions)"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def uniform_small():
    """Dense uniform dataset: 400 objects, width 15, 120-unit cube."""
    return make_uniform_dataset(
        400, width=15.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=7
    )


@pytest.fixture
def uniform_varied():
    """Uniform dataset with varied object widths (13–17)."""
    return make_uniform_dataset(
        300,
        width_range=(13.0, 17.0),
        bounds=(np.zeros(3), np.full(3, 120.0)),
        seed=11,
    )


@pytest.fixture
def clustered_small():
    """Skewed dataset: 300 objects in two tight clusters."""
    dataset, _labels = make_clustered_dataset(
        300,
        n_clusters=2,
        sd=6.0,
        width=5.0,
        bounds=(np.zeros(3), np.full(3, 200.0)),
        seed=3,
    )
    return dataset


@pytest.fixture
def neural_small():
    """Synthetic neural dataset: 600 branch segments."""
    dataset, _labels = make_neural_dataset(600, object_volume=15.0, seed=5)
    return dataset
