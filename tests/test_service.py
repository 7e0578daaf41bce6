"""Sharded join service: bit-identity, degradation, caching, front-end.

The load-bearing property: every answer the service returns equals a
direct library call on an equally updated dataset, bit for bit —
across executor backends, motion models, and injected shard failures
(degraded answers are *marked*, never wrong).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.datasets import make_uniform_dataset
from repro.datasets.dataset import SpatialDataset
from repro.datasets.motion import IntermittentTranslation, RandomTranslation
from repro.engine import SerialExecutor, install_fault_plan, parse_faults
from repro.engine import faults as faults_module
from repro.engine.executors import _LIVE_SEGMENTS, resolve_executor
from repro.experiments.workloads import scaled_uniform
from repro.geometry import (
    keys_to_adjacency,
    pack_pairs,
    pairs_to_adjacency,
    sorted_unique_keys,
    unique_pairs,
    unpack_pairs,
)
from repro.joins import EGOJoin, PBSMJoin, PlaneSweepJoin, ST2BJoin
from repro.service import (
    JoinService,
    ResultCache,
    ServiceOverloadedError,
    ShardRing,
)
from repro.service import sharding as sharding_module


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    install_fault_plan(None)
    faults_module._env_cache = (None, None)
    yield
    install_fault_plan(None)
    faults_module._env_cache = (None, None)


@pytest.fixture(scope="module")
def service_dataset():
    return make_uniform_dataset(
        350, width=6.0, bounds=(np.zeros(3), np.array([120.0, 70.0, 50.0])), seed=11
    )


def _keys(pairs, n):
    return pack_pairs(*pairs, n)


def _library_join_keys(dataset):
    n = len(dataset)
    return _keys(ThermalJoin().join_pairs(dataset), n)


def _library_distance_keys(dataset, distance):
    result = ThermalJoin().distance_join(dataset, distance)
    n = len(dataset)
    return _keys(unique_pairs(*result.pairs, n), n)


def _two_cluster_dataset():
    """Two clusters far from the slab edge at x = 100 of a 2-shard ring.

    Moving an object a little in y keeps every shard's members (home
    plus halo) fixed, so each shard keeps its join across epochs.
    """
    rng = np.random.default_rng(5)
    low = rng.uniform([5.0, 2.0, 2.0], [60.0, 48.0, 48.0], size=(80, 3))
    high = rng.uniform([140.0, 2.0, 2.0], [195.0, 48.0, 48.0], size=(80, 3))
    return SpatialDataset(
        np.concatenate([low, high]),
        4.0,
        bounds=(np.zeros(3), np.array([200.0, 50.0, 50.0])),
    )


def _nudge(ring):
    """Commit an update moving one object per cluster in place."""
    centers = ring.dataset.centers.copy()
    centers[[3, 100], 1] += 0.5
    ring.apply_update(centers)


# ----------------------------------------------------------------------
# Ring bit-identity across executors and motion models
# ----------------------------------------------------------------------
class TestRingIdentity:
    # 32 shards make 3.75-wide slabs, narrower than the widest object (6)
    # and than the distance query's reach (8): halos span several slabs.
    @pytest.mark.parametrize(
        ("executor", "n_shards"),
        [("serial", 4), ("thread:2", 4), ("serial", 32)],
        ids=["serial", "thread:2", "serial-32shards"],
    )
    @pytest.mark.parametrize("motion_cls", [RandomTranslation, IntermittentTranslation])
    def test_identity_across_epochs(
        self, service_dataset, executor, n_shards, motion_cls
    ):
        baseline = service_dataset.copy()
        motion = motion_cls(baseline, distance=1.5, seed=3)
        ring = ShardRing(baseline, n_shards=n_shards, executor=executor)
        n = len(baseline)
        try:
            for _ in range(3):
                answer = ring.join_pairs()
                assert np.array_equal(
                    _keys(answer.pairs, n), _library_join_keys(baseline)
                )
                assert not answer.degraded and not answer.stale
                distance_answer = ring.distance_pairs(2.0)
                assert np.array_equal(
                    _keys(distance_answer.pairs, n),
                    _library_distance_keys(baseline, 2.0),
                )
                motion.step(baseline)
                ring.apply_update(baseline.centers)
        finally:
            ring.close()

    def test_identity_with_process_backend(self, service_dataset):
        baseline = service_dataset.copy()
        motion = RandomTranslation(baseline, distance=2.0, seed=5)
        ring = ShardRing(baseline, n_shards=3, executor="process:2")
        n = len(baseline)
        try:
            for _ in range(2):
                answer = ring.join_pairs()
                assert np.array_equal(
                    _keys(answer.pairs, n), _library_join_keys(baseline)
                )
                motion.step(baseline)
                ring.apply_update(baseline.centers)
        finally:
            ring.close()
        assert not _LIVE_SEGMENTS  # every step's segments were released

    def test_single_shard_ring(self, service_dataset):
        with ShardRing(service_dataset, n_shards=1) as ring:
            n = len(service_dataset)
            answer = ring.join_pairs()
            assert np.array_equal(
                _keys(answer.pairs, n), _library_join_keys(service_dataset)
            )

    def test_empty_shards_are_tolerated(self, rng):
        # Everything clustered in one corner: most slabs own nothing.
        centers = rng.uniform(0.0, 10.0, size=(80, 3))
        dataset = SpatialDataset(
            centers, 2.0, bounds=(np.zeros(3), np.full(3, 200.0))
        )
        with ShardRing(dataset, n_shards=6) as ring:
            n = len(dataset)
            answer = ring.join_pairs()
            assert np.array_equal(
                _keys(answer.pairs, n), _library_join_keys(dataset)
            )

    def test_shared_executor_instance_is_not_closed(self, service_dataset):
        executor = SerialExecutor()
        ring = ShardRing(service_dataset, n_shards=2, executor=executor)
        ring.join_pairs()
        ring.close()
        # The ring must not shut down a pool it was lent.
        assert ring.executor is executor


# ----------------------------------------------------------------------
# Answers are sorted pair keys: one sort of disjoint shard keys
# ----------------------------------------------------------------------
def _direct_keys(dataset, distance=None):
    """Sorted distinct keys of a direct THERMAL-JOIN step."""
    join = ThermalJoin()
    if distance is None:
        return sorted_unique_keys(join.step(dataset).keys)
    return sorted_unique_keys(join.distance_join(dataset, distance).keys)


def _assert_served_keys(answer, expected):
    keys = answer.keys
    assert keys.dtype == np.int64
    assert np.array_equal(keys, expected)
    assert (np.diff(keys) > 0).all()
    assert not keys.flags.writeable


class TestRingKeys:
    @pytest.mark.parametrize("n_shards", [1, 4, 32])
    def test_keys_equal_a_direct_step(self, service_dataset, n_shards):
        with ShardRing(service_dataset, n_shards=n_shards) as ring:
            _assert_served_keys(ring.join_pairs(), _direct_keys(service_dataset))
            for distance in (0.5, 2.0):
                _assert_served_keys(
                    ring.distance_pairs(distance),
                    _direct_keys(service_dataset, distance),
                )

    @pytest.mark.parametrize("n_shards", [4, 32])
    def test_stale_keys_equal_a_direct_step(self, service_dataset, n_shards):
        with ShardRing(service_dataset, n_shards=n_shards) as ring:
            ring.join_pairs()
            ring.distance_pairs(2.0)  # prime both stores
            ring.kill_shard(1, permanent=True)
            join = ring.join_pairs()
            distance = ring.distance_pairs(2.0)
            assert join.stale and distance.stale
            _assert_served_keys(join, _direct_keys(service_dataset))
            _assert_served_keys(distance, _direct_keys(service_dataset, 2.0))

    def test_stale_assembly_after_motion_stays_a_set(self, service_dataset):
        # After motion, a dead shard's stored pairs can overlap pairs a
        # fresh shard now owns; the stale assembly drops the copies.
        baseline = service_dataset.copy()
        motion = RandomTranslation(baseline, distance=3.0, seed=0)
        with ShardRing(baseline, n_shards=4) as ring:
            ring.join_pairs()
            ring.kill_shard(1, permanent=True)
            motion.step(baseline)
            ring.apply_update(baseline.centers)
            answer = ring.join_pairs()
            assert answer.stale
            assert (np.diff(answer.keys) > 0).all()
            assert answer.n_results == answer.keys.size

    @pytest.mark.parametrize("n_shards", [1, 4, 32])
    def test_members_strictly_increase(self, service_dataset, n_shards):
        # What lets a shard's local i < j map to a canonical global key.
        with ShardRing(service_dataset, n_shards=n_shards) as ring:
            for distance in (0.0, 0.5, 2.0, 8.0):
                for k in range(n_shards):
                    members = ring._members(k, distance)
                    assert (np.diff(members) > 0).all(), (k, distance)

    def test_pairs_decode_once_read_only(self, service_dataset):
        with ShardRing(service_dataset, n_shards=3) as ring:
            answer = ring.join_pairs()
            assert answer.pairs is answer.pairs
            assert np.array_equal(
                pack_pairs(*answer.pairs, len(service_dataset)), answer.keys
            )
            assert not any(array.flags.writeable for array in answer.pairs)

    def test_served_answer_cannot_be_written(self):
        dataset, _motion = scaled_uniform(1000, seed=1)
        expected = _direct_keys(dataset)
        with ShardRing(dataset, n_shards=4) as ring:
            answer = ring.join_pairs()
            with pytest.raises(ValueError):
                answer.pairs[0][:] = 0
            with pytest.raises(ValueError):
                answer.keys[:] = 0
            again = ring.join_pairs()
            assert again is answer  # a cache hit: the same arrays
            _assert_served_keys(again, expected)
            assert np.array_equal(
                pack_pairs(*again.pairs, len(dataset)), expected
            )


class TestOtherAlgorithmShards:
    """Shards of any algorithm keep only their owned pairs.

    Only a THERMAL-JOIN shard skips halo×halo pairs itself; the others
    emit them, and the owned mask drops them, or two shards would
    both hand the pair over and the served keys would repeat it.
    """

    @pytest.mark.parametrize(
        "algorithm",
        [PlaneSweepJoin, PBSMJoin, ST2BJoin, EGOJoin],
        ids=["plane-sweep", "pbsm", "st2b", "ego"],
    )
    def test_answers_equal_a_direct_step_across_epochs_and_a_kill(
        self, service_dataset, algorithm
    ):
        baseline = service_dataset.copy()
        motion = RandomTranslation(baseline, distance=1.5, seed=3)
        executor = resolve_executor(None)
        try:
            with ShardRing(
                baseline,
                n_shards=4,
                executor=executor,
                algorithm_factory=lambda: algorithm(executor=executor),
            ) as ring:
                for epoch in range(3):
                    if epoch == 1:
                        ring.kill_shard(2)
                    join = ring.join_pairs()
                    _assert_served_keys(join, _direct_keys(baseline))
                    assert not join.stale
                    assert join.degraded == (epoch == 1)
                    for distance in (0.5, 2.0):
                        _assert_served_keys(
                            ring.distance_pairs(distance),
                            _direct_keys(baseline, distance),
                        )
                    motion.step(baseline)
                    ring.apply_update(baseline.centers)
                assert ring.rehomes == 1
                assert all(isinstance(s.join, algorithm) for s in ring._shards if s.join)
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Degradation ladder: kills degrade the answer, never corrupt it
# ----------------------------------------------------------------------
class TestRingDegradation:
    def test_one_shot_kill_rehomes_and_recovers(self, service_dataset):
        n = len(service_dataset)
        expected = _library_join_keys(service_dataset)
        with ShardRing(service_dataset, n_shards=3) as ring:
            ring.kill_shard(1)
            answer = ring.join_pairs()
            assert np.array_equal(_keys(answer.pairs, n), expected)
            assert answer.degraded and not answer.stale
            assert ring.rehomes == 1
            kinds = [e["kind"] for e in ring._epoch_events]
            assert "shard_failed" in kinds and "shard_rehomed" in kinds
            # Next query is healthy again.
            healthy = ring.join_pairs()
            assert not healthy.stale
            assert np.array_equal(_keys(healthy.pairs, n), expected)

    def test_one_shot_kill_after_motion_rebuilds_from_the_ring(self):
        # The shard's members moved in place since its last join, so the
        # re-home rebuilds it from the ring's current positions.
        def factory():
            return ThermalJoin(resolution=1.0, pair_maintenance=True)

        with ShardRing(
            _two_cluster_dataset(), n_shards=2, algorithm_factory=factory
        ) as ring:
            ring.join_pairs()
            members = [shard.global_ids.copy() for shard in ring._shards]
            _nudge(ring)
            assert all(
                np.array_equal(shard.global_ids, ids)
                for shard, ids in zip(ring._shards, members, strict=True)
            )
            n = len(ring.dataset)
            expected = _library_join_keys(ring.dataset.copy())
            ring.kill_shard(0)
            answer = ring.join_pairs()
            assert np.array_equal(answer.keys, expected)
            assert answer.degraded and not answer.stale
            assert ring.rehomes == 1
            healthy = ring.join_pairs()
            assert not healthy.degraded and not healthy.stale
            assert np.array_equal(_keys(healthy.pairs, n), expected)

    def test_permanent_kill_serves_stale_marked(self, service_dataset):
        n = len(service_dataset)
        expected = _library_join_keys(service_dataset)
        with ShardRing(service_dataset, n_shards=3) as ring:
            ring.join_pairs()  # prime the stale store
            ring.kill_shard(2, permanent=True)
            answer = ring.join_pairs()
            # Positions unchanged, so the stale contribution is still
            # exact — but it must be *marked*.
            assert np.array_equal(_keys(answer.pairs, n), expected)
            assert answer.degraded and answer.stale
            assert ring.stale_served >= 1
            kinds = [e["kind"] for e in ring._epoch_events]
            assert "shard_dead" in kinds

    def test_permanent_kill_without_stale_answer_raises(self, service_dataset):
        with ShardRing(service_dataset, n_shards=3) as ring:
            ring.kill_shard(0, permanent=True)
            with pytest.raises(RuntimeError, match="injected shard failure"):
                ring.join_pairs()

    def test_injected_task_fault_degrades_but_stays_exact(self, service_dataset):
        n = len(service_dataset)
        expected = _library_join_keys(service_dataset)
        install_fault_plan(parse_faults("raise@0"))
        with ShardRing(service_dataset, n_shards=3) as ring:
            answer = ring.join_pairs()
            assert np.array_equal(_keys(answer.pairs, n), expected)
            assert answer.degraded  # the executor retry is visible
            assert any(
                e["kind"] == "task_retry" for e in ring._epoch_events
            )

    def test_non_finite_update_is_refused_before_commit(self, service_dataset):
        n = len(service_dataset)
        expected = _library_join_keys(service_dataset)
        with ShardRing(service_dataset, n_shards=4) as ring:
            ring.join_pairs()
            epoch = ring.epoch
            bad = service_dataset.centers.copy()
            bad[5, 0] = np.nan
            with pytest.raises(ValueError, match="finite"):
                ring.apply_update(bad)
            assert ring.epoch == epoch
            assert all(shard.alive for shard in ring._shards)
            answer = ring.join_pairs()
            assert np.array_equal(_keys(answer.pairs, n), expected)
            assert not answer.degraded and not answer.stale

    def test_kill_unknown_shard_rejected(self, service_dataset):
        with ShardRing(service_dataset, n_shards=2) as ring:
            with pytest.raises(ValueError, match="no shard 7"):
                ring.kill_shard(7)


# ----------------------------------------------------------------------
# Distance queries run on a fresh algorithm, not the shard's join
# ----------------------------------------------------------------------
class TestHaloSkipping:
    """THERMAL-JOIN shards never form the halo×halo pairs another shard owns."""

    def test_ring_tests_stay_near_the_direct_join(self):
        # Before the shards skipped halo×halo candidates this ring ran
        # 1.35x (join) and 1.39x (distance) the direct join's tests.
        dataset, _ = scaled_uniform(4000, seed=1)
        with ShardRing(dataset, n_shards=4, executor="serial") as ring:
            ring.join_pairs()
            join_tests = sum(shard.overlap_tests for shard in ring._shards)
            ring.distance_pairs(2.0)
            distance_tests = sum(shard.overlap_tests for shard in ring._shards) - join_tests
        direct = ThermalJoin().step(dataset).stats.overlap_tests
        direct_distance = ThermalJoin().distance_join(dataset, 2.0).stats.overlap_tests
        assert join_tests <= 1.05 * direct
        assert distance_tests <= 1.05 * direct_distance

    def test_pair_maintaining_shard_equals_the_halo_skipping_join(self):
        # Objects 0-19 are homed in slab 0 just below the edge at x = 100
        # and objects 20-39 in slab 1 just above it, in shard 0's halo.
        # At the second update object 0 crosses the edge next to object
        # 20: it stays a member of shard 0, now in its halo, so shard 0
        # keeps its members and maintains its pairs incrementally.
        rng = np.random.default_rng(4)
        yz = rng.uniform(2.0, 48.0, size=(20, 2))
        left = np.column_stack([np.full(20, 98.4), yz])
        right = np.column_stack([np.full(20, 100.2), yz])
        far = rng.uniform([2.0, 2.0, 2.0], [198.0, 48.0, 48.0], size=(60, 3))
        dataset = SpatialDataset(
            np.concatenate([left, right, far]),
            2.0,
            bounds=(np.zeros(3), np.array([200.0, 50.0, 50.0])),
        )
        n = len(dataset)

        def factory():
            return ThermalJoin(resolution=1.0, pair_maintenance=True)

        with ShardRing(dataset, n_shards=2, algorithm_factory=factory) as ring:
            ring.join_pairs()
            shard = ring._shards[0]
            members = shard.global_ids.copy()
            for step in range(3):
                centers = ring.dataset.centers.copy()
                if step == 1:
                    centers[0, 0] = 100.25
                else:
                    centers[[1, 2], 1] += 0.3
                ring.apply_update(centers)
                answer = ring.join_pairs()
                assert np.array_equal(shard.global_ids, members)
                assert shard.join.metrics.snapshot()["incremental"]["mode"] == "incremental"

                halo = ring._assignment[members] != 0
                assert halo[0] == (step >= 1)
                keys = shard.join._maintained.packed_keys()
                i, j = unpack_pairs(keys, members.size)
                assert not (halo[i] & halo[j]).any()
                reference = ThermalJoin(resolution=1.0)
                reference.halo = halo
                assert np.array_equal(keys, np.sort(reference.step(shard.dataset).keys))

                after = SpatialDataset(centers, 2.0, bounds=dataset.bounds)
                assert np.array_equal(_keys(answer.pairs, n), _library_join_keys(after))


class TestDistanceIsolation:
    def test_distance_query_leaves_the_join_tuner_and_grid_alone(self):
        def join_state(ring):
            return [
                (len(shard.join.tuner.history), getattr(shard.join.pgrid, "cell_width", None))
                for shard in ring._shards
            ]

        with ShardRing(_two_cluster_dataset(), n_shards=2) as ring:
            # Fixed members: the tuners converge and keep their P-Grids.
            for _ in range(4):
                ring.join_pairs()
                _nudge(ring)
            ring.join_pairs()
            assert all(shard.join.pgrid is not None for shard in ring._shards)
            before = join_state(ring)
            ring.distance_pairs(2.0)
            assert join_state(ring) == before

    def test_distance_query_keeps_the_maintained_pair_set(self):
        # A fixed resolution keeps the tuner out of the maintenance gate,
        # so only the maintained set decides between full and incremental.
        def factory():
            return ThermalJoin(resolution=1.0, pair_maintenance=True)

        dataset = _two_cluster_dataset()
        with ShardRing(dataset, n_shards=2, algorithm_factory=factory) as ring:
            ring.join_pairs()
            ring.distance_pairs(2.0)
            _nudge(ring)
            answer = ring.join_pairs()
            for shard in ring._shards:
                mode = shard.join.metrics.snapshot()["incremental"]["mode"]
                assert mode == "incremental"
            after = SpatialDataset(ring.dataset.centers, 4.0, bounds=dataset.bounds)
            n = len(dataset)
            assert np.array_equal(_keys(answer.pairs, n), _library_join_keys(after))


class TestDistanceOnShardAlgorithm:
    def test_distance_query_builds_nothing_from_the_factory(self):
        # The shard's own algorithm answers the query; THERMAL-JOIN's
        # distance_join makes its one fresh instance itself.
        calls = []

        def factory():
            calls.append(None)
            return ThermalJoin()

        dataset = _two_cluster_dataset()
        with ShardRing(dataset, n_shards=2, algorithm_factory=factory) as ring:
            ring.join_pairs()
            built = len(calls)
            answer = ring.distance_pairs(2.0)
            assert len(calls) == built
            n = len(dataset)
            assert np.array_equal(
                _keys(answer.pairs, n), _library_distance_keys(dataset, 2.0)
            )


# ----------------------------------------------------------------------
# Result cache: assembled answers; untouched shards keep their store
# ----------------------------------------------------------------------
class TestResultCache:
    def test_repeated_query_hits_assembled_cache(self, service_dataset):
        with ShardRing(service_dataset, n_shards=3) as ring:
            first = ring.join_pairs()
            hits_before = ring.cache.hits
            second = ring.join_pairs()
            assert ring.cache.hits > hits_before
            assert second is first  # the assembled answer is reused

    def test_untouched_shards_survive_an_update(self):
        # Two tight clusters at opposite ends of the slab axis; moving
        # only the low cluster must leave the high shard's entry hot.
        rng = np.random.default_rng(9)
        low = rng.uniform([2.0, 2.0, 2.0], [20.0, 45.0, 45.0], size=(60, 3))
        high = rng.uniform([180.0, 2.0, 2.0], [198.0, 45.0, 45.0], size=(60, 3))
        centers = np.concatenate([low, high])
        dataset = SpatialDataset(
            centers, 2.0, bounds=(np.zeros(3), np.array([200.0, 50.0, 50.0]))
        )
        n = len(dataset)
        baseline = dataset.copy()
        with ShardRing(dataset, n_shards=2) as ring:
            ring.join_pairs()
            shard_versions = [shard.version for shard in ring._shards]

            new_centers = baseline.centers.copy()
            new_centers[:60] += np.array([1.0, 0.5, -0.5])  # low cluster only
            before = baseline.centers.copy()
            baseline.centers[:] = new_centers
            baseline.commit_motion(before)
            ring.apply_update(new_centers)

            # Shard 1 (high cluster) was untouched: version pinned.
            assert ring._shards[0].version != shard_versions[0]
            assert ring._shards[1].version == shard_versions[1]

            queries_before = ring._shards[1].queries
            answer = ring.join_pairs()
            assert ring._shards[1].queries == queries_before  # served from its store
            assert np.array_equal(_keys(answer.pairs, n), _library_join_keys(baseline))

    def test_halo_only_motion_invalidates_the_lower_shard(self):
        # Objects homed in shard 1 sit in shard 0's halo and pair with
        # shard 0's objects across the edge at x = 100.  They move
        # apart without leaving slab 1 or the halo, so shard 0's members
        # are unchanged but its cross pairs are not.
        rng = np.random.default_rng(4)
        yz = rng.uniform(2.0, 48.0, size=(20, 2))
        left = np.column_stack([np.full(20, 98.4), yz])
        right = np.column_stack([np.full(20, 100.2), yz])
        far = rng.uniform([2.0, 2.0, 2.0], [198.0, 48.0, 48.0], size=(60, 3))
        centers = np.concatenate([left, right, far])
        dataset = SpatialDataset(
            centers, 2.0, bounds=(np.zeros(3), np.array([200.0, 50.0, 50.0]))
        )
        n = len(dataset)
        with ShardRing(dataset, n_shards=2) as ring:
            first = ring.join_pairs()
            assert np.array_equal(_keys(first.pairs, n), _library_join_keys(dataset))

            moved = dataset.centers.copy()
            moved[20:40, 0] = 100.6  # still homed in slab 1, still in the halo
            halo_before = ring._shards[0].global_ids.copy()
            ring.apply_update(moved)
            assert np.array_equal(ring._shards[0].global_ids, halo_before)

            after = SpatialDataset(moved, 2.0, bounds=dataset.bounds)
            answer = ring.join_pairs()
            assert np.array_equal(_keys(answer.pairs, n), _library_join_keys(after))
            assert not answer.degraded

    def test_cache_eviction_and_counters(self):
        cache = ResultCache()
        cache.put("join", (0, 0, ("join",)), 1)
        cache.put("distance", (0, 0, ("distance", 1.0)), 2)
        cache.put("distance", (0, 0, ("distance", 2.0)), 3)  # replaces 1.0
        assert len(cache) == 2
        assert cache.evicted == 1
        assert cache.get("distance", (0, 0, ("distance", 1.0))) is None  # miss
        assert cache.get("distance", (0, 0, ("distance", 2.0))) == 3  # hit
        assert cache.get("join", (1, 0, ("join",))) is None  # older epoch: miss
        assert cache.get("join", (0, 0, ("join",))) == 1  # hit
        cache.clear()
        assert len(cache) == 0
        assert cache.metrics() == {
            "entries": 0, "hits": 2, "misses": 2, "invalidated": 2, "evicted": 1,
        }


# ----------------------------------------------------------------------
# Answer store: one bounded join and distance answer per shard
# ----------------------------------------------------------------------
class TestAnswerStore:
    def test_store_stays_bounded_across_distances_and_an_update(self):
        dataset, motion = scaled_uniform(4000, seed=1)
        with ShardRing(dataset, n_shards=4, executor="serial") as ring:
            ring.join_pairs()
            for k in range(40):
                ring.distance_pairs(0.05 * (k + 1))
            motion.step(dataset)
            ring.apply_update(dataset.centers)
            sizes = [len(shard.answers) for shard in ring._shards]
            assert max(sizes) <= 2, sizes
            assert len(ring.cache) == 0  # the update dropped the assembled answers

    def test_assembled_cache_keeps_one_answer_per_kind(self):
        dataset, _motion = scaled_uniform(4000, seed=1)
        with ShardRing(dataset, n_shards=4, executor="serial") as ring:
            ring.join_pairs()
            for k in range(40):
                ring.distance_pairs(0.05 * (k + 1))
            # The join and the latest distance; each distance replaced
            # the one before it within the epoch.
            assert len(ring.cache) <= 2
            assert ring.cache.evicted == 39

    def test_permanent_kill_serves_the_latest_distance_stale(self, service_dataset):
        n = len(service_dataset)
        with ShardRing(service_dataset, n_shards=3) as ring:
            ring.distance_pairs(1.0)
            ring.distance_pairs(2.0)  # the shard's latest distance answer
            ring.kill_shard(2, permanent=True)
            answer = ring.distance_pairs(2.0)
            assert np.array_equal(
                _keys(answer.pairs, n), _library_distance_keys(service_dataset, 2.0)
            )
            assert answer.degraded and answer.stale
            assert ring.stale_served == 1
            # Only the latest distance is kept, so an older one has no fallback.
            with pytest.raises(RuntimeError, match="injected shard failure"):
                ring.distance_pairs(1.0)


# ----------------------------------------------------------------------
# Async front-end: the service-level property test
# ----------------------------------------------------------------------
class TestJoinService:
    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_service_answers_match_library(self, service_dataset, executor):
        async def scenario():
            baseline = service_dataset.copy()
            motion = RandomTranslation(baseline, distance=1.5, seed=17)
            n = len(baseline)
            async with JoinService(
                service_dataset, n_shards=3, executor=executor
            ) as service:
                for _ in range(2):
                    answer = await service.join()
                    assert np.array_equal(
                        _keys(answer.pairs, n), _library_join_keys(baseline)
                    )
                    neighbor_answer = await service.neighbors()
                    offsets, neighbors = neighbor_answer.adjacency
                    lib_offsets, lib_neighbors = ThermalJoin().neighbors(baseline)
                    assert np.array_equal(offsets, lib_offsets)
                    assert np.array_equal(neighbors, lib_neighbors)
                    motion.step(baseline)
                    epoch = await service.update(baseline.centers.copy())
                    assert epoch == baseline.version

        asyncio.run(scenario())

    def test_service_degrades_under_shard_kill(self, service_dataset):
        async def scenario():
            n = len(service_dataset)
            expected = _library_join_keys(service_dataset)
            async with JoinService(service_dataset, n_shards=3) as service:
                healthy = await service.join()
                assert not healthy.degraded
                await service.kill_shard(1)
                degraded = await service.join()
                assert degraded.degraded
                assert np.array_equal(_keys(degraded.pairs, n), expected)
                await service.kill_shard(2, permanent=True)
                stale = await service.join()
                assert stale.degraded and stale.stale
                assert np.array_equal(_keys(stale.pairs, n), expected)

        asyncio.run(scenario())

    def test_service_exact_under_injected_task_faults(self, service_dataset):
        async def scenario():
            n = len(service_dataset)
            install_fault_plan(parse_faults("raise@0"))
            async with JoinService(service_dataset, n_shards=2) as service:
                answer = await service.join()
                assert np.array_equal(
                    _keys(answer.pairs, n), _library_join_keys(service_dataset)
                )
                assert answer.degraded  # retried, recorded, still exact

        asyncio.run(scenario())

    def test_neighbors_csr_is_built_once_per_answer(
        self, service_dataset, monkeypatch
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return keys_to_adjacency(*args)

        monkeypatch.setattr(sharding_module, "keys_to_adjacency", counting)

        def library_csr(dataset):
            return pairs_to_adjacency(*ThermalJoin().join_pairs(dataset), len(dataset))

        def assert_csr(answer, dataset):
            for got, want in zip(answer.adjacency, library_csr(dataset), strict=True):
                assert np.array_equal(got, want)

        async def scenario():
            baseline = service_dataset.copy()
            motion = RandomTranslation(baseline, distance=1.5, seed=23)
            async with JoinService(service_dataset, n_shards=3) as service:
                # Sequential, so batch dedup cannot be what saves the work.
                answers = [await service.neighbors() for _ in range(5)]
                assert len(calls) == 1
                assert sum(answer.cached for answer in answers) == 0
                for answer in answers:
                    assert_csr(answer, baseline)
                offsets, neighbors = answers[0].adjacency
                assert not offsets.flags.writeable and not neighbors.flags.writeable

                motion.step(baseline)
                await service.update(baseline.centers.copy())
                moved = await service.neighbors()
                assert len(calls) == 2
                assert_csr(moved, baseline)

                await service.kill_shard(1)  # bumps the generation
                killed = await service.neighbors()
                assert len(calls) == 3
                assert killed.degraded
                assert_csr(killed, baseline)

        asyncio.run(scenario())

    def test_duplicate_queries_batch(self, service_dataset):
        async def scenario():
            async with JoinService(service_dataset, n_shards=2) as service:
                answers = await asyncio.gather(
                    *[service.distance(1.0) for _ in range(4)]
                )
                cached_flags = sorted(a.cached for a in answers)
                assert cached_flags == [False, True, True, True]
                assert service.batched == 3
                n = len(service_dataset)
                reference = _library_distance_keys(service_dataset, 1.0)
                for answer in answers:
                    assert np.array_equal(_keys(answer.pairs, n), reference)

        asyncio.run(scenario())

    def test_admission_control_rejects_overload(self, service_dataset, monkeypatch):
        async def scenario():
            service = JoinService(service_dataset, n_shards=2, max_pending=2)
            original = JoinService._compute

            def slow_compute(self, kind, params, payload):
                import time as time_module

                time_module.sleep(0.2)
                return original(self, kind, params, payload)

            monkeypatch.setattr(JoinService, "_compute", slow_compute)
            await service.start()
            first = asyncio.ensure_future(service.join())
            second = asyncio.ensure_future(service.join())
            await asyncio.sleep(0.05)  # both admitted and in flight
            with pytest.raises(ServiceOverloadedError):
                await service.join()
            assert service.rejected == 1
            await asyncio.gather(first, second)
            # Load drained: submissions are admitted again.
            final = await service.join()
            assert final.n_results >= 0
            await service.stop()

        asyncio.run(scenario())

    def test_requests_require_running_service(self, service_dataset):
        async def scenario():
            service = JoinService(service_dataset, n_shards=2)
            with pytest.raises(RuntimeError, match="not running"):
                await service.join()
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError, match="not running"):
                await service.join()

        asyncio.run(scenario())

    def test_frontend_metrics_flow_through_registry(self, service_dataset):
        async def scenario():
            async with JoinService(service_dataset, n_shards=2) as service:
                await service.join()
                snapshot = service.ring.metrics.snapshot()
                assert snapshot["frontend"]["accepted"] == 1
                assert snapshot["frontend"]["latency_max_seconds"] > 0.0
                assert "ring" in snapshot and "cache" in snapshot
                assert snapshot["shard0"]["queries"] >= 1

        asyncio.run(scenario())

    def test_epoch_record_is_bench_shaped(self, service_dataset):
        with ShardRing(service_dataset, n_shards=2) as ring:
            answer = ring.join_pairs()
            record = ring.epoch_record(0, answer.n_results)
            assert record.step == 0
            assert record.n_results == answer.n_results
            assert record.overlap_tests > 0
            assert record.memory_bytes > 0
            ring_counters = record.index_counters["ring"]
            assert ring_counters["boundary_tests"] == 0
            halo = sum(shard.global_ids.size for shard in ring._shards)
            assert ring_counters["halo_objects"] == halo - len(service_dataset) > 0

    def test_epoch_record_counts_both_indexes_of_a_shard(self, service_dataset):
        # A shard's overlap join and its last distance join each built a
        # P-Grid; the record sums both, whichever query ran last.
        with ShardRing(service_dataset, n_shards=2) as ring:
            ring.join_pairs()
            ring.distance_pairs(2.0)
            expected = 0
            for shard in ring._shards:
                local = ring._members(shard.shard_id, 2.0)
                near = SpatialDataset(
                    service_dataset.centers[local],
                    service_dataset.widths[local],
                    bounds=service_dataset.bounds,
                )
                expected += ThermalJoin().step(shard.dataset).stats.memory_bytes
                expected += ThermalJoin().distance_join(near, 2.0).stats.memory_bytes
            assert ring.epoch_record(0, 0).memory_bytes == expected
            ring.join_pairs()  # a cache hit changes neither index
            assert ring.epoch_record(0, 0).memory_bytes == expected
            # Same positions under other ids: every shard is rebuilt and
            # holds no index until it is queried again.
            ring.apply_update(service_dataset.centers[::-1])
            assert ring.epoch_record(1, 0).memory_bytes == 0
