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
from repro.engine.executors import _LIVE_SEGMENTS
from repro.geometry import pack_pairs, unique_pairs
from repro.service import (
    JoinService,
    ResultCache,
    ServiceOverloadedError,
    ShardRing,
)


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
# Result cache: versioned keys, per-shard invalidation
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

            hits_before = ring.cache.hits
            answer = ring.join_pairs()
            assert ring.cache.hits > hits_before  # shard 1 served from cache
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
        cache = ResultCache(max_entries=2)
        cache.put((0, 0, "a"), 1)
        cache.put((0, 0, "b"), 2)
        cache.put((1, 0, "c"), 3)  # evicts the oldest
        assert len(cache) == 2
        assert cache.evicted == 1
        assert cache.get((0, 0, "a")) is None  # miss
        assert cache.get((1, 0, "c")) == 3  # hit
        assert cache.invalidate_shard(0) == 1
        assert cache.metrics()["invalidated"] == 1

    def test_cache_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)


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
