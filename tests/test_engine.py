"""Staged execution engine: plans, executors, statistics.

The engine's core guarantee is that scheduling is invisible: for any
algorithm and any executor, the merged pair set and the overlap-test
total are identical to the serial run (and to the brute-force oracle).
These tests enforce that guarantee across every algorithm in the
repository, plus the plan/partition helpers and executor selection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CellPairSweepTask,
    Executor,
    FallbackJoinTask,
    GroupSelfJoinTask,
    HotCellsTask,
    ProcessExecutor,
    SerialExecutor,
    SweepStripTask,
    ThreadExecutor,
    chunk_by_volume,
    resolve_executor,
)
from repro.geometry import PairAccumulator

from .conftest import assert_matches_oracle


def _factories():
    from repro.core import ThermalJoin
    from repro.joins import (
        CRTreeJoin,
        EGOJoin,
        IndexedNestedLoopRTreeJoin,
        LooseOctreeJoin,
        MXCIFOctreeJoin,
        NestedLoopJoin,
        PBSMJoin,
        PlaneSweepJoin,
        ST2BJoin,
        SynchronousRTreeJoin,
        TouchJoin,
    )

    return {
        "thermal-join": lambda **kw: ThermalJoin(resolution=1.0, **kw),
        "nested-loop": NestedLoopJoin,
        "plane-sweep": PlaneSweepJoin,
        "pbsm": PBSMJoin,
        "ego": EGOJoin,
        "mxcif-octree": MXCIFOctreeJoin,
        "loose-octree": LooseOctreeJoin,
        "rtree-sync": SynchronousRTreeJoin,
        "cr-tree": CRTreeJoin,
        "touch": TouchJoin,
        "inl-rtree": IndexedNestedLoopRTreeJoin,
        "st2b": ST2BJoin,
    }


# ----------------------------------------------------------------------
# chunk_by_volume
# ----------------------------------------------------------------------
class TestChunkByVolume:
    def test_slices_cover_range_without_overlap(self):
        counts = np.array([5, 0, 12, 3, 3, 40, 1, 1])
        slices = chunk_by_volume(counts, 3)
        assert slices[0][0] == 0
        assert slices[-1][1] == counts.size
        for (_, stop), (nxt, _) in zip(slices, slices[1:], strict=False):
            assert stop == nxt

    def test_respects_task_bound(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 100, size=200)
        assert len(chunk_by_volume(counts, 8)) <= 8

    def test_deterministic(self):
        counts = np.arange(50)
        assert chunk_by_volume(counts, 6) == chunk_by_volume(counts, 6)

    def test_empty_and_single(self):
        assert chunk_by_volume(np.array([], dtype=np.int64), 4) == []
        assert chunk_by_volume(np.array([7]), 4) == [(0, 1)]

    def test_all_zero_volume_yields_one_slice(self):
        assert chunk_by_volume(np.zeros(9, dtype=np.int64), 4) == [(0, 9)]

    def test_roughly_balanced(self):
        counts = np.full(64, 10)
        slices = chunk_by_volume(counts, 4)
        volumes = [counts[a:b].sum() for a, b in slices]
        assert max(volumes) <= 2 * min(volumes)


# ----------------------------------------------------------------------
# Executor selection
# ----------------------------------------------------------------------
class TestResolveExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_environment_variable_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread:5")
        executor = resolve_executor(None)
        assert isinstance(executor, ThreadExecutor)
        assert executor.n_workers == 5

    def test_spec_strings(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert resolve_executor("thread:3").n_workers == 3
        process = resolve_executor("process:2")
        assert isinstance(process, ProcessExecutor)
        assert process.n_workers == 2

    def test_instances_pass_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            resolve_executor("quantum")
        with pytest.raises(ValueError):
            resolve_executor("thread:zero")
        for spelling in ("threads", "processes"):
            with pytest.raises(ValueError):
                resolve_executor(spelling)
        with pytest.raises(TypeError):
            resolve_executor(3)
        with pytest.raises(ValueError):
            ThreadExecutor(0)
        with pytest.raises(ValueError):
            ProcessExecutor(-1)

    def test_algorithm_honours_environment(self, monkeypatch):
        from repro.joins import NestedLoopJoin

        monkeypatch.setenv("REPRO_EXECUTOR", "thread:2")
        join = NestedLoopJoin()
        assert isinstance(join.executor, ThreadExecutor)
        assert join.executor.n_workers == 2


# ----------------------------------------------------------------------
# All algorithms × all executors against the oracle
# ----------------------------------------------------------------------
class TestExecutorsMatchOracle:
    @pytest.fixture(scope="class")
    def process_pool(self):
        executor = ProcessExecutor(n_workers=2)
        yield executor
        executor.close()

    @pytest.mark.parametrize("name", sorted(_factories()))
    def test_serial_matches_oracle(self, name, uniform_small):
        assert_matches_oracle(_factories()[name](), uniform_small)

    @pytest.mark.parametrize("name", sorted(_factories()))
    def test_thread_matches_oracle_and_serial_stats(self, name, uniform_small):
        factory = _factories()[name]
        serial = factory().step(uniform_small)
        threaded = factory(executor="thread:3")
        assert_matches_oracle(threaded, uniform_small)
        assert threaded.stats.overlap_tests == serial.stats.overlap_tests

    @pytest.mark.parametrize("name", sorted(_factories()))
    def test_process_matches_oracle_and_serial_stats(
        self, name, uniform_small, process_pool
    ):
        factory = _factories()[name]
        serial = factory().step(uniform_small)
        processed = factory(executor=process_pool)
        assert_matches_oracle(processed, uniform_small)
        assert processed.stats.overlap_tests == serial.stats.overlap_tests

    def test_process_payload_is_one_key_array(self, uniform_small, process_pool, monkeypatch):
        # Each worker ships its task's pairs as one int64 key array; the
        # decoded result equals serial's in values and in order.
        from repro.core import ThermalJoin
        from repro.engine import executors

        payloads = []
        rehydrate = executors._result_from_payload

        def record(payload, n_objects, count_only):
            payloads.append(payload)
            return rehydrate(payload, n_objects, count_only)

        monkeypatch.setattr(executors, "_result_from_payload", record)
        processed = ThermalJoin(resolution=1.0, executor=process_pool).step(uniform_small)
        serial = ThermalJoin(resolution=1.0, executor="serial").step(uniform_small)

        assert len(payloads) >= 2, "no task reached a worker"
        for _counters, _seconds, n_pairs, keys, _phase, _cpu in payloads:
            assert isinstance(keys, np.ndarray)
            assert keys.dtype == np.int64 and keys.ndim == 1 and keys.size == n_pairs
        assert sum(payload[3].size for payload in payloads) > 0
        for got, want in zip(processed.pairs, serial.pairs, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(processed.keys, serial.keys)

    def test_count_only_counts_agree_across_executors(self, uniform_varied):
        from repro.core import ThermalJoin

        counts = set()
        for spec in ("serial", "thread:2", "process:2"):
            join = ThermalJoin(resolution=1.0, count_only=True, executor=spec)
            result = join.step(uniform_varied)
            assert result.pairs is None
            counts.add(result.n_results)
            join.executor.close()
        assert len(counts) == 1


# ----------------------------------------------------------------------
# Plans and statistics
# ----------------------------------------------------------------------
class TestPlansAndStatistics:
    def test_thermal_plan_task_vocabulary(self, uniform_small):
        from repro.core import ThermalJoin

        join = ThermalJoin(resolution=1.0)
        join._build(uniform_small)
        plan = join.plan(uniform_small)
        kinds = {type(task) for task in plan.tasks}
        assert CellPairSweepTask in kinds
        assert HotCellsTask in kinds or GroupSelfJoinTask in kinds
        assert {"lo", "hi", "cat", "starts", "stops"} <= set(plan.context)

    def test_plane_sweep_plan_emits_strips(self, uniform_small):
        from repro.joins import PlaneSweepJoin

        join = PlaneSweepJoin()
        join._build(uniform_small)
        plan = join.plan(uniform_small)
        assert plan.tasks and all(
            isinstance(task, SweepStripTask) for task in plan.tasks
        )
        assert plan.tasks[0].start == 0
        assert plan.tasks[-1].stop == len(uniform_small)

    def test_unported_algorithm_gets_fallback_plan(self, uniform_small):
        from repro.joins import TouchJoin

        join = TouchJoin()
        join._build(uniform_small)
        plan = join.plan(uniform_small)
        assert len(plan.tasks) == 1
        assert isinstance(plan.tasks[0], FallbackJoinTask)

    def test_stage_seconds_and_task_counters_recorded(self, uniform_small):
        from repro.joins import PBSMJoin

        join = PBSMJoin()
        result = join.step(uniform_small)
        assert set(result.stats.stage_seconds) == {
            "prepare",
            "partition",
            "verify",
            "merge",
        }
        assert all(v >= 0.0 for v in result.stats.stage_seconds.values())
        assert result.stats.task_counters
        assert result.stats.overlap_tests == sum(
            c["overlap_tests"] for c in result.stats.task_counters
        )

    def test_thermal_phase_breakdown_sums_task_times(self, uniform_small):
        from repro.core import ThermalJoin

        join = ThermalJoin(resolution=1.0)
        result = join.step(uniform_small)
        phases = result.stats.phase_seconds
        assert set(phases) == {"building", "internal", "external"}
        assert all(v >= 0.0 for v in phases.values())

    def test_pairs_annotation_contract(self, uniform_small):
        from repro.joins import NestedLoopJoin

        materialised = NestedLoopJoin().step(uniform_small)
        assert isinstance(materialised.pairs, tuple)
        counted = NestedLoopJoin(count_only=True).step(uniform_small)
        assert counted.pairs is None
        assert counted.n_results == materialised.n_results

    def test_executor_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Executor().run([], {}, 1, False)


# ----------------------------------------------------------------------
# Accumulator support for parallel shards
# ----------------------------------------------------------------------
class TestAddCount:
    def test_add_count_in_count_only_mode(self):
        accumulator = PairAccumulator(4, count_only=True)
        accumulator.add_count(7)
        accumulator.add_count(3)
        assert len(accumulator) == 10

    def test_add_count_rejected_when_materialising(self):
        accumulator = PairAccumulator(4)
        with pytest.raises(RuntimeError):
            accumulator.add_count(1)
