"""Fault-injection suite: recovery must be invisible in the results.

The engine's robustness contract: an injected task exception, hang or
worker kill is survived by the executor — inline re-execution, pool
rebuild, or permanent degradation to thread/serial — and the recovered
step's pair set and overlap-test count are bit-identical to a clean
:class:`SerialExecutor` run.  No shared-memory
segment outlives a step, whatever the failure path.  The only trace of
a fault is the robustness event log in ``JoinStatistics.events``.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.core.thermal import TGridCellsTask
from repro.engine import (
    FaultPlan,
    InjectedFault,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    install_fault_plan,
    format_faults,
    parse_faults,
    publish_context,
)
from repro.engine import faults as faults_module
from repro.engine.executors import _LIVE_SEGMENTS
from repro.engine.faults import Fault, FaultyTask
from repro.geometry import pack_pairs, unique_pairs
from repro.joins import PlaneSweepJoin
from repro.joins.base import SpatialJoinAlgorithm
from repro.simulation import SimulationRunner


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """No fault plan leaks into (or out of) any test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    install_fault_plan(None)
    faults_module._env_cache = (None, None)
    yield
    install_fault_plan(None)
    faults_module._env_cache = (None, None)


def _shm_entries():
    """Names of live /dev/shm python segments (None off-Linux)."""
    root = pathlib.Path("/dev/shm")
    if not root.is_dir():
        return None
    return {entry.name for entry in root.iterdir() if entry.name.startswith("psm_")}


def _step_keys(result, n):
    return pack_pairs(*unique_pairs(*result.pairs, n), n)


@pytest.fixture(scope="module")
def dense_dataset():
    from repro.datasets import make_uniform_dataset

    return make_uniform_dataset(
        400, width=15.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=7
    )


@pytest.fixture(scope="module")
def serial_reference(dense_dataset):
    """Reference pair keys and overlap tests from a clean serial run."""
    result = ThermalJoin(resolution=1.0, executor=SerialExecutor()).step(
        dense_dataset
    )
    return _step_keys(result, len(dense_dataset)), result.stats.overlap_tests


def _thermal_tasks_per_step(dataset):
    probe = ThermalJoin(resolution=1.0)
    probe._build(dataset)
    return len(probe.plan(dataset).tasks)


# ----------------------------------------------------------------------
# Spec parsing and plan mechanics
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_directives(self):
        plan = parse_faults("raise@2, kill@7 ,hang@11:2.5")
        assert [(f.action, f.task, f.param) for f in plan.faults] == [
            ("raise", 2, None),
            ("kill", 7, None),
            ("hang", 11, 2.5),
        ]

    @pytest.mark.parametrize(
        "spec", ["explode@1", "raise", "raise@x", "raise@-1", "hang@1:soon"]
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_faults(spec)

    def test_parse_crashstep(self):
        plan = parse_faults("crashstep@4")
        assert [(f.action, f.task) for f in plan.faults] == [("crashstep", 4)]

    def test_crashstep_shares_spec_with_task_faults(self):
        # Same ordinal in *different* namespaces: step 3 and task 3.
        plan = parse_faults("raise@3,crashstep@3")
        assert len(plan.faults) == 2

    @pytest.mark.parametrize(
        "spec", ["raise@2,kill@2", "crashstep@1,crashstep@1", "raise@0,hang@0:1"]
    )
    def test_duplicate_ordinals_rejected(self, spec):
        with pytest.raises(ValueError, match="duplicate fault"):
            parse_faults(spec)

    @pytest.mark.parametrize(
        "spec", ["raise@2,kill@7,hang@11:2.5", "crashstep@4", "raise@0,crashstep@0"]
    )
    def test_format_faults_round_trips(self, spec):
        formatted = format_faults(parse_faults(spec))
        replayed = parse_faults(formatted)
        assert [
            (f.action, f.task, f.param) for f in replayed.faults
        ] == [(f.action, f.task, f.param) for f in parse_faults(spec).faults]
        # repr-based params survive a second trip exactly.
        assert format_faults(replayed) == formatted

    def test_crashstep_never_wraps_tasks(self):
        plan = parse_faults("crashstep@0")
        sentinel = object()
        assert plan.wrap(sentinel) is sentinel
        assert not plan.faults[0].fired

    def test_crash_after_step_fires_once(self):
        plan = parse_faults("crashstep@2")
        assert not plan.crash_after_step(1)
        assert plan.crash_after_step(2)
        # Spent: a resumed run sharing the plan does not re-crash.
        assert not plan.crash_after_step(2)

    def test_fault_fires_exactly_once(self):
        plan = FaultPlan([Fault(action="raise", task=1)])

        class Dummy:
            phase = "join"
            process_safe = True

        first, second = plan.wrap(Dummy()), plan.wrap(Dummy())
        assert not isinstance(first, FaultyTask)
        assert isinstance(second, FaultyTask)
        # Ordinal 1 comes around again only after reset.
        assert not isinstance(plan.wrap(Dummy()), FaultyTask)
        plan.reset()
        plan.wrap(Dummy())
        assert isinstance(plan.wrap(Dummy()), FaultyTask)

    def test_faulty_task_mirrors_scheduling_fields(self):
        class Dummy:
            phase = "external"
            process_safe = False

        wrapped = FaultyTask(Dummy(), "raise")
        assert wrapped.phase == "external"
        assert wrapped.process_safe is False
        with pytest.raises(InjectedFault):
            wrapped.run({}, None)

    def test_environment_plan_cached_and_refreshed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@0")
        plan = faults_module.active_plan()
        assert plan is faults_module.active_plan()  # state persists
        monkeypatch.setenv("REPRO_FAULTS", "raise@1")
        assert faults_module.active_plan() is not plan  # re-parsed

    def test_installed_plan_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@0")
        installed = install_fault_plan(FaultPlan())
        assert faults_module.active_plan() is installed


# ----------------------------------------------------------------------
# Serial and thread recovery
# ----------------------------------------------------------------------
class TestSerialAndThreadRecovery:
    def test_serial_retries_injected_raise(self, dense_dataset, serial_reference):
        keys, tests = serial_reference
        install_fault_plan(parse_faults("raise@0"))
        join = ThermalJoin(resolution=1.0, executor=SerialExecutor())
        result = join.step(dense_dataset)
        assert np.array_equal(_step_keys(result, len(dense_dataset)), keys)
        assert result.stats.overlap_tests == tests
        assert [e["kind"] for e in result.stats.events] == ["task_retry"]
        assert result.stats.task_retries == 1

    def test_thread_retries_injected_raise(self, dense_dataset, serial_reference):
        keys, tests = serial_reference
        install_fault_plan(parse_faults("raise@1"))
        executor = ThreadExecutor(3)
        result = ThermalJoin(resolution=1.0, executor=executor).step(dense_dataset)
        executor.close()
        assert np.array_equal(_step_keys(result, len(dense_dataset)), keys)
        assert result.stats.overlap_tests == tests
        assert result.stats.task_retries == 1

    def test_thread_hang_past_timeout_reruns_inline(self, uniform_small):
        serial = PlaneSweepJoin().step(uniform_small)
        install_fault_plan(parse_faults("hang@0:1.5"))
        executor = ThreadExecutor(2, task_timeout=0.2)
        result = PlaneSweepJoin(executor=executor).step(uniform_small)
        executor.close()
        n = len(uniform_small)
        assert np.array_equal(_step_keys(result, n), _step_keys(serial, n))
        assert result.stats.overlap_tests == serial.stats.overlap_tests
        assert "task_timeout" in [e["kind"] for e in result.stats.events]

    def test_thread_pool_is_persistent_until_close(self, uniform_small):
        executor = ThreadExecutor(2)
        assert executor._pool is None  # lazy
        join = PlaneSweepJoin(executor=executor)
        join.step(uniform_small)
        pool = executor._pool
        assert pool is not None
        join.step(uniform_small)
        assert executor._pool is pool  # reused across steps
        executor.close()
        assert executor._pool is None


# ----------------------------------------------------------------------
# Process recovery: the acceptance scenarios
# ----------------------------------------------------------------------
class TestProcessRecovery:
    def _assert_recovered(self, result, dataset, serial_reference):
        keys, tests = serial_reference
        assert np.array_equal(_step_keys(result, len(dataset)), keys)
        assert result.stats.overlap_tests == tests

    def test_injected_raise_retried_on_pool(self, dense_dataset, serial_reference):
        install_fault_plan(parse_faults("raise@2"))
        executor = ProcessExecutor(n_workers=2)
        result = ThermalJoin(resolution=1.0, executor=executor).step(dense_dataset)
        executor.close()
        self._assert_recovered(result, dense_dataset, serial_reference)
        kinds = [e["kind"] for e in result.stats.events]
        assert kinds == ["task_retry"]
        assert result.stats.task_retries == 1
        assert not _LIVE_SEGMENTS

    def test_hang_past_timeout_reruns_inline(self, dense_dataset, serial_reference):
        install_fault_plan(parse_faults("hang@1:1.5"))
        executor = ProcessExecutor(n_workers=2, task_timeout=0.25)
        result = ThermalJoin(resolution=1.0, executor=executor).step(dense_dataset)
        self._assert_recovered(result, dense_dataset, serial_reference)
        assert "task_timeout" in [e["kind"] for e in result.stats.events]
        executor.close()  # waits out the hung worker
        assert not _LIVE_SEGMENTS

    def test_worker_kill_rebuilds_pool(self, dense_dataset, serial_reference):
        before = _shm_entries()
        install_fault_plan(parse_faults("kill@1"))
        executor = ProcessExecutor(n_workers=2)
        result = ThermalJoin(resolution=1.0, executor=executor).step(dense_dataset)
        self._assert_recovered(result, dense_dataset, serial_reference)
        kinds = [e["kind"] for e in result.stats.events]
        assert "pool_broken" in kinds and "pool_rebuild" in kinds
        assert executor.degraded is None  # one rebuild is tolerated
        executor.close()
        assert not _LIVE_SEGMENTS
        after = _shm_entries()
        if before is not None:
            assert after - before == set()

    def test_repeated_kills_degrade_to_thread(self, dense_dataset, serial_reference):
        n_tasks = _thermal_tasks_per_step(dense_dataset)
        install_fault_plan(parse_faults(f"kill@1,kill@{n_tasks + 1}"))
        executor = ProcessExecutor(n_workers=2)
        join = ThermalJoin(resolution=1.0, executor=executor)

        first = join.step(dense_dataset)  # kill -> pool rebuilt once
        self._assert_recovered(first, dense_dataset, serial_reference)
        assert executor.degraded is None

        second = join.step(dense_dataset)  # kill again -> permanent downgrade
        self._assert_recovered(second, dense_dataset, serial_reference)
        assert executor.degraded == "thread"
        kinds = [e["kind"] for e in second.stats.events]
        assert "pool_broken" in kinds and "degraded" in kinds
        downgrade = next(e for e in second.stats.events if e["kind"] == "degraded")
        assert downgrade["to"] == "thread"

        install_fault_plan(None)
        third = join.step(dense_dataset)  # rest of the run stays on threads
        self._assert_recovered(third, dense_dataset, serial_reference)
        assert executor.degraded == "thread"
        assert third.stats.events == []
        executor.close()
        assert not _LIVE_SEGMENTS

    def test_failing_thread_step_drops_to_serial(self, dense_dataset, serial_reference):
        # Two kills put the executor on the thread rung; with no retry
        # budget a raise there fails the thread step, which re-runs
        # serially and leaves the executor on the serial rung.
        n_tasks = _thermal_tasks_per_step(dense_dataset)
        install_fault_plan(
            parse_faults(f"kill@1,kill@{n_tasks + 1},raise@{2 * n_tasks + 1}")
        )
        executor = ProcessExecutor(n_workers=2, max_retries=0)
        join = ThermalJoin(resolution=1.0, executor=executor)
        join.step(dense_dataset)
        join.step(dense_dataset)
        assert executor.degraded == "thread"

        third = join.step(dense_dataset)
        self._assert_recovered(third, dense_dataset, serial_reference)
        assert executor.degraded == "serial"
        downgrades = [e for e in third.stats.events if e["kind"] == "degraded"]
        assert [e["to"] for e in downgrades] == ["serial"]
        assert "InjectedFault" in downgrades[0]["error"]

        install_fault_plan(None)
        fourth = join.step(dense_dataset)  # the rest of the run stays serial
        self._assert_recovered(fourth, dense_dataset, serial_reference)
        assert fourth.stats.events == []
        executor.close()
        assert not _LIVE_SEGMENTS

    def test_finalizer_never_joins_the_pool(self, dense_dataset, monkeypatch):
        # The garbage collector can run the finalizer inside threading's
        # own bookkeeping, where joining the pool's threads deadlocks; it
        # may only signal the shutdown.
        executor = ProcessExecutor(n_workers=2)
        ThermalJoin(resolution=1.0, executor=executor).step(dense_dataset)
        pool = executor._pool
        waits = []
        real_shutdown = pool.shutdown

        def shutdown(wait=True, **kwargs):
            waits.append(wait)
            real_shutdown(wait=wait, **kwargs)

        monkeypatch.setattr(pool, "shutdown", shutdown)
        executor.__del__()
        assert waits == [False]
        executor.close()
        assert not _LIVE_SEGMENTS

    def test_count_only_recovery_matches_serial(self, dense_dataset):
        serial = ThermalJoin(resolution=1.0, count_only=True).step(dense_dataset)
        install_fault_plan(parse_faults("raise@1"))
        executor = ProcessExecutor(n_workers=2)
        recovered = ThermalJoin(
            resolution=1.0, count_only=True, executor=executor
        ).step(dense_dataset)
        executor.close()
        assert recovered.n_results == serial.n_results
        assert recovered.stats.overlap_tests == serial.stats.overlap_tests

    def test_genuine_persistent_failure_still_propagates(self, uniform_small):
        # Injected faults fire once, so retries rescue them; a task that
        # fails deterministically on *every* attempt must still surface
        # instead of being swallowed by the retry machinery.
        class BuggyJoin(SpatialJoinAlgorithm):
            name = "buggy"

            def _build(self, dataset):
                pass

            def _join(self, dataset, accumulator):
                raise ValueError("deterministic bug")

            def memory_footprint(self):
                return 0

        with pytest.raises(ValueError, match="deterministic bug"):
            BuggyJoin(executor=SerialExecutor()).step(uniform_small)


# ----------------------------------------------------------------------
# The T-Grid task: a pure function of the context, counted once
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixed_dataset():
    """Dense cells of mixed object widths: T-Grids next to budget fallbacks."""
    from repro.datasets import make_uniform_dataset

    return make_uniform_dataset(
        900, width_range=(2.0, 10.0), bounds=(np.zeros(3), np.full(3, 50.0)), seed=11
    )


def _tgrid_join(executor=None):
    return ThermalJoin(resolution=2.0, executor=executor)


def _tgrid_ordinal(dataset):
    """Launch ordinal of the step's first T-Grid task."""
    probe = _tgrid_join(SerialExecutor())
    probe._build(dataset)
    tasks = probe.plan(dataset).tasks
    return next(k for k, task in enumerate(tasks) if isinstance(task, TGridCellsTask))


def _tgrid_outcome(join, result, n):
    return {
        "keys": _step_keys(result, n),
        "overlap_tests": result.stats.overlap_tests,
        "info": {
            key: value
            for key, value in join.last_step_info.items()
            if key != "resolution"
        },
        "tgrid": join.metrics.snapshot()["tgrid"],
    }


@pytest.fixture(scope="module")
def tgrid_reference(mixed_dataset):
    join = _tgrid_join(SerialExecutor())
    outcome = _tgrid_outcome(join, join.step(mixed_dataset), len(mixed_dataset))
    assert outcome["tgrid"]["fallbacks"] > 0 and outcome["tgrid"]["peak_cells"] > 0
    return outcome


class TestTGridTask:
    def _assert_same(self, outcome, reference):
        assert np.array_equal(outcome["keys"], reference["keys"])
        assert outcome["overlap_tests"] == reference["overlap_tests"]
        assert outcome["info"] == reference["info"]
        assert outcome["tgrid"] == reference["tgrid"]

    def test_process_pool_matches_serial(self, mixed_dataset, tgrid_reference):
        assert TGridCellsTask.process_safe
        executor = ProcessExecutor(n_workers=2)
        join = _tgrid_join(executor)
        result = join.step(mixed_dataset)
        executor.close()
        self._assert_same(_tgrid_outcome(join, result, len(mixed_dataset)), tgrid_reference)

    def test_worker_kill_on_tgrid_task_recovers(self, mixed_dataset, tgrid_reference):
        install_fault_plan(parse_faults(f"kill@{_tgrid_ordinal(mixed_dataset)}"))
        executor = ProcessExecutor(n_workers=2)
        join = _tgrid_join(executor)
        result = join.step(mixed_dataset)
        assert "pool_broken" in [e["kind"] for e in result.stats.events]
        executor.close()
        assert not _LIVE_SEGMENTS
        self._assert_same(_tgrid_outcome(join, result, len(mixed_dataset)), tgrid_reference)

    def test_abandoned_attempt_counts_fallbacks_once(self, mixed_dataset, tgrid_reference):
        # The timed-out attempt is re-run inline, but its pool thread
        # keeps going and finishes later; it must not touch the join's
        # diagnostics when it does.
        install_fault_plan(parse_faults(f"hang@{_tgrid_ordinal(mixed_dataset)}:1.0"))
        executor = ThreadExecutor(2, task_timeout=0.3)
        join = _tgrid_join(executor)
        result = join.step(mixed_dataset)
        assert "task_timeout" in [e["kind"] for e in result.stats.events]
        executor.close()  # waits for the abandoned attempt to finish
        self._assert_same(_tgrid_outcome(join, result, len(mixed_dataset)), tgrid_reference)


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
class TestSharedMemoryLifecycle:
    def test_partial_publication_unlinks_created_segments(self, monkeypatch):
        import multiprocessing.shared_memory as shm_mod

        real = shm_mod.SharedMemory
        created = []
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            if kwargs.get("create"):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise OSError("injected ENOSPC")
            segment = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        monkeypatch.setattr(shm_mod, "SharedMemory", flaky)
        ctx = {
            "a": np.arange(16, dtype=np.float64),
            "b": np.arange(8, dtype=np.float64),
            "c": np.arange(4, dtype=np.float64),
        }
        with pytest.raises(OSError):
            with publish_context(ctx):
                pytest.fail("publication must not succeed")
        monkeypatch.undo()
        assert created  # the first segment *was* created ...
        assert not _LIVE_SEGMENTS  # ... and no segment survived
        for name in created:
            with pytest.raises(FileNotFoundError):
                shm_mod.SharedMemory(name=name)

    def test_publish_context_unlinks_on_clean_exit(self):
        import multiprocessing.shared_memory as shm_mod

        ctx = {"a": np.arange(10, dtype=np.float64)}
        with publish_context(ctx) as specs:
            name = specs["a"][0]
            assert name in _LIVE_SEGMENTS
        assert not _LIVE_SEGMENTS
        with pytest.raises(FileNotFoundError):
            shm_mod.SharedMemory(name=name)

    def test_atexit_sweep_releases_registered_segments(self):
        import multiprocessing.shared_memory as shm_mod

        from repro.engine.executors import _sweep_shared_memory

        segment = shm_mod.SharedMemory(create=True, size=64)
        _LIVE_SEGMENTS[segment.name] = segment
        _sweep_shared_memory()
        assert not _LIVE_SEGMENTS
        with pytest.raises(FileNotFoundError):
            shm_mod.SharedMemory(name=segment.name)


# ----------------------------------------------------------------------
# Simulation runner: step failure and robustness surfacing
# ----------------------------------------------------------------------
class _ExplodingJoin(SpatialJoinAlgorithm):
    """Raises at a chosen step, past any executor recovery.

    ``persistent=True`` keeps raising on every later call too, so the
    runner's from-scratch step retry fails as well and the run ends
    with ``failed_step``; the default raises exactly once, which the
    escalation path recovers from.
    """

    name = "exploding"

    def __init__(self, fail_at, persistent=False):
        super().__init__(executor=SerialExecutor())
        self.fail_at = fail_at
        self.persistent = persistent
        self.calls = 0

    def _build(self, dataset):
        pass

    def plan(self, dataset):
        step, self.calls = self.calls, self.calls + 1
        if step == self.fail_at or (self.persistent and step > self.fail_at):
            raise RuntimeError("irrecoverable step failure")
        return super().plan(dataset)

    def _join(self, dataset, accumulator):
        return 0

    def memory_footprint(self):
        return 0


class TestRunnerRobustness:
    def test_transient_step_failure_recovers_via_retry(self, uniform_small):
        # One raise past executor recovery: the runner discards the
        # algorithm's cross-step state and re-runs the step from
        # scratch; the run completes with a step_retry event.
        runner = SimulationRunner(uniform_small, None, _ExplodingJoin(fail_at=2))
        records = runner.run(5)
        assert runner.failed_step is None
        assert runner.failure is None
        assert [record.step for record in records] == [0, 1, 2, 3, 4]
        retried = [e for e in records[2].events if e["kind"] == "step_retry"]
        assert len(retried) == 1
        assert "irrecoverable step failure" in retried[0]["error"]
        assert all(
            e["kind"] != "step_retry"
            for record in records
            if record.step != 2
            for e in record.events
        )

    def test_persistent_step_failure_stops_cleanly(self, uniform_small):
        runner = SimulationRunner(
            uniform_small, None, _ExplodingJoin(fail_at=2, persistent=True)
        )
        records = runner.run(5)
        assert runner.failed_step == 2
        assert isinstance(runner.failure, RuntimeError)
        assert runner.timed_out is False
        # The formatted traceback is preserved for figures/reports.
        assert "irrecoverable step failure" in runner.failure_traceback
        assert "Traceback" in runner.failure_traceback
        # Every record belongs to a *completed* step — none half-written.
        assert [record.step for record in records] == [0, 1]

    def test_clean_run_has_no_failure(self, uniform_small):
        runner = SimulationRunner(uniform_small, None, PlaneSweepJoin())
        runner.run(2)
        assert runner.failed_step is None
        assert runner.failure is None
        assert runner.degraded_steps() == []
        assert runner.total_task_retries() == 0

    def test_records_surface_retries_and_degradation(self, dense_dataset):
        n_tasks = _thermal_tasks_per_step(dense_dataset)
        install_fault_plan(
            parse_faults(f"raise@1,kill@{n_tasks + 1},kill@{2 * n_tasks + 1}")
        )
        executor = ProcessExecutor(n_workers=2)
        runner = SimulationRunner(
            dense_dataset, None, ThermalJoin(resolution=1.0, executor=executor)
        )
        records = runner.run(4)
        executor.close()
        assert runner.failed_step is None
        assert records[0].task_retries == 1 and not records[0].degraded
        assert records[1].degraded  # pool broke and was rebuilt
        assert records[2].degraded  # pool broke again: downgraded to thread
        assert records[3].events == [] and not records[3].degraded
        assert runner.degraded_steps() == [1, 2]
        assert runner.total_task_retries() >= 1
        assert not _LIVE_SEGMENTS
        # All four steps joined the same static dataset: identical counts.
        assert len({record.n_results for record in records}) == 1
        assert len({record.overlap_tests for record in records}) == 1
