"""Regression tests for executor timeout and retry budgets.

Covers the three executor bugfixes:

* ``task_timeout`` is one *shared per-step deadline*: two hung tasks
  are both abandoned within a single budget instead of serialising
  N × timeout waits (the timing assertions fail against the pre-fix
  per-wait semantics);
* ``Executor._attempt_inline`` honours ``max_retries`` instead of
  retrying exactly once, and so does a task that fails on the thread
  pool;
* ``resolve_executor`` spec strings pick up
  ``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES`` and the budgets
  round-trip through ``repr``.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.engine import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    install_fault_plan,
    parse_faults,
    resolve_executor,
)
from repro.engine import faults as faults_module
from repro.geometry import pack_pairs, unique_pairs


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    install_fault_plan(None)
    faults_module._env_cache = (None, None)
    yield
    install_fault_plan(None)
    faults_module._env_cache = (None, None)


@pytest.fixture(scope="module")
def dense_dataset():
    from repro.datasets import make_uniform_dataset

    return make_uniform_dataset(
        400, width=15.0, bounds=(np.zeros(3), np.full(3, 120.0)), seed=7
    )


@pytest.fixture(scope="module")
def serial_keys(dense_dataset):
    result = ThermalJoin(resolution=1.0).step(dense_dataset)
    n = len(dense_dataset)
    return pack_pairs(*unique_pairs(*result.pairs, n), n)


class FlakyTask:
    """Minimal JoinTask that fails its first ``failures`` attempts."""

    phase = "join"
    process_safe = False

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.attempts = 0

    def run(self, ctx, accumulator):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise RuntimeError(f"injected failure #{self.attempts}")
        return {"overlap_tests": 0}


class FileFlakyTask:
    """Process-safe JoinTask that fails its first ``failures`` attempts.

    Attempts are counted as bytes appended to ``path``, so the count
    holds across the worker processes a pool retry may land on.
    """

    phase = "join"
    process_safe = True

    def __init__(self, path, failures: int) -> None:
        self.path = str(path)
        self.failures = failures

    @property
    def attempts(self) -> int:
        try:
            with open(self.path, "rb") as handle:
                return len(handle.read())
        except FileNotFoundError:
            return 0

    def run(self, ctx, accumulator):
        with open(self.path, "ab") as handle:
            handle.write(b"x")
        attempt = self.attempts
        if attempt <= self.failures:
            raise RuntimeError(f"injected failure #{attempt}")
        return {"overlap_tests": 0}


# ----------------------------------------------------------------------
# Shared per-step deadline (pre-fix: each wait got its own timeout)
# ----------------------------------------------------------------------
class TestSharedDeadline:
    TIMEOUT = 0.75
    HANG = 2.5

    def _assert_one_budget(self, executor, dense_dataset, serial_keys):
        """Two hung tasks must both be abandoned within ONE budget.

        Pre-fix semantics wait ``task_timeout`` per hung future, so the
        step blocks for at least ``2 × TIMEOUT`` — the elapsed bound
        below fails against that code.
        """
        install_fault_plan(parse_faults(f"hang@0:{self.HANG},hang@1:{self.HANG}"))
        join = ThermalJoin(resolution=1.0, executor=executor)
        started = time.monotonic()
        result = join.step(dense_dataset)
        elapsed = time.monotonic() - started
        n = len(dense_dataset)
        assert np.array_equal(
            pack_pairs(*unique_pairs(*result.pairs, n), n), serial_keys
        )
        kinds = [e["kind"] for e in result.stats.events]
        assert kinds.count("task_timeout") >= 2
        assert elapsed < 2 * self.TIMEOUT * 0.95, (
            f"step took {elapsed:.2f}s: hung tasks were waited for "
            f"sequentially instead of sharing one {self.TIMEOUT}s deadline"
        )

    def test_thread_hangs_share_one_deadline(self, dense_dataset, serial_keys):
        executor = ThreadExecutor(2, task_timeout=self.TIMEOUT)
        try:
            self._assert_one_budget(executor, dense_dataset, serial_keys)
        finally:
            executor.close()  # the hung threads finish in the background

    def test_process_hangs_share_one_deadline(self, dense_dataset, serial_keys):
        executor = ProcessExecutor(n_workers=2, task_timeout=self.TIMEOUT)
        try:
            self._assert_one_budget(executor, dense_dataset, serial_keys)
        finally:
            executor.close()

    def test_no_timeout_means_no_deadline(self):
        executor = SerialExecutor()
        assert executor.task_timeout is None
        assert executor._step_deadline() is None


class TestAbandonedTasks:
    def test_close_does_not_wait_on_an_abandoned_process_task(
        self, dense_dataset, serial_keys
    ):
        # The step abandons the hung task at its deadline; its pool goes
        # with it, so close() has nothing left to wait for.
        before = set(multiprocessing.active_children())
        install_fault_plan(parse_faults("hang@1:4"))
        executor = ProcessExecutor(n_workers=2, task_timeout=0.25)
        result = ThermalJoin(resolution=1.0, executor=executor).step(dense_dataset)
        n = len(dense_dataset)
        assert np.array_equal(pack_pairs(*unique_pairs(*result.pairs, n), n), serial_keys)
        assert [e["kind"] for e in result.stats.events] == ["task_timeout"]
        started = time.monotonic()
        executor.close()
        assert time.monotonic() - started < 1.0
        assert set(multiprocessing.active_children()) <= before


# ----------------------------------------------------------------------
# Inline retry budgets (pre-fix: always exactly one retry)
# ----------------------------------------------------------------------
class TestInlineRetryBudget:
    def test_inline_retries_up_to_budget(self):
        executor = SerialExecutor(max_retries=3)
        task = FlakyTask(failures=3)
        results = executor.run([task], {}, 1, False)
        assert len(results) == 1
        assert task.attempts == 4  # first launch + three retries
        events = executor.drain_events()
        assert [e["kind"] for e in events] == ["task_retry"] * 3
        assert [e["task"] for e in events] == [0, 0, 0]

    def test_inline_budget_exhaustion_raises_last_error(self):
        executor = SerialExecutor(max_retries=2)
        task = FlakyTask(failures=10)
        with pytest.raises(RuntimeError, match="injected failure #3"):
            executor.run([task], {}, 1, False)
        assert task.attempts == 3  # first launch + two retries, then give up
        assert [e["kind"] for e in executor.drain_events()] == ["task_retry"] * 2

    def test_inline_zero_retries_fails_fast(self):
        executor = SerialExecutor(max_retries=0)
        task = FlakyTask(failures=1)
        with pytest.raises(RuntimeError, match="injected failure #1"):
            executor.run([task], {}, 1, False)
        assert task.attempts == 1
        assert executor.drain_events() == []

    def test_inline_success_after_multiple_retries_matches_direct_run(self):
        # Regression: pre-fix code raised after one retry even with a
        # larger configured budget.
        executor = SerialExecutor(max_retries=2)
        task = FlakyTask(failures=2)
        results = executor.run([task], {}, 1, False)
        assert results[0].counters == {"overlap_tests": 0}
        assert task.attempts == 3


# ----------------------------------------------------------------------
# Pool retry budget (pre-fix: a task failing on the thread pool got
# exactly one inline re-run, whatever max_retries said)
# ----------------------------------------------------------------------
_BUDGET_EXECUTORS = {
    "serial": lambda retries: SerialExecutor(max_retries=retries),
    "thread:2": lambda retries: ThreadExecutor(2, max_retries=retries),
    "process:2": lambda retries: ProcessExecutor(2, max_retries=retries),
}


@pytest.mark.parametrize("spec", sorted(_BUDGET_EXECUTORS))
class TestPoolRetryBudget:
    """Every executor gives a failing task the same retry budget.

    Two process-safe tasks and a context to publish, so the thread and
    process executors run them on their pools; the first fails its
    first ``failures`` attempts.  A process executor used to run such a
    task inline once more after spending the budget on the pool.
    """

    def _run(self, spec, retries, failures, tmp_path):
        executor = _BUDGET_EXECUTORS[spec](retries)
        task = FileFlakyTask(tmp_path / "attempts", failures=failures)
        other = FileFlakyTask(tmp_path / "other", failures=0)
        ctx = {"unused": np.zeros(1)}
        try:
            return executor, task, executor.run([task, other], ctx, 1, False)
        finally:
            executor.close()

    def test_zero_retries_fails_fast(self, spec, tmp_path):
        with pytest.raises(RuntimeError, match="injected failure #1"):
            self._run(spec, retries=0, failures=1, tmp_path=tmp_path)
        assert FileFlakyTask(tmp_path / "attempts", 0).attempts == 1

    def test_one_retry_runs_the_task_twice(self, spec, tmp_path):
        with pytest.raises(RuntimeError, match="injected failure #2"):
            self._run(spec, retries=1, failures=10, tmp_path=tmp_path)
        assert FileFlakyTask(tmp_path / "attempts", 0).attempts == 2

    def test_retries_up_to_budget(self, spec, tmp_path):
        executor, task, results = self._run(
            spec, retries=3, failures=3, tmp_path=tmp_path
        )
        assert task.attempts == 4  # first launch + three retries
        assert [r.counters for r in results] == [{"overlap_tests": 0}] * 2
        events = executor.drain_events()
        assert [(e["kind"], e["task"]) for e in events] == [("task_retry", 0)] * 3

    def test_budget_exhaustion_raises_last_error(self, spec, tmp_path):
        with pytest.raises(RuntimeError, match="injected failure #3"):
            self._run(spec, retries=2, failures=10, tmp_path=tmp_path)
        assert FileFlakyTask(tmp_path / "attempts", 0).attempts == 3


# ----------------------------------------------------------------------
# Environment plumbing and repr round-trips
# ----------------------------------------------------------------------
class TestBudgetEnvPlumbing:
    def test_spec_strings_honour_env_budgets(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        executor = resolve_executor("thread:2")
        assert isinstance(executor, ThreadExecutor)
        assert executor.n_workers == 2
        assert executor.task_timeout == 1.5
        assert executor.max_retries == 3

    def test_serial_spec_honours_env_budgets(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "4")
        executor = resolve_executor("serial")
        assert isinstance(executor, SerialExecutor)
        assert executor.max_retries == 4

    def test_process_spec_honours_env_budgets(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.25")
        executor = resolve_executor("process:2")
        assert isinstance(executor, ProcessExecutor)
        assert executor.task_timeout == 0.25
        executor.close()

    def test_instances_pass_through_unchanged(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "9.0")
        executor = SerialExecutor(max_retries=2)
        assert resolve_executor(executor) is executor
        assert executor.task_timeout is None

    @pytest.mark.parametrize(
        "var,value",
        [
            ("REPRO_TASK_TIMEOUT", "soon"),
            ("REPRO_TASK_RETRIES", "many"),
            ("REPRO_TASK_RETRIES", "1.5"),
        ],
    )
    def test_invalid_env_values_name_the_variable(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=var):
            resolve_executor("serial")

    def test_blank_env_values_are_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "  ")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "")
        executor = resolve_executor("serial")
        assert executor.task_timeout is None
        assert executor.max_retries == 1

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SerialExecutor(max_retries=3, task_timeout=2.0),
            lambda: ThreadExecutor(2, max_retries=2, task_timeout=0.5),
            lambda: ProcessExecutor(n_workers=2, max_retries=0, task_timeout=1.25),
        ],
    )
    def test_repr_round_trips_budgets(self, factory):
        executor = factory()
        namespace = {
            "SerialExecutor": SerialExecutor,
            "ThreadExecutor": ThreadExecutor,
            "ProcessExecutor": ProcessExecutor,
        }
        clone = eval(repr(executor), namespace)
        try:
            assert type(clone) is type(executor)
            assert clone.max_retries == executor.max_retries
            assert clone.task_timeout == executor.task_timeout
            assert getattr(clone, "n_workers", None) == getattr(
                executor, "n_workers", None
            )
        finally:
            clone.close()
            executor.close()
