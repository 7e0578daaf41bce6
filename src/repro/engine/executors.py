"""Pluggable task executors: serial, thread pool, process pool.

An executor schedules a plan's tasks and returns one
:class:`~repro.engine.plan.TaskResult` per task, in task order.  Every
task emits into a private :class:`~repro.geometry.PairAccumulator`
shard, so scheduling never changes the merged result — executors differ
only in wall-clock behaviour:

``SerialExecutor``
    Runs tasks in order on the calling thread.  The default, and the
    reference for the statistics every other executor must reproduce.
``ThreadExecutor``
    A persistent ``ThreadPoolExecutor`` (created lazily, released in
    ``close()``); the numpy kernels behind the verify stage release the
    GIL on their bulk operations, so independent tasks overlap on
    multi-core machines.
``ProcessExecutor``
    A ``ProcessPoolExecutor`` over a persistent worker pool.  The plan's
    context arrays (the MBR coordinate and grouping arrays) are published
    once per step through :mod:`multiprocessing.shared_memory`; workers
    attach and cache them for the step, so each task ships only its own
    small index arrays.  Tasks that are not ``process_safe`` (closures
    over live index objects) run inline in the parent.

Fault tolerance
---------------
Tasks are pure functions of the plan's context, so they are retryable
units.  Every executor records robustness *events* (drained into
:class:`~repro.joins.base.JoinStatistics.events` by the step driver):

* a failed task is retried — on the pool for ``ProcessExecutor``, then
  re-executed inline in the parent as a last resort, so a transient
  worker fault never changes the merged pair set;
* ``task_timeout`` is a shared per-step budget: one deadline is taken
  when the step's waits begin and every pooled wait draws on the
  remaining budget, so a slow task queued behind another slow task
  cannot stretch a step to N×timeout.  A task still pending at the
  deadline is abandoned and re-run inline (its late result, if any,
  is discarded);
* ``ProcessExecutor`` climbs a degradation ladder on
  ``BrokenProcessPool``: rebuild the pool once, then permanently
  degrade to thread execution, and to serial if threads fail too —
  recording each downgrade;
* shared-memory publication is a context manager that unlinks every
  segment on *any* exit path (including mid-publication exceptions and
  worker crashes), backed by an ``atexit`` sweep of still-live
  segments.

Injected faults (:mod:`repro.engine.faults`, ``REPRO_FAULTS``) are
applied at first launch only; retries always re-run the original task.

Selection
---------
``resolve_executor`` accepts an :class:`Executor` instance, a spec
string (``"serial"``, ``"thread"``, ``"thread:4"``, ``"process"``,
``"process:2"``), or ``None`` — which falls back to the
``REPRO_EXECUTOR`` environment variable and finally to serial.  Spec
strings additionally honour ``REPRO_TASK_TIMEOUT`` (step timeout
budget, seconds) and ``REPRO_TASK_RETRIES`` (retry budget), so pooled
runs selected purely through the environment get working timeouts.
"""

from __future__ import annotations

import atexit
import os
import time
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine import faults
from repro.engine.plan import JoinTask, TaskResult

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from repro.geometry import PairAccumulator

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "publish_context",
    "resolve_executor",
]

#: Environment variable naming the default executor spec.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Environment variable holding the per-step timeout budget (seconds)
#: applied to executors resolved from spec strings.
TASK_TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"

#: Environment variable holding the task retry budget applied to
#: executors resolved from spec strings.
TASK_RETRIES_ENV_VAR = "REPRO_TASK_RETRIES"

#: Attach spec for one published context array: (segment name, shape, dtype str).
ContextSpec = tuple[str, tuple[int, ...], str]

#: Picklable result tuple returned by :func:`_process_worker`.
WorkerPayload = tuple[
    dict[str, Any], float, int, "tuple[np.ndarray, np.ndarray] | None", str, float
]


def _run_inline(task: JoinTask, ctx: Mapping[str, np.ndarray], count_only: bool) -> TaskResult:
    accumulator = PairAccumulator(count_only=count_only)
    t0 = time.perf_counter()
    c0 = time.process_time()
    counters = task.run(ctx, accumulator)
    cpu_seconds = time.process_time() - c0
    seconds = time.perf_counter() - t0
    return TaskResult(
        counters=counters,
        seconds=seconds,
        n_pairs=len(accumulator),
        accumulator=accumulator,
        phase=task.phase,
        cpu_seconds=cpu_seconds,
    )


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
#: Parent-side registry of live shared-memory segments, swept at exit so
#: no failure path (not even an unhandled KeyboardInterrupt mid-step)
#: leaks /dev/shm space.
_LIVE_SEGMENTS = {}


def _sweep_shared_memory() -> None:  # pragma: no cover - exercised at interpreter exit
    for name in list(_LIVE_SEGMENTS):
        segment = _LIVE_SEGMENTS.pop(name, None)
        if segment is None:
            continue
        with suppress(OSError, BufferError):
            segment.close()
        with suppress(OSError):
            segment.unlink()


atexit.register(_sweep_shared_memory)


@contextmanager
def publish_context(ctx: Mapping[str, np.ndarray]) -> Iterator[dict[str, ContextSpec]]:
    """Copy context arrays into shared memory; yield the attach specs.

    Guarantees lifecycle: every segment created — including a partial
    set when a later ``SharedMemory(create=True)`` call raises — is
    registered in the atexit-swept live-segment registry and is closed
    and unlinked on exit, whatever the exit path (normal step
    completion, worker crash, timeout, or a publication error).
    Workers attach the segments as read-only views
    (:func:`_attach_context`).
    """
    from multiprocessing import shared_memory

    specs: dict[str, ContextSpec] = {}
    segments = []
    try:
        for key, array in ctx.items():
            array = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(
                create=True, size=max(array.nbytes, 1)
            )
            segments.append(segment)
            _LIVE_SEGMENTS[segment.name] = segment
            # A temporary view: no parent-side export outlives the copy,
            # so every segment can be closed on exit.
            np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)[...] = array
            specs[key] = (segment.name, array.shape, array.dtype.str)
        yield specs
    finally:
        for segment in segments:
            _LIVE_SEGMENTS.pop(segment.name, None)
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


class Executor:
    """Scheduling strategy for a plan's independent join tasks.

    Parameters
    ----------
    max_retries:
        Scheduled re-attempts for a failed task before the inline
        last resort (pool executors) or before the failure propagates.
    task_timeout:
        Wall-clock budget in seconds shared by all of a step's pooled
        waits; ``None`` (default) disables timeouts.  The deadline is
        taken once when the step starts waiting, so N queued slow
        tasks are bounded by one budget, not N of them.  A task still
        pending at the deadline is re-run inline in the parent and its
        late result discarded.
    """

    name = "abstract"

    def __init__(self, max_retries: int = 1, task_timeout: float | None = None) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        self.max_retries = int(max_retries)
        self.task_timeout = task_timeout
        self._events = []

    def run(self, tasks: Sequence[JoinTask], ctx: Mapping[str, np.ndarray], count_only: bool) -> list[TaskResult]:
        """Execute ``tasks`` against ``ctx``; return ordered TaskResults."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (no-op for poolless executors)."""

    # ------------------------------------------------------------------
    # Robustness event log
    # ------------------------------------------------------------------
    def _record_event(self, kind: str, **info: Any) -> None:
        self._events.append({"kind": kind, **info})

    def drain_events(self) -> list[dict[str, Any]]:
        """Return and clear the robustness events since the last drain."""
        events, self._events = self._events, []
        return events

    def _attempt_inline(
        self,
        task: JoinTask,
        original: JoinTask,
        ctx: Mapping[str, np.ndarray],
        count_only: bool,
        index: int,
    ) -> TaskResult:
        """Run ``task`` inline, honouring the configured retry budget.

        ``task`` may be a fault-wrapped first launch; retries always use
        ``original`` so a spent injected fault cannot re-fire.  One
        ``task_retry`` event is recorded per re-attempt; a task still
        failing once ``max_retries`` re-attempts are spent propagates —
        genuine, deterministic task bugs must still surface.
        """
        try:
            return _run_inline(task, ctx, count_only)
        except Exception as exc:
            error = exc
        for _ in range(self.max_retries):
            self._record_event("task_retry", task=index, error=repr(error))
            try:
                return _run_inline(original, ctx, count_only)
            except Exception as exc:
                error = exc
        raise error

    def _step_deadline(self) -> float | None:
        """The shared deadline for one step's pooled waits.

        Taken once per step: every subsequent wait passes the remaining
        budget (:func:`_remaining_budget`), so a slow task queued behind
        another slow task is abandoned within the same ``task_timeout``
        window instead of restarting the clock at its own ``.result()``
        call.
        """
        if self.task_timeout is None:
            return None
        return time.monotonic() + self.task_timeout

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(max_retries={self.max_retries}, "
            f"task_timeout={self.task_timeout})"
        )


class SerialExecutor(Executor):
    """Run every task in order on the calling thread."""

    name = "serial"

    def run(self, tasks: Sequence[JoinTask], ctx: Mapping[str, np.ndarray], count_only: bool) -> list[TaskResult]:
        launched = faults.wrap_tasks(tasks)
        return [
            self._attempt_inline(launched[k], tasks[k], ctx, count_only, k)
            for k in range(len(tasks))
        ]


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


def _remaining_budget(deadline: float | None) -> float | None:
    """Seconds left until ``deadline``, floored at zero; ``None`` means
    no limit.  A zero budget makes ``Future.result`` raise immediately
    for any task that has not already finished."""
    if deadline is None:
        return None
    return max(deadline - time.monotonic(), 0.0)


class ThreadExecutor(Executor):
    """Run tasks on a persistent thread pool (GIL-releasing numpy kernels
    overlap).

    The pool is created lazily on first use and kept across steps —
    matching ``ProcessExecutor``'s pool reuse instead of paying pool
    startup every simulation step — and released in :meth:`close`.  A
    failed task is re-run inline in the parent; a task exceeding
    ``task_timeout`` is abandoned on its pool thread and re-run inline
    (the stray thread's late result is discarded).
    """

    name = "thread"

    def __init__(
        self,
        n_workers: int | None = None,
        max_retries: int = 1,
        task_timeout: float | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, got {n_workers}")
        super().__init__(max_retries=max_retries, task_timeout=task_timeout)
        self.n_workers = int(n_workers) if n_workers else _default_workers()
        self._pool = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def run(self, tasks: Sequence[JoinTask], ctx: Mapping[str, np.ndarray], count_only: bool) -> list[TaskResult]:
        return self._run_tasks(faults.wrap_tasks(tasks), tasks, ctx, count_only)

    def _run_tasks(
        self,
        launched: Sequence[JoinTask],
        tasks: Sequence[JoinTask],
        ctx: Mapping[str, np.ndarray],
        count_only: bool,
    ) -> list[TaskResult]:
        if len(tasks) < 2 or self.n_workers < 2:
            return [
                self._attempt_inline(launched[k], tasks[k], ctx, count_only, k)
                for k in range(len(tasks))
            ]
        import concurrent.futures as cf

        pool = self._ensure_pool()
        futures = [
            pool.submit(_run_inline, launched[k], ctx, count_only)
            for k in range(len(tasks))
        ]
        deadline = self._step_deadline()
        results = []
        for k, future in enumerate(futures):
            try:
                results.append(future.result(timeout=_remaining_budget(deadline)))
            except (cf.TimeoutError, TimeoutError):
                self._record_event(
                    "task_timeout", task=k, timeout=self.task_timeout
                )
                results.append(_run_inline(tasks[k], ctx, count_only))
            except Exception as exc:
                self._record_event("task_retry", task=k, error=repr(exc))
                results.append(_run_inline(tasks[k], ctx, count_only))
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return (
            f"ThreadExecutor(n_workers={self.n_workers}, "
            f"max_retries={self.max_retries}, task_timeout={self.task_timeout})"
        )


# ----------------------------------------------------------------------
# Process executor: shared-memory context + persistent worker pool
# ----------------------------------------------------------------------
#: Worker-side cache of the current step's attached context arrays.
_WORKER_STATE = {"token": None, "arrays": None, "segments": ()}


def _attach_context(specs: Mapping[str, ContextSpec], token: tuple[int, int]) -> dict[str, np.ndarray]:
    """Attach (and cache) the step's shared-memory context arrays."""
    from multiprocessing import shared_memory

    state = _WORKER_STATE
    if state["token"] == token:
        return state["arrays"]
    for segment in state["segments"]:
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - platform cleanup
            pass
    arrays = {}
    segments = []
    for key, (name, shape, dtype) in specs.items():
        segment = shared_memory.SharedMemory(name=name)
        segments.append(segment)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        # Read-only: every worker shares these bytes for the whole step,
        # so a task writing through the view would corrupt its siblings.
        view.setflags(write=False)
        arrays[key] = view
    state["token"] = token
    state["arrays"] = arrays
    state["segments"] = tuple(segments)
    return arrays


def _process_worker(
    specs: Mapping[str, ContextSpec],
    token: tuple[int, int],
    task: JoinTask,
    count_only: bool,
) -> WorkerPayload:
    """Run one task in a worker process; return a picklable result.

    The worker times the task itself (wall and CPU) so the measurement
    rides the existing result channel back to the parent's tracer.
    """
    ctx = _attach_context(specs, token)
    accumulator = PairAccumulator(count_only=count_only)
    t0 = time.perf_counter()
    c0 = time.process_time()
    counters = task.run(ctx, accumulator)
    cpu_seconds = time.process_time() - c0
    seconds = time.perf_counter() - t0
    pairs = None if count_only else accumulator.as_arrays()
    return counters, seconds, len(accumulator), pairs, task.phase, cpu_seconds


def _result_from_payload(payload: WorkerPayload, count_only: bool) -> TaskResult:
    """Rehydrate a worker's picklable payload into a TaskResult."""
    counters, seconds, n_pairs, pairs, phase, cpu_seconds = payload
    accumulator = PairAccumulator(count_only=count_only)
    if pairs is not None:
        accumulator.extend_canonical(*pairs)
    else:
        accumulator.add_count(n_pairs)
    return TaskResult(
        counters=counters,
        seconds=seconds,
        n_pairs=n_pairs,
        accumulator=accumulator,
        phase=phase,
        cpu_seconds=cpu_seconds,
    )


class ProcessExecutor(Executor):
    """Run process-safe tasks on a persistent ``ProcessPoolExecutor``.

    The context arrays are copied into shared memory once per step and
    unlinked after the step completes; workers cache their attachment
    for the duration of the step (keyed by a per-step token).  Tasks
    flagged ``process_safe=False`` run inline in the parent process.

    Recovery (see the module docstring): failed tasks are retried on
    the pool then inline; timed-out tasks re-run inline; a broken pool
    is rebuilt once, after which the executor permanently degrades to
    thread and ultimately serial execution for the rest of the run.
    ``degraded`` exposes the current rung (``None`` when healthy).
    """

    name = "process"

    def __init__(
        self,
        n_workers: int | None = None,
        max_retries: int = 1,
        task_timeout: float | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, got {n_workers}")
        super().__init__(max_retries=max_retries, task_timeout=task_timeout)
        self.n_workers = int(n_workers) if n_workers else _default_workers()
        self._pool = None
        self._step_token = 0
        self._pool_failures = 0
        self._degraded = None  # None | "thread" | "serial"
        self._thread_fallback = None

    @property
    def degraded(self) -> str | None:
        """Current degradation rung: ``None``, ``"thread"`` or ``"serial"``."""
        return self._degraded

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a (broken) pool so the next step starts from a clean one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken-pool teardown
                pass

    def _degrade_to(self, level: str, error: str | None = None) -> None:
        self._degraded = level
        info = {"to": level}
        if error is not None:
            info["error"] = error
        self._record_event("degraded", **info)

    def run(self, tasks: Sequence[JoinTask], ctx: Mapping[str, np.ndarray], count_only: bool) -> list[TaskResult]:
        return self._run_tasks(faults.wrap_tasks(tasks), tasks, ctx, count_only)

    def _run_tasks(
        self,
        launched: Sequence[JoinTask],
        tasks: Sequence[JoinTask],
        ctx: Mapping[str, np.ndarray],
        count_only: bool,
    ) -> list[TaskResult]:
        if self._degraded is not None:
            return self._run_degraded(launched, tasks, ctx, count_only)
        remote_idx = [k for k, task in enumerate(launched) if task.process_safe]
        if len(remote_idx) < 2 or self.n_workers < 2 or not ctx:
            return [
                self._attempt_inline(launched[k], tasks[k], ctx, count_only, k)
                for k in range(len(tasks))
            ]

        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        self._step_token += 1
        token = (os.getpid(), self._step_token)
        deadline = self._step_deadline()
        results = [None] * len(tasks)
        #: Task to submit on the next round: the fault-wrapped first
        #: launch, replaced by the original on retry.
        submission = {k: launched[k] for k in remote_idx}
        attempts = dict.fromkeys(remote_idx, 0)
        remaining = list(remote_idx)
        inline_done = False
        with publish_context(ctx) as specs:
            while remaining:
                broken = None
                futures = {}
                try:
                    pool = self._ensure_pool()
                    for k in remaining:
                        futures[k] = pool.submit(
                            _process_worker, specs, token, submission[k], count_only
                        )
                except BrokenProcessPool as exc:
                    broken = exc
                if not inline_done:
                    # Inline tasks run in the parent while the pool works.
                    for k in range(len(tasks)):
                        if k not in attempts:
                            results[k] = self._attempt_inline(
                                launched[k], tasks[k], ctx, count_only, k
                            )
                    inline_done = True
                retry_round = []
                if broken is None:
                    for k in remaining:
                        try:
                            payload = futures[k].result(
                                timeout=_remaining_budget(deadline)
                            )
                        except (cf.TimeoutError, TimeoutError):
                            self._record_event(
                                "task_timeout", task=k, timeout=self.task_timeout
                            )
                            results[k] = _run_inline(tasks[k], ctx, count_only)
                        except BrokenProcessPool as exc:
                            broken = exc
                            break
                        except Exception as exc:
                            attempts[k] += 1
                            if attempts[k] <= self.max_retries:
                                self._record_event(
                                    "task_retry", task=k, error=repr(exc)
                                )
                                submission[k] = tasks[k]
                                retry_round.append(k)
                            else:
                                self._record_event(
                                    "task_inline", task=k, error=repr(exc)
                                )
                                results[k] = _run_inline(tasks[k], ctx, count_only)
                        else:
                            results[k] = _result_from_payload(payload, count_only)
                if broken is not None:
                    self._record_event("pool_broken", error=repr(broken))
                    self._discard_pool()
                    self._pool_failures += 1
                    unresolved = [k for k in remaining if results[k] is None]
                    for k in unresolved:
                        submission[k] = tasks[k]
                    if self._pool_failures > 1:
                        # Second broken pool: give up on processes for the
                        # rest of the run and finish this step inline.
                        self._degrade_to("thread", error=repr(broken))
                        for k in unresolved:
                            results[k] = _run_inline(tasks[k], ctx, count_only)
                        remaining = []
                    else:
                        self._record_event("pool_rebuild")
                        remaining = unresolved
                else:
                    remaining = retry_round
        return results

    def _run_degraded(
        self,
        launched: Sequence[JoinTask],
        tasks: Sequence[JoinTask],
        ctx: Mapping[str, np.ndarray],
        count_only: bool,
    ) -> list[TaskResult]:
        """Run a step below the process rung: threads, then serial."""
        if self._degraded == "thread":
            if self._thread_fallback is None:
                self._thread_fallback = ThreadExecutor(
                    self.n_workers,
                    max_retries=self.max_retries,
                    task_timeout=self.task_timeout,
                )
            fallback = self._thread_fallback
            try:
                results = fallback._run_tasks(launched, tasks, ctx, count_only)
                self._events.extend(fallback.drain_events())
                return results
            except Exception as exc:
                self._events.extend(fallback.drain_events())
                self._degrade_to("serial", error=repr(exc))
        return [
            self._attempt_inline(launched[k], tasks[k], ctx, count_only, k)
            for k in range(len(tasks))
        ]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._thread_fallback is not None:
            self._thread_fallback.close()
            self._thread_fallback = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown best effort
        # The garbage collector may run this inside any thread — even
        # while that thread holds threading's shutdown-lock registry —
        # so it must not join the pool's threads: joining takes that
        # registry lock again and deadlocks.
        with suppress(Exception):
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:
        return (
            f"ProcessExecutor(n_workers={self.n_workers}, "
            f"max_retries={self.max_retries}, task_timeout={self.task_timeout})"
        )


def _env_task_options() -> dict[str, Any]:
    """Retry/timeout keyword arguments read from the environment.

    ``REPRO_TASK_TIMEOUT`` (seconds, positive float) and
    ``REPRO_TASK_RETRIES`` (non-negative int) apply to every executor
    resolved from a spec string — previously spec strings silently
    dropped both knobs, so a ``REPRO_EXECUTOR=process:2`` run could
    never enable timeouts.  Range validation is the constructors'; this
    helper validates the parse and names the offending variable.
    """
    options: dict[str, Any] = {}
    raw = os.environ.get(TASK_TIMEOUT_ENV_VAR)
    if raw is not None and raw.strip():
        try:
            options["task_timeout"] = float(raw)
        except ValueError:
            raise ValueError(
                f"{TASK_TIMEOUT_ENV_VAR} must be a number of seconds, got {raw!r}"
            ) from None
    raw = os.environ.get(TASK_RETRIES_ENV_VAR)
    if raw is not None and raw.strip():
        try:
            options["max_retries"] = int(raw)
        except ValueError:
            raise ValueError(
                f"{TASK_RETRIES_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    return options


def resolve_executor(spec: Executor | str | None) -> Executor:
    """Resolve an executor instance from ``spec``.

    ``None`` consults the ``REPRO_EXECUTOR`` environment variable and
    defaults to serial; strings take the form ``name`` or ``name:N``
    with ``N`` the worker count, and additionally honour
    ``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``.  Instances pass
    through unchanged (so one pool can be shared by many algorithms),
    keeping whatever budgets they were constructed with.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        spec = os.environ.get(EXECUTOR_ENV_VAR) or "serial"
    if not isinstance(spec, str):
        raise TypeError(f"executor spec must be an Executor, str or None: {spec!r}")
    name, _, workers = spec.partition(":")
    name = name.strip().lower()
    n_workers = None
    if workers:
        try:
            n_workers = int(workers)
        except ValueError:
            raise ValueError(f"invalid executor worker count in {spec!r}") from None
    options = _env_task_options()
    if name == "serial":
        return SerialExecutor(**options)
    if name in ("thread", "threads"):
        return ThreadExecutor(n_workers, **options)
    if name in ("process", "processes"):
        return ProcessExecutor(n_workers, **options)
    raise ValueError(
        f"unknown executor {spec!r}; expected serial, thread[:N] or process[:N]"
    )
