"""Pluggable task executors: serial, thread pool, process pool.

An executor schedules a plan's tasks and returns one
:class:`~repro.engine.plan.TaskResult` per task, in task order.  Every
task emits into a private :class:`~repro.geometry.PairAccumulator`
shard, so scheduling never changes the merged result.  All executors
share one :meth:`Executor.run` loop and differ only in which tasks they
hand to a pool; the rest run inline on the calling thread:

``SerialExecutor``
    Pools nothing: every task runs in order on the calling thread.  The
    default, and the reference for the statistics every other executor
    must reproduce.
``ThreadExecutor``
    Pools every task on a persistent ``ThreadPoolExecutor`` (created
    lazily, released in ``close()``); the numpy kernels behind the
    verify stage release the GIL on their bulk operations, so
    independent tasks overlap on multi-core machines.
``ProcessExecutor``
    Pools the ``process_safe`` tasks on a persistent
    ``ProcessPoolExecutor``.  The plan's context arrays (the MBR
    coordinate and grouping arrays) are published once per step
    through :mod:`multiprocessing.shared_memory`; workers attach and
    cache them for the step, so each task ships only its own small
    index arrays.  The other tasks (closures over live index objects)
    run inline in the parent while the pool works.

Fault tolerance
---------------
Tasks are pure functions of the plan's context, so they are retryable
units.  The run loop has one recovery path per failure and records each
as a robustness *event* (drained into
:class:`~repro.joins.base.JoinStatistics.events` by the step driver):

* a task that raises, inline or on a pool, is re-run inline up to
  ``max_retries`` times (``task_retry``), so a transient worker fault
  never changes the merged pair set; once the budget is spent the last
  error propagates;
* ``task_timeout`` is a shared per-step budget: one deadline is taken
  when the step's waits begin and every pooled wait draws on the
  remaining budget, so a slow task queued behind another slow task
  cannot stretch a step to N×timeout.  A task still pending at the
  deadline is abandoned and re-run inline once (``task_timeout``; its
  late result, if any, is discarded), and the step then discards its
  pool — terminating a process pool's workers — so the next step
  starts a fresh one and ``close()`` never waits on the abandoned task;
* a ``BrokenProcessPool`` climbs ``ProcessExecutor``'s degradation
  ladder one rung per step, and the step's unfinished pooled tasks
  re-run inline.  The first break discards the pool for a fresh one
  next step (``pool_broken``, ``pool_rebuild``); the second moves the
  executor onto a thread pool for the rest of the run (``degraded``
  to ``"thread"``); a step that then fails on the thread rung is
  re-run serially and the executor stays serial (``degraded`` to
  ``"serial"``);
* shared-memory publication is a context manager that unlinks every
  segment on *any* exit path (including mid-publication exceptions and
  worker crashes), backed by an ``atexit`` sweep of still-live
  segments.

Injected faults (:mod:`repro.engine.faults`, ``REPRO_FAULTS``) are
applied at first launch only; every re-run uses the original task.

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
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import ExitStack, contextmanager, suppress
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine import faults
from repro.engine.plan import JoinTask, TaskResult

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
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

#: Picklable result tuple returned by :func:`_process_worker`: counters,
#: wall seconds, pair count, the shard's one pair-key array (``None``
#: when counting only), phase and CPU seconds.
WorkerPayload = tuple[dict[str, Any], float, int, "np.ndarray | None", str, float]


def _run_inline(
    task: JoinTask, ctx: Mapping[str, np.ndarray], n_objects: int, count_only: bool
) -> TaskResult:
    accumulator = PairAccumulator(n_objects, count_only=count_only)
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
        Re-attempts for a failed task before the failure propagates.
    task_timeout:
        Wall-clock budget in seconds shared by all of a step's pooled
        waits; ``None`` (default) disables timeouts.  The deadline is
        taken once when the step starts waiting, so N queued slow
        tasks are bounded by one budget, not N of them.  A task still
        pending at the deadline is re-run inline in the parent and its
        late result discarded.

    Subclasses name the pool they start on: ``"serial"`` (none),
    ``"thread"`` or ``"process"``.
    """

    name = "abstract"

    def __init__(self, max_retries: int = 1, task_timeout: float | None = None) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        self.max_retries = int(max_retries)
        self.task_timeout = task_timeout
        self.n_workers = 1
        #: Pool the tasks run on now: ``name`` while healthy, lower once
        #: a process executor degrades.
        self._rung = self.name
        self._pool: Any = None
        self._pool_failures = 0
        self._step_token = 0
        self._events: list[dict[str, Any]] = []

    @property
    def degraded(self) -> str | None:
        """Current degradation rung: ``None``, ``"thread"`` or ``"serial"``."""
        return None if self._rung == self.name else self._rung

    def run(
        self,
        tasks: Sequence[JoinTask],
        ctx: Mapping[str, np.ndarray],
        n_objects: int,
        count_only: bool,
    ) -> list[TaskResult]:
        """Execute ``tasks`` against ``ctx``; return ordered TaskResults.

        Every task emits into its own accumulator of pair keys over
        ``n_objects`` objects (the step's dataset size).  The pooled
        tasks are submitted first, the rest run inline while the pool
        works, and each pooled result is collected against the step's
        one deadline (recovery: see the module docstring).
        """
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        launched = faults.wrap_tasks(tasks)
        pooled = self._pooled(launched, ctx)
        inline = sorted(set(range(len(tasks))).difference(pooled))
        results: dict[int, TaskResult] = {}
        try:
            with ExitStack() as stack:
                futures: dict[int, Future[Any]] = {}
                broken: BrokenProcessPool | None = None
                abandoned = False
                if pooled:
                    submit = stack.enter_context(self._submitter(ctx, n_objects, count_only))
                    try:
                        for k in pooled:
                            futures[k] = submit(launched[k])
                    except BrokenProcessPool as exc:
                        broken = exc
                for k in inline:
                    results[k] = self._attempt_inline(
                        launched[k], tasks[k], ctx, n_objects, count_only, k
                    )
                deadline = self._step_deadline()
                for k, future in futures.items():
                    if broken is not None:
                        break
                    try:
                        value = future.result(timeout=_remaining_budget(deadline))
                    except (cf.TimeoutError, TimeoutError):
                        self._record_event("task_timeout", task=k, timeout=self.task_timeout)
                        abandoned = True
                        results[k] = _run_inline(tasks[k], ctx, n_objects, count_only)
                    except BrokenProcessPool as exc:
                        broken = exc
                    except Exception as exc:
                        results[k] = self._retry_inline(
                            tasks[k], ctx, n_objects, count_only, k, exc
                        )
                    else:
                        results[k] = (
                            value
                            if isinstance(value, TaskResult)
                            else _result_from_payload(value, n_objects, count_only)
                        )
                if abandoned:
                    # The abandoned task may still be running: drop its
                    # pool so neither the next step nor close() waits
                    # on it.
                    self._discard_pool()
                if broken is not None:
                    self._pool_broke(broken)
                    for k in pooled:
                        if k not in results:
                            results[k] = _run_inline(tasks[k], ctx, n_objects, count_only)
        except Exception as exc:
            if self.degraded != "thread":
                raise
            # A step failing on the thread rung re-runs serially, and
            # the executor stays serial for the rest of the run.
            self._degrade_to("serial", error=repr(exc))
            results = {
                k: self._attempt_inline(task, task, ctx, n_objects, count_only, k)
                for k, task in enumerate(tasks)
            }
        return [results[k] for k in range(len(tasks))]

    def _pooled(self, launched: Sequence[JoinTask], ctx: Mapping[str, np.ndarray]) -> list[int]:
        """Indices of the tasks this step hands to the pool.

        Pooling pays only with two workers and two tasks to overlap.  A
        process pool takes the ``process_safe`` tasks and needs context
        arrays to publish; a thread pool takes every task.
        """
        if self._rung == "serial":
            return []
        if self._rung == "thread":
            pooled = list(range(len(launched)))
        elif self._rung == "process":
            pooled = [k for k, task in enumerate(launched) if task.process_safe] if ctx else []
        else:
            raise NotImplementedError(f"{type(self).__name__} names no pool")
        return pooled if len(pooled) >= 2 and self.n_workers >= 2 else []

    @contextmanager
    def _submitter(
        self, ctx: Mapping[str, np.ndarray], n_objects: int, count_only: bool
    ) -> Iterator[Callable[[JoinTask], Future[Any]]]:
        """Yield ``submit(task) -> Future`` on the current rung's pool.

        A thread pool runs tasks over the live context and returns
        TaskResults; a process pool gets the context published to shared
        memory for the step and returns :data:`WorkerPayload` tuples.
        """
        pool = self._ensure_pool()
        if self._rung == "thread":
            yield lambda task: pool.submit(_run_inline, task, ctx, n_objects, count_only)
            return
        self._step_token += 1
        token = (os.getpid(), self._step_token)
        with publish_context(ctx) as specs:
            yield lambda task: pool.submit(
                _process_worker, specs, token, task, n_objects, count_only
            )

    def _ensure_pool(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

            if self._rung == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            else:
                context = None
                if "fork" in multiprocessing.get_all_start_methods():
                    context = multiprocessing.get_context("fork")
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers, mp_context=context)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop the pool without waiting, so the next step starts a fresh one.

        A process pool's workers are terminated, so a task still running
        in one cannot outlive the pool; a thread pool's threads finish
        their task in the background.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        workers = list((getattr(pool, "_processes", None) or {}).values())
        for worker in workers:
            with suppress(Exception):
                worker.terminate()
        with suppress(Exception):
            pool.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            with suppress(Exception):
                worker.join()

    def _pool_broke(self, error: BaseException) -> None:
        """One ladder rung per broken process pool: rebuild once, then threads."""
        self._record_event("pool_broken", error=repr(error))
        self._discard_pool()
        self._pool_failures += 1
        if self._pool_failures > 1:
            self._degrade_to("thread", error=repr(error))
        else:
            self._record_event("pool_rebuild")

    def _degrade_to(self, rung: str, error: str) -> None:
        self._discard_pool()
        self._rung = rung
        self._record_event("degraded", to=rung, error=error)

    def close(self) -> None:
        """Release the pool (no-op when none was started)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown best effort
        # The garbage collector may run this inside any thread — even
        # while that thread holds threading's shutdown-lock registry —
        # so it must not join the pool's threads: joining takes that
        # registry lock again and deadlocks.
        with suppress(Exception):
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)

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
        n_objects: int,
        count_only: bool,
        index: int,
    ) -> TaskResult:
        """Run ``task`` inline, honouring the configured retry budget.

        ``task`` may be a fault-wrapped first launch; retries always use
        ``original`` so a spent injected fault cannot re-fire.
        """
        try:
            return _run_inline(task, ctx, n_objects, count_only)
        except Exception as exc:
            return self._retry_inline(original, ctx, n_objects, count_only, index, exc)

    def _retry_inline(
        self,
        task: JoinTask,
        ctx: Mapping[str, np.ndarray],
        n_objects: int,
        count_only: bool,
        index: int,
        error: Exception,
    ) -> TaskResult:
        """Re-run a failed ``task`` inline up to ``max_retries`` times.

        One ``task_retry`` event is recorded per re-attempt; a task still
        failing once the budget is spent propagates its last error —
        genuine, deterministic task bugs must still surface.
        """
        for _ in range(self.max_retries):
            self._record_event("task_retry", task=index, error=repr(error))
            try:
                return _run_inline(task, ctx, n_objects, count_only)
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


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


def _remaining_budget(deadline: float | None) -> float | None:
    """Seconds left until ``deadline``, floored at zero; ``None`` means
    no limit.  A zero budget makes ``Future.result`` raise immediately
    for any task that has not already finished."""
    if deadline is None:
        return None
    return max(deadline - time.monotonic(), 0.0)


class _PoolExecutor(Executor):
    """An executor with a worker pool of ``n_workers`` (default: CPU count)."""

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

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_workers={self.n_workers}, "
            f"max_retries={self.max_retries}, task_timeout={self.task_timeout})"
        )


class ThreadExecutor(_PoolExecutor):
    """Run tasks on a persistent thread pool (GIL-releasing numpy kernels
    overlap).

    The pool is created lazily on first use and kept across steps —
    matching ``ProcessExecutor``'s pool reuse instead of paying pool
    startup every simulation step — and released in :meth:`close`.
    """

    name = "thread"


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
    n_objects: int,
    count_only: bool,
) -> WorkerPayload:
    """Run one task in a worker process; return a picklable result.

    The worker times the task itself (wall and CPU) so the measurement
    rides the existing result channel back to the parent's tracer.  Its
    pairs travel as one key array, half the bytes of two index arrays.
    """
    ctx = _attach_context(specs, token)
    accumulator = PairAccumulator(n_objects, count_only=count_only)
    t0 = time.perf_counter()
    c0 = time.process_time()
    counters = task.run(ctx, accumulator)
    cpu_seconds = time.process_time() - c0
    seconds = time.perf_counter() - t0
    keys = None if count_only else accumulator.as_keys()
    return counters, seconds, len(accumulator), keys, task.phase, cpu_seconds


def _result_from_payload(payload: WorkerPayload, n_objects: int, count_only: bool) -> TaskResult:
    """Rehydrate a worker's picklable payload into a TaskResult."""
    counters, seconds, n_pairs, keys, phase, cpu_seconds = payload
    accumulator = PairAccumulator(n_objects, count_only=count_only)
    if keys is not None:
        accumulator.extend_keys(keys)
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


class ProcessExecutor(_PoolExecutor):
    """Run process-safe tasks on a persistent ``ProcessPoolExecutor``.

    The context arrays are copied into shared memory once per step and
    unlinked after the step completes; workers cache their attachment
    for the duration of the step (keyed by a per-step token).  Tasks
    flagged ``process_safe=False`` run inline in the parent process.

    A broken pool is rebuilt once, after which the executor permanently
    degrades to thread and ultimately serial execution for the rest of
    the run (see the module docstring); ``degraded`` exposes the
    current rung.
    """

    name = "process"


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
    if name == "thread":
        return ThreadExecutor(n_workers, **options)
    if name == "process":
        return ProcessExecutor(n_workers, **options)
    raise ValueError(
        f"unknown executor {spec!r}; expected serial, thread[:N] or process[:N]"
    )
