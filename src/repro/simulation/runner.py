"""Iterative-simulation driver: move all objects, join, record, repeat.

Reproduces the paper's experimental loop (§5.1.1): the simulation
application mutates the object list in place at every time step; once
the list is consistent, the self-join executes atomically; per-step
metrics are recorded.  The driver is algorithm-agnostic — anything
implementing :class:`~repro.joins.base.SpatialJoinAlgorithm` plugs in,
which is how the benchmark harness runs THERMAL-JOIN and every baseline
over identical workloads.

The loop is fault-aware on three levels:

* the engine's executors recover from task failures, hangs and worker
  death on their own (surfaced per step in :attr:`StepRecord.events` /
  :attr:`StepRecord.task_retries`);
* a step that still raises past all executor recovery is **escalated**:
  the algorithm's cross-step state is discarded
  (:meth:`~repro.joins.base.SpatialJoinAlgorithm.reset_for_retry`) and
  the step retried once as a full from-scratch re-join; only a second
  failure ends the run — cleanly, with the failing step in
  :attr:`SimulationRunner.failed_step` / :attr:`~SimulationRunner.failure`
  / :attr:`~SimulationRunner.failure_traceback` and no half-written
  record;
* with ``checkpoint_dir=`` set, the full resumable state is durably
  checkpointed every ``checkpoint_every`` steps through
  :mod:`repro.recovery`, and :meth:`resume` continues a crashed run
  from the newest valid checkpoint — bit-identically to a run that was
  never interrupted (see ``docs/robustness.md``).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import os

    from repro.datasets import SpatialDataset
    from repro.datasets.motion import MotionModel
    from repro.joins.base import JoinResult, JoinStatistics, SpatialJoinAlgorithm
    from repro.recovery.checkpoint import CheckpointManager
    from repro.recovery.metrics import RecoveryMetrics

__all__ = ["StepRecord", "SimulationRunner"]

#: Event kinds that mean the step ran below the requested backend.
_DEGRADED_EVENT_KINDS = ("pool_broken", "pool_rebuild", "degraded")


@dataclass
class StepRecord:
    """Metrics of one simulation time step.

    Attributes mirror the series of the paper's Figure 7: result count
    (join selectivity), join time, overlap tests and memory footprint,
    plus the finer phase breakdown used by Figure 10(a).  ``events``
    and ``task_retries`` carry the step's robustness record (see
    :class:`~repro.joins.base.JoinStatistics`); both are empty/zero on
    a clean step.  ``index_counters`` is the step's metrics-registry
    snapshot (tuner resolution, P-Grid cell accounting, executor rung —
    see :class:`~repro.obs.MetricsRegistry`), so bench trajectories and
    traces can line the index internals up with the cost series.

    Recovery surfaces here as events: ``{"kind": "checkpoint",
    "step": N}`` when the step was durably checkpointed and
    ``{"kind": "step_retry", "error": ...}`` when the step only
    succeeded on its escalated from-scratch retry.

    The dataclass fields are the record's one schema: :meth:`to_json`
    and :meth:`from_json` (the checkpoint record log) and the bench
    document's step keys are all derived from them.
    """

    step: int
    n_results: int
    join_seconds: float
    build_seconds: float
    overlap_tests: int
    memory_bytes: int
    phase_seconds: dict[str, float]
    stage_seconds: dict[str, float] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    task_retries: int = 0
    index_counters: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Pair-maintenance counters for the step (the ``incremental``
    #: provider of the metrics registry: mode, moved_fraction,
    #: pairs_reused, pairs_reverified, fallbacks, ...).  Empty for
    #: algorithms without the provider, so pre-existing records and
    #: readers keep working unchanged.
    incremental: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_stats(cls, step: int, n_results: int, stats: JoinStatistics) -> StepRecord:
        """The record of one join step from its statistics."""
        return cls(
            step=step,
            n_results=n_results,
            join_seconds=stats.join_seconds,
            build_seconds=stats.build_seconds,
            overlap_tests=stats.overlap_tests,
            memory_bytes=stats.memory_bytes,
            phase_seconds=dict(stats.phase_seconds),
            stage_seconds=dict(stats.stage_seconds),
            events=list(stats.events),
            task_retries=stats.task_retries,
            index_counters=dict(stats.index_counters),
            incremental=dict(stats.index_counters.get("incremental", {})),
        )

    def to_json(self) -> dict[str, Any]:
        """This record as a JSON-shaped dict, one key per field.

        Every field is already JSON-shaped (the metrics registry
        coerces counters to Python scalars), and floats round-trip
        exactly through JSON.
        """
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> StepRecord:
        """Inverse of :meth:`to_json`; refuses missing or unknown keys."""
        names = {spec.name for spec in fields(cls)}
        if set(doc) != names:
            raise ValueError(
                f"step record keys {sorted(doc)} differ from the fields {sorted(names)}"
            )
        return cls(**doc)

    @property
    def total_seconds(self) -> float:
        """Build plus join time of the step."""
        return self.build_seconds + self.join_seconds

    @property
    def degraded(self) -> bool:
        """True when the step's executor broke, rebuilt or downgraded."""
        return any(
            event.get("kind") in _DEGRADED_EVENT_KINDS for event in self.events
        )


class SimulationRunner:
    """Runs a moving-object simulation against one join algorithm.

    Parameters
    ----------
    dataset:
        The shared in-memory object list (mutated in place).
    motion:
        A :class:`~repro.datasets.motion.MotionModel`; ``None`` runs a
        static dataset (the single-time-step experiments of Figures 2
        and 6).
    algorithm:
        The join algorithm under test.  Its ``executor`` attribute (set
        via the ``executor=`` constructor argument or ``REPRO_EXECUTOR``)
        carries the serial/parallel choice for every step of the run.
    time_budget:
        Optional wall-clock budget in seconds for the *whole* run; when
        exceeded the run stops early and :attr:`timed_out` is set — the
        equivalent of the paper's 72-hour cut-off in Figure 9(a).
    checkpoint_dir:
        Directory for durable checkpoints; ``None`` (default) disables
        checkpointing entirely.
    checkpoint_every:
        Checkpoint cadence in steps (a checkpoint is committed after
        every ``checkpoint_every``-th completed step).  Ignored without
        ``checkpoint_dir``.
    keep_last:
        Checkpoint retention depth (see
        :class:`~repro.recovery.CheckpointManager`).

    Attributes
    ----------
    timed_out:
        True when the run stopped on the time budget.
    failed_step:
        Index of the step whose join raised past all executor recovery
        *and* past the from-scratch step retry, or ``None``.  The run
        stops cleanly at that step: ``records`` holds every *completed*
        step and the motion model is not advanced past the failure.
    failure:
        The exception that ended the run, or ``None``.
    failure_traceback:
        The formatted traceback of :attr:`failure`, or ``None`` —
        preserved because the exception object alone loses the stack
        once the run moves on (figures/reports include it).
    recovery:
        The run's :class:`~repro.recovery.RecoveryMetrics` counters
        when checkpointing is enabled, else ``None``; also exposed as
        the ``recovery`` metrics provider.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        motion: MotionModel | None,
        algorithm: SpatialJoinAlgorithm,
        time_budget: float | None = None,
        checkpoint_dir: str | os.PathLike[str] | None = None,
        checkpoint_every: int = 10,
        keep_last: int = 3,
    ) -> None:
        if time_budget is not None and time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {time_budget}")
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        self.dataset = dataset
        self.motion = motion
        self.algorithm = algorithm
        self.time_budget = time_budget
        self.records: list[StepRecord] = []
        self.timed_out = False
        self.failed_step: int | None = None
        self.failure: Exception | None = None
        self.failure_traceback: str | None = None
        self.checkpoint_every = int(checkpoint_every)
        self.recovery: RecoveryMetrics | None = None
        self._checkpoints: CheckpointManager | None = None
        #: First step the next :meth:`run` call will execute (advanced
        #: by :meth:`resume` past the checkpointed prefix).
        self._next_step = 0
        #: Records already in the checkpoint record log; each
        #: checkpoint appends only the ones after them.
        self._records_checkpointed = 0
        if checkpoint_dir is not None:
            from repro.recovery import CheckpointManager, RecoveryMetrics

            self._checkpoints = CheckpointManager(checkpoint_dir, keep_last=keep_last)
            self.recovery = RecoveryMetrics()
            # Guarded: a resumed runner re-wraps an algorithm whose
            # registry may already carry the provider.
            if "recovery" not in self.algorithm.metrics:
                self.algorithm.metrics.register("recovery", self.recovery.snapshot)

    # ------------------------------------------------------------------
    # The step loop
    # ------------------------------------------------------------------
    def run(self, n_steps: int) -> list[StepRecord]:
        """Execute steps up to trajectory length ``n_steps``; returns records.

        Each step joins the dataset's *current* state; the motion model
        advances at the top of every step after the first, so step 0
        measures the initial configuration exactly as the paper's
        time-step 0 does.  On a resumed runner the loop continues from
        the first un-checkpointed step — ``n_steps`` is always the total
        trajectory length, not an increment.
        """
        if n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        from repro.engine.faults import SimulatedCrash, active_plan

        started = time.perf_counter()
        # The delta committed by the previous motion step, threaded into
        # the next join step.  Step 0 has none (initial configuration).
        # After a resume the restored motion model produces the exact
        # delta the uninterrupted run would have produced here.
        pending_delta = None
        for step in range(self._next_step, n_steps):
            if self.motion is not None and step > 0:
                pending_delta = self.motion.step(self.dataset)
            result = self._run_step(step, pending_delta)
            if result is None:
                break
            self.records.append(StepRecord.from_stats(step, result.n_results, result.stats))
            self._next_step = step + 1
            if (
                self._checkpoints is not None
                and (step + 1) % self.checkpoint_every == 0
            ):
                self._write_checkpoint(step)
            plan = active_plan()
            if plan is not None and plan.crash_after_step(step):
                # Simulated process death: propagate like a real crash —
                # completed records (and checkpoints) survive, nothing
                # is recorded as a failed step.
                raise SimulatedCrash(f"injected crash after step {step}")
            if (
                self.time_budget is not None
                and time.perf_counter() - started > self.time_budget
            ):
                # Check the budget here so a timed-out run doesn't burn
                # one extra motion step at the top of the next iteration.
                self.timed_out = True
                break
        return self.records

    def _run_step(self, step: int, pending_delta: Any) -> JoinResult | None:
        """One join step with escalation; ``None`` when the run must stop.

        A first failure past all executor recovery discards the
        algorithm's cross-step state and retries the step as a full
        from-scratch re-join (fresh index build, incremental state
        dropped); the retry's success is recorded as a ``step_retry``
        event on the step.  A second failure declares
        :attr:`failed_step`.
        """
        try:
            return self.algorithm.step_delta(self.dataset, pending_delta)
        except Exception as first:
            if self.recovery is not None:
                self.recovery.record_step_retry()
            try:
                self.algorithm.reset_for_retry()
                result = self.algorithm.step_delta(self.dataset, None)
            except Exception as second:
                if self.recovery is not None:
                    self.recovery.record_escalation()
                self.failed_step = step
                self.failure = second
                self.failure_traceback = "".join(
                    traceback.format_exception(type(second), second, second.__traceback__)
                )
                return None
            result.stats.record_events(
                [{"kind": "step_retry", "error": repr(first)}]
            )
            return result

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _write_checkpoint(self, step: int) -> None:
        """Durably commit the state needed to resume after ``step``."""
        from repro.recovery import snapshot_dataset, snapshot_motion

        assert self._checkpoints is not None and self.recovery is not None
        started = time.perf_counter()
        # The event goes on the record *before* it is serialized: a
        # resumed run restores this record from the checkpoint, and the
        # uninterrupted run's copy carries the event — bit-identity
        # requires both to agree.  No byte count in the event on
        # purpose: record sizes vary run-to-run (wall-time floats), and
        # the event stream is part of the bit-identity contract.
        self.records[-1].events.append({"kind": "checkpoint", "step": step})
        arrays: dict[str, Any] = {}
        dataset_arrays, dataset_meta = snapshot_dataset(self.dataset)
        for key, value in dataset_arrays.items():
            arrays[f"dataset/{key}"] = value
        motion_meta = None
        if self.motion is not None:
            motion_arrays, motion_meta = snapshot_motion(self.motion)
            for key, value in motion_arrays.items():
                arrays[f"motion/{key}"] = value
        algo_arrays, algo_meta = self.algorithm.snapshot_state()
        for key, value in algo_arrays.items():
            arrays[f"algorithm/{key}"] = value
        meta = {
            "dataset": dataset_meta,
            "motion": motion_meta,
            "algorithm": algo_meta,
            "runner": {
                "next_step": step + 1,
                "checkpoint_every": self.checkpoint_every,
            },
        }
        records = [r.to_json() for r in self.records[self._records_checkpointed :]]
        nbytes = self._checkpoints.write(step, arrays, meta, records)
        self._records_checkpointed = len(self.records)
        self.recovery.record_checkpoint(nbytes, time.perf_counter() - started)

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str | os.PathLike[str],
        algorithm: SpatialJoinAlgorithm,
        time_budget: float | None = None,
        checkpoint_every: int | None = None,
        keep_last: int = 3,
    ) -> SimulationRunner:
        """Reconstruct a runner from the newest valid checkpoint.

        ``algorithm`` must be constructed with the same configuration
        the checkpointed run used (validated via its config
        fingerprint); its cross-step state is restored wholesale.
        Corrupt checkpoints are skipped newest-first (counted in
        ``recovery.corrupt_skipped``); :class:`~repro.recovery.
        CheckpointError` is raised when nothing loads.  The returned
        runner's next :meth:`run` call continues the trajectory
        bit-identically to a run that was never interrupted.
        """
        from repro.recovery import CheckpointManager, restore_dataset, restore_motion

        manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)
        checkpoint, skipped = manager.load_latest()
        meta = checkpoint.meta

        def split(prefix: str) -> dict[str, Any]:
            return {
                key.split("/", 1)[1]: value
                for key, value in checkpoint.arrays.items()
                if key.startswith(prefix + "/")
            }

        dataset = restore_dataset(split("dataset"), meta["dataset"])
        motion = None
        if meta["motion"] is not None:
            motion = restore_motion(split("motion"), meta["motion"])
        algorithm.restore_state(split("algorithm"), meta["algorithm"], dataset)
        runner_meta = meta["runner"]
        runner = cls(
            dataset,
            motion,
            algorithm,
            time_budget=time_budget,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=(
                int(runner_meta["checkpoint_every"])
                if checkpoint_every is None
                else checkpoint_every
            ),
            keep_last=keep_last,
        )
        # The loading manager appends after the log prefix it loaded.
        runner._checkpoints = manager
        runner.records = [StepRecord.from_json(doc) for doc in checkpoint.records]
        runner._records_checkpointed = len(runner.records)
        runner._next_step = int(runner_meta["next_step"])
        assert runner.recovery is not None
        runner.recovery.record_load(skipped)
        return runner

    # ------------------------------------------------------------------
    # Aggregates over the recorded steps
    # ------------------------------------------------------------------
    def total_join_seconds(self) -> float:
        """Sum of build + join time over all recorded steps."""
        return sum(record.total_seconds for record in self.records)

    def total_overlap_tests(self) -> int:
        """Sum of overlap tests over all recorded steps."""
        return sum(record.overlap_tests for record in self.records)

    def peak_memory_bytes(self) -> int:
        """Largest per-step footprint observed."""
        return max((record.memory_bytes for record in self.records), default=0)

    def total_task_retries(self) -> int:
        """Sum of task re-executions over all recorded steps."""
        return sum(record.task_retries for record in self.records)

    def degraded_steps(self) -> list[int]:
        """Step indices whose executor broke, rebuilt or downgraded."""
        return [record.step for record in self.records if record.degraded]
