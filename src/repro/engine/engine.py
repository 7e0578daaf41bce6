"""The staged step driver: prepare → partition → verify → merge.

:func:`execute_step` is what :meth:`SpatialJoinAlgorithm.step` delegates
to.  It times the four stages separately, schedules the plan's tasks on
the algorithm's executor, merges the per-task pair shards in task order,
aggregates per-task counters into :class:`~repro.joins.base.JoinStatistics`
(so existing figures see exactly the totals the monolithic path
produced), and asserts the :class:`~repro.joins.base.JoinResult` pairs
invariant.  Robustness events drained from the executor (task retries,
timeouts, pool rebuilds and degradations) land in
``JoinStatistics.events``/``task_retries`` so runs that survived a
fault stay visibly marked in every figure and benchmark downstream.

Given a :class:`~repro.datasets.delta.MotionDelta` and a
:class:`~repro.geometry.pairs.MaintainedPairSet`, the same driver runs
an incremental step instead: the partition stage asks for the
algorithm's ``delta_plan`` (re-verify tasks for moved objects only) and
the merge stage patches the maintained set — pairs incident to a moved
object are dropped and the re-verified ones merged back in.  Pairs
between two settled objects cannot have changed, so the patched set is
exactly the full re-join's result.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.geometry import PairAccumulator

if TYPE_CHECKING:
    import numpy as np

    from repro.datasets import SpatialDataset
    from repro.datasets.delta import MotionDelta
    from repro.geometry.pairs import KeySnapshot, MaintainedPairSet
    from repro.joins.base import JoinResult, SpatialJoinAlgorithm

__all__ = ["execute_step", "DEFAULT_PARTITION_TASKS"]

#: Most tasks a plan splits one family of work into.  A plan may use
#: fewer — THERMAL-JOIN's re-verify plan sizes its task count by
#: candidate volume — but the count is a function of the plan alone,
#: never of the executor's worker count, so pair sets and overlap test
#: totals are bit-identical across serial, thread and process execution.
DEFAULT_PARTITION_TASKS = 8


def execute_step(
    algorithm: SpatialJoinAlgorithm,
    dataset: SpatialDataset,
    delta: MotionDelta | None = None,
    maintained: MaintainedPairSet | None = None,
    on_maintained: Callable[[dict[str, Any]], None] | None = None,
) -> JoinResult:
    """Run one join step for ``algorithm`` through the engine.

    Returns a :class:`~repro.joins.base.JoinResult`.  Without ``delta``
    the step is a full join.  With ``delta`` (and the ``maintained``
    pair set it bridges from) the step re-verifies only the moved
    objects and patches ``maintained`` in place; its tasks always
    materialise their pairs, since the maintained set needs them, while
    the *returned* result honours ``count_only`` as usual.
    ``on_maintained`` (if given) receives the maintenance counters
    (``pairs_reused``, ``pairs_dropped``, ``pairs_reverified``,
    ``pairs_added``, ``maintained_pairs``, ``compactions``,
    ``extra_keys``) before the metrics-registry
    snapshot, so algorithms can surface them through their providers.

    When a tracer is active (:func:`repro.obs.get_tracer`), one span is
    opened per stage plus one recorded per executed task — task timings
    arrive through the :class:`~repro.engine.plan.TaskResult` channel,
    so tasks that ran in worker processes are attributed too.  Tracing
    never changes results: spans are observational only.
    """
    from repro.joins.base import JoinResult, JoinStatistics
    from repro.obs import get_tracer

    if (delta is None) != (maintained is None):
        raise ValueError("an incremental step needs both delta and maintained")
    # Delta tasks always materialise: the maintained set needs the pairs.
    count_only = algorithm.count_only and delta is None
    n_objects = len(dataset)

    executor = algorithm.executor
    tracer = get_tracer()
    traced = tracer.enabled
    step_span = None
    if traced:
        tracer.begin_step()
        step_counters: dict[str, Any] = {
            "algorithm": algorithm.name,
            "n_objects": len(dataset),
        }
        if delta is not None:
            step_counters["mode"] = "incremental"
        step_cm = tracer.span("step", counters=step_counters)
        step_span = step_cm.__enter__()

    try:
        t0 = time.perf_counter()
        with tracer.span("prepare", parent=step_span):
            algorithm._build(dataset)  # prepare: index build / refresh
        t1 = time.perf_counter()
        with tracer.span("partition", parent=step_span) as partition_span:
            # partition: emit independent tasks
            if delta is None:
                plan = algorithm.plan(dataset)
            else:
                plan = algorithm.delta_plan(dataset, delta)
            if partition_span is not None:
                partition_span.counters["n_tasks"] = len(plan.tasks)
        t2 = time.perf_counter()
        with tracer.span("verify", parent=step_span) as verify_span:
            results = executor.run(plan.tasks, plan.context, n_objects, count_only)
            events = executor.drain_events()  # robustness: retries, downgrades
        t3 = time.perf_counter()

        # merge: shards → canonical pair keys (patched into the
        # maintained set on an incremental step) → the result keys,
        # counters → aggregate statistics.  Nothing here decodes a key
        # or folds the maintained set: the result's ``keys`` and
        # ``pairs`` do that, when someone reads them.
        with tracer.span("merge", parent=step_span):
            merged = PairAccumulator(n_objects, count_only=count_only)
            for task_result in results:
                merged.merge(task_result.accumulator)
            if plan.on_complete is not None:
                plan.on_complete(results)
            maintenance = None
            keys: np.ndarray | KeySnapshot | None
            if delta is not None and maintained is not None:
                maintenance = _patch_maintained(maintained, delta, merged)
                n_results = len(maintained)
                # The parts, not a folded array: the result folds them if
                # someone reads its keys.
                keys = None if algorithm.count_only else maintained.snapshot()
            else:
                n_results = len(merged)
                keys = None if algorithm.count_only else merged.as_keys()
        t4 = time.perf_counter()

        if traced:
            for index, task_result in enumerate(results):
                tracer.record(
                    f"task:{type(plan.tasks[index]).__name__}",
                    phase=task_result.phase,
                    parent=verify_span,
                    wall_seconds=task_result.seconds,
                    cpu_seconds=task_result.cpu_seconds,
                    counters={"task": index, **task_result.counters},
                )
    finally:
        if traced:
            step_cm.__exit__(None, None, None)

    # All statistics flow through the recording methods (RPL202): they
    # own the invariants (build/join second splits, retry counting).
    stats = JoinStatistics()
    stats.record_stage("prepare", t1 - t0)
    stats.record_stage("partition", t2 - t1)
    stats.record_stage("verify", t3 - t2)
    stats.record_stage("merge", t4 - t3)
    for task_result in results:
        stats.record_task(task_result.counters)

    # The declared phases come first, in order; "building" is the
    # prepare stage itself, so one clock times the index build.
    for phase in algorithm.phases:
        stats.record_phase(phase, t1 - t0 if phase == "building" else 0.0)
    for task_result in results:
        # The default "join" phase stays out of the breakdown unless the
        # algorithm declares it, matching the pre-engine convention that
        # only THERMAL-JOIN populates phase_seconds.
        if task_result.phase != "join" or task_result.phase in stats.phase_seconds:
            stats.record_phase(task_result.phase, task_result.seconds)

    stats.record_events(events)
    stats.record_memory(algorithm.memory_footprint())

    if maintenance is not None and on_maintained is not None:
        on_maintained(maintenance)

    # Snapshot the index-internal counters the algorithm's components
    # maintain (P-Grid accounting, tuner state, executor rung, ...).
    registry = getattr(algorithm, "metrics", None)
    if registry is not None:
        stats.record_index_counters(registry.snapshot())

    algorithm.stats = stats
    result = JoinResult(n_results=n_results, stats=stats, keys=keys, n_objects=n_objects)
    # On the stored form: reading ``keys`` here would fold, and ``pairs``
    # decode, every step.
    assert result.count_only == algorithm.count_only, (
        "JoinResult keys must be kept exactly when not count_only"
    )
    return result


def _patch_maintained(
    maintained: MaintainedPairSet, delta: MotionDelta, reverified: PairAccumulator
) -> dict[str, int]:
    """Patch the set with the re-verified pairs; return the counters.

    ``compactions`` is 1 on a step whose patch folded the set (the one
    O(P) write), and ``extra_keys`` counts the keys added since the
    last fold.
    """
    pairs_before = len(maintained)
    compactions_before = maintained.compactions
    dropped, added = maintained.patch(delta.moved_mask(), reverified.as_keys())
    return {
        "pairs_reused": pairs_before - dropped,
        "pairs_dropped": dropped,
        "pairs_reverified": len(reverified),
        "pairs_added": added,
        "maintained_pairs": len(maintained),
        "compactions": maintained.compactions - compactions_before,
        "extra_keys": maintained.extra_keys,
    }
