"""Staged join-execution engine with pluggable executors.

Every join step in this repository runs through the same four-stage
pipeline (the partition-based formulation of Tsitsigkos & Mamoulis and
the candidate-generation/refinement split of adaptive geospatial joins):

``prepare``
    Index construction or incremental refresh for the dataset's current
    positions (each algorithm's ``_build``).
``partition``
    The algorithm emits a :class:`~repro.engine.plan.JoinPlan`: shared
    context arrays plus independent :class:`~repro.engine.plan.JoinTask`
    units — per-cell for grid joins, per-strip for plane sweeps, per
    subtree level for tree joins, or one fallback task wrapping a legacy
    ``_join``.
``verify``
    An :class:`~repro.engine.executors.Executor` schedules the tasks;
    each task calls its verify kernel from
    :mod:`repro.geometry.kernels` directly, emitting pairs into a
    private :class:`~repro.geometry.PairAccumulator` shard.
``merge``
    Shards are merged in task order into one array of canonical pair
    keys, which the :class:`~repro.joins.base.JoinResult` keeps (its
    ``pairs`` decodes them on first read); per-task counters are
    aggregated into :class:`~repro.joins.base.JoinStatistics`.

Executors are interchangeable: results are a pure function of the plan,
so serial, thread-pool and process-pool execution produce identical pair
sets (the test suite enforces this against the brute-force oracle).

That same purity makes tasks *retryable*: the executors recover from
task failures, hangs and worker death (re-run inline, rebuild the
pool, degrade process → thread → serial) without
changing the merged result, and record what happened in
``JoinStatistics.events``.  The fault-injection harness
(:mod:`repro.engine.faults`, ``REPRO_FAULTS``) exists to prove it.
"""

from repro.engine.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    publish_context,
    resolve_executor,
)
from repro.engine.faults import (
    FaultPlan,
    InjectedFault,
    SimulatedCrash,
    format_faults,
    install_fault_plan,
    parse_faults,
)
from repro.engine.plan import (
    CellPairSweepTask,
    FallbackJoinTask,
    GroupCrossJoinTask,
    GroupSelfJoinTask,
    HotCellsTask,
    JoinPlan,
    JoinTask,
    SweepStripTask,
    TaskResult,
    chunk_by_volume,
)
from repro.engine.engine import DEFAULT_PARTITION_TASKS, execute_step
from repro.engine.incremental import (
    INCREMENTAL_ENV_VAR,
    ChurnPolicy,
    incremental_from_env,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "publish_context",
    "resolve_executor",
    "FaultPlan",
    "InjectedFault",
    "SimulatedCrash",
    "format_faults",
    "install_fault_plan",
    "parse_faults",
    "JoinPlan",
    "JoinTask",
    "TaskResult",
    "FallbackJoinTask",
    "GroupSelfJoinTask",
    "GroupCrossJoinTask",
    "CellPairSweepTask",
    "HotCellsTask",
    "SweepStripTask",
    "chunk_by_volume",
    "execute_step",
    "ChurnPolicy",
    "INCREMENTAL_ENV_VAR",
    "incremental_from_env",
    "DEFAULT_PARTITION_TASKS",
]
