"""Common interface, statistics and accounting for all join algorithms.

Every join in this repository — THERMAL-JOIN and the eight baselines —
implements :class:`SpatialJoinAlgorithm`.  The contract mirrors the
paper's methodology (Section 5.1.1):

* the dataset is mutated in place by the simulation between steps and is
  in a consistent state when :meth:`step` runs;
* algorithms never reorder the dataset's object list; they refer to
  objects by positional index;
* per step, an algorithm (re)builds or refreshes its index and then
  computes the full self-join, reporting canonical unique pairs;
* algorithms are instrumented: pairwise overlap-test counts (the
  machine-independent cost metric of Figure 7(c)), per-phase wall time,
  and an analytic memory footprint in a C-struct cost model so the
  footprint comparisons of Figures 7(d) and 10(b) are like-for-like
  (Python object overhead would otherwise dominate and distort them).

Footprint model constants correspond to the paper-era C++
implementation: 8-byte pointers and identifiers, 3-D MBRs as six
doubles.

Statistics are written through the recording methods on
:class:`JoinStatistics` (enforced by repro-lint rule RPL202): the
fields are aggregates with invariants — ``build_seconds`` mirrors the
prepare stage, ``join_seconds`` the remaining stages, ``task_retries``
the retry-class events — and the methods are the single place those
invariants live.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import numpy as np

    from repro.datasets.dataset import SpatialDataset
    from repro.datasets.delta import MotionDelta
    from repro.engine.executors import Executor
    from repro.engine.plan import JoinPlan
    from repro.geometry.pairs import KeySnapshot, PairAccumulator
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "POINTER_BYTES",
    "ID_BYTES",
    "MBR_BYTES",
    "FLOAT_BYTES",
    "RETRY_EVENT_KINDS",
    "JoinStatistics",
    "JoinResult",
    "SpatialJoinAlgorithm",
]

#: Size of a pointer in the modelled C++ implementation.
POINTER_BYTES = 8
#: Size of an object/cell identifier.
ID_BYTES = 8
#: Size of a 3-D MBR stored as six IEEE doubles.
MBR_BYTES = 48
#: Size of one double-precision float.
FLOAT_BYTES = 8

#: Robustness-event kinds that represent a re-execution of a task.
#: Defined here because ``JoinStatistics.task_retries`` is *defined* as
#: the count of these kinds; the executors re-export the tuple.
RETRY_EVENT_KINDS = ("task_retry", "task_timeout")


@dataclass
class JoinStatistics:
    """Instrumentation for one join step.

    Attributes
    ----------
    overlap_tests:
        Number of pairwise MBR overlap predicates evaluated.  Hot-spot
        emits and enclosure shortcuts produce results *without* tests,
        which is exactly what the paper's Figure 7(c) measures.
    build_seconds:
        Wall time spent building or refreshing the index.
    join_seconds:
        Wall time spent computing the join proper.
    memory_bytes:
        Analytic index footprint right after the step (C-struct model).
    phase_seconds:
        Optional finer breakdown (THERMAL-JOIN reports ``internal`` and
        ``external`` join phases for Figure 10(a)).
    stage_seconds:
        Wall time per engine stage: ``prepare`` (index build/refresh),
        ``partition`` (plan emission), ``verify`` (task execution) and
        ``merge`` (shard/statistics aggregation).  ``build_seconds`` and
        ``join_seconds`` remain the stage sums existing figures consume.
    task_counters:
        One counters dict per executed plan task, in task order
        (``overlap_tests`` plus algorithm-specific counters such as
        ``shortcut_pairs``).
    events:
        Robustness events the executor recorded during the step, in
        occurrence order.  Each is a dict with a ``kind`` key —
        ``task_retry``, ``task_timeout``,
        ``pool_broken``, ``pool_rebuild`` or ``degraded`` — plus
        kind-specific detail (task index, error repr, downgrade rung).
        Empty on a clean step.
    task_retries:
        Number of task re-executions behind this step's result (the
        retry-class events above); 0 on a clean step.  Recovered steps
        still report pair sets and overlap tests identical to serial —
        these fields only make the recovery visible.
    index_counters:
        Snapshot of the algorithm's :class:`~repro.obs.MetricsRegistry`
        taken right after the step: the index-internal counters each
        component maintains (P-Grid cell accounting, T-Grid fallbacks,
        tuner state, executor degradation rung), as a
        ``{provider: {metric: scalar}}`` tree.  Empty for algorithms
        that register no providers beyond the executor default.
    """

    overlap_tests: int = 0
    build_seconds: float = 0.0
    join_seconds: float = 0.0
    memory_bytes: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    task_counters: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    task_retries: int = 0
    index_counters: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Build plus join wall time for the step."""
        return self.build_seconds + self.join_seconds

    # ------------------------------------------------------------------
    # Recording methods — the only sanctioned write paths (RPL202)
    # ------------------------------------------------------------------
    def add_overlap_tests(self, tests: int) -> None:
        """Charge ``tests`` pairwise overlap predicates to the step."""
        self.overlap_tests += int(tests)

    def record_task(self, counters: Mapping[str, Any]) -> None:
        """Fold one executed task's counters into the step aggregate.

        Appends a private copy to :attr:`task_counters` and charges the
        task's ``overlap_tests`` share, keeping the step total equal to
        the sum over tasks by construction.
        """
        self.overlap_tests += int(counters.get("overlap_tests", 0))
        self.task_counters.append(dict(counters))

    def record_stage(self, stage: str, seconds: float) -> None:
        """Record one engine stage's wall time.

        Maintains the invariant existing figures rely on:
        ``build_seconds`` is the prepare stage, ``join_seconds`` the sum
        of every other stage.
        """
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + float(seconds)
        if stage == "prepare":
            self.build_seconds += float(seconds)
        else:
            self.join_seconds += float(seconds)

    def record_phase(self, phase: str, seconds: float) -> None:
        """Accumulate wall time for an algorithm-declared join phase."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + float(seconds)

    def record_events(self, events: Iterable[Mapping[str, Any]]) -> None:
        """Append robustness events, counting retry-class kinds.

        ``task_retries`` mirrors the number of retry-class events by
        definition; routing every event through here keeps the two in
        lock-step.
        """
        for event in events:
            self.events.append(dict(event))
            if event.get("kind") in RETRY_EVENT_KINDS:
                self.task_retries += 1

    def record_memory(self, nbytes: int) -> None:
        """Record the post-step analytic index footprint."""
        self.memory_bytes = int(nbytes)

    def record_index_counters(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Store the per-provider index-counter snapshot for the step."""
        self.index_counters = {
            provider: dict(values) for provider, values in snapshot.items()
        }


class JoinResult:
    """Result of one self-join step.

    ``keys`` holds the result pairs as canonical packed keys over
    ``n_objects`` objects (:func:`repro.geometry.pack_pairs`; unique and
    read-only, in emit order, or sorted after a maintained step), or
    ``None`` when the algorithm ran in count-only mode; ``n_results`` is
    always populated.  An incremental step passes the maintained set's
    :class:`~repro.geometry.pairs.KeySnapshot` instead of an array:
    :attr:`keys` folds it into one sorted array on first read and keeps
    that, so a step nobody reads writes no pair-set-sized array.
    :attr:`pairs` likewise decodes the keys on first read and keeps the
    arrays.
    """

    def __init__(
        self,
        n_results: int,
        stats: JoinStatistics,
        keys: np.ndarray | KeySnapshot | None = None,
        n_objects: int = 0,
    ) -> None:
        self.n_results = n_results
        self.stats = stats
        self.n_objects = n_objects
        from repro.geometry.pairs import KeySnapshot

        if keys is not None and not isinstance(keys, KeySnapshot):
            # The array may be the maintained set's own; nobody may write it.
            keys.setflags(write=False)
        self._stored = keys
        self._pairs: tuple | None = None

    def __repr__(self) -> str:
        return (
            f"JoinResult(n_results={self.n_results}, n_objects={self.n_objects}, "
            f"count_only={self.count_only})"
        )

    @property
    def count_only(self) -> bool:
        """Whether the pairs were counted but not kept; reads the stored form."""
        return self._stored is None

    @property
    def keys(self) -> np.ndarray | None:
        """The result's read-only pair keys, or ``None`` in count-only mode."""
        from repro.geometry.pairs import KeySnapshot

        if isinstance(self._stored, KeySnapshot):
            self._stored = self._stored.fold()
        return self._stored

    @property
    def pairs(self) -> tuple | None:
        """Canonical ``(i, j)`` index arrays (``i < j``, unique), or ``None``
        in count-only mode."""
        keys = self.keys
        if keys is None:
            return None
        if self._pairs is None:
            from repro.geometry.pairs import unpack_pairs

            self._pairs = unpack_pairs(keys, self.n_objects)
        return self._pairs


class SpatialJoinAlgorithm:
    """Base class for all self-join algorithms.

    Subclasses implement :meth:`_build` (index construction or refresh
    for the dataset's current positions) and :meth:`_join` (emit pairs
    into an accumulator and return the overlap-test count).  Subclasses
    must emit each qualifying pair exactly once and no others; the test
    suite enforces this against a brute-force oracle.

    Every step runs through the staged execution engine
    (:mod:`repro.engine`): prepare (``_build``), partition (``plan``),
    verify (executor runs the plan's tasks) and merge (shards and
    counters are aggregated).  Algorithms that do not emit a partitioned
    plan inherit the default single-task fallback, so the engine
    interface is universal.

    Parameters
    ----------
    count_only:
        When true, result pairs are counted but not materialised — used
        by large benchmark sweeps where the pair lists would dominate
        memory (the paper similarly reports counts, not result dumps).
    executor:
        Task executor for the verify stage: an
        :class:`~repro.engine.Executor` instance, a spec string
        (``"serial"``, ``"thread[:N]"``, ``"process[:N]"``) or ``None``
        to consult the ``REPRO_EXECUTOR`` environment variable (default
        serial).
    """

    #: Human-readable algorithm name used by the experiment harness.
    name = "abstract"
    #: Phases reported in ``JoinStatistics.phase_seconds``, in order.
    #: ``"building"`` is the prepare stage's wall time; every other
    #: phase sums the wall time of the tasks tagged with it.
    phases: tuple[str, ...] = ()

    def __init__(
        self, count_only: bool = False, executor: Executor | str | None = None
    ) -> None:
        from repro.engine import resolve_executor
        from repro.obs import MetricsRegistry

        self.count_only = count_only
        self.executor: Executor = resolve_executor(executor)
        self.stats = JoinStatistics()
        #: Read-only providers snapshot into ``JoinStatistics.index_counters``
        #: each step; subclasses register their index internals here.
        self.metrics: MetricsRegistry = MetricsRegistry()
        self.metrics.register("executor", self._executor_metrics)

    def _executor_metrics(self) -> dict[str, Any]:
        """Default provider: executor identity and degradation rung."""
        executor = self.executor
        values: dict[str, Any] = {"name": executor.name}
        degraded = executor.degraded
        if degraded is not None:
            values["degraded"] = degraded
        return values

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    def _build(self, dataset: SpatialDataset) -> None:
        """(Re)build or refresh the index for the dataset's current state."""
        raise NotImplementedError

    def _join(self, dataset: SpatialDataset, accumulator: PairAccumulator) -> int:
        """Compute the self-join, emitting pairs; return the test count."""
        raise NotImplementedError

    def plan(self, dataset: SpatialDataset) -> JoinPlan:
        """Partition stage: emit this step's :class:`~repro.engine.JoinPlan`.

        The default wraps ``_join`` as one opaque task; ported
        algorithms override this to emit independent per-cell, per-strip
        or per-subtree tasks an executor can schedule concurrently.
        """
        from repro.engine import FallbackJoinTask, JoinPlan

        return JoinPlan(tasks=[FallbackJoinTask(algorithm=self, dataset=dataset)])

    def memory_footprint(self) -> int:
        """Index footprint in bytes under the C-struct cost model.

        Excludes the raw object list itself (shared by all algorithms;
        see :meth:`SpatialDataset.memory_nbytes`), matching the paper's
        per-index footprint comparison.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def step(self, dataset: SpatialDataset) -> JoinResult:
        """Run one full self-join step through the staged engine.

        Drives prepare → partition → verify → merge via
        :func:`repro.engine.execute_step` and returns a
        :class:`JoinResult`.
        """
        from repro.engine import execute_step

        return execute_step(self, dataset)

    def step_delta(
        self, dataset: SpatialDataset, delta: MotionDelta | None
    ) -> JoinResult:
        """Delta-aware step: join the dataset knowing what just moved.

        ``delta`` describes the motion committed since the previous step
        (or ``None`` when the caller has no delta — the first step of a
        run, or a motion model that predates the delta lifecycle).  The
        result contract is identical to :meth:`step`: algorithms that
        exploit the delta must return exactly the pairs a full re-join
        would.  The default ignores the delta and re-joins from scratch,
        so every algorithm is delta-safe without opting in.
        """
        return self.step(dataset)

    def _unique_keys(self, dataset: SpatialDataset) -> np.ndarray:
        """Run a step and return its sorted distinct pair keys."""
        if self.count_only:
            raise RuntimeError("algorithm was created count_only")
        result = self.step(dataset)
        from repro.geometry import sorted_unique_keys

        assert result.keys is not None
        return sorted_unique_keys(result.keys)

    def join_pairs(self, dataset: SpatialDataset) -> tuple[np.ndarray, np.ndarray]:
        """Convenience: run a step and return sorted unique ``(i, j)`` arrays."""
        from repro.geometry import unpack_pairs

        return unpack_pairs(self._unique_keys(dataset), len(dataset))

    def distance_join(self, dataset: SpatialDataset, distance: float) -> JoinResult:
        """Self-join with a distance predicate (the paper's §3.1 reduction).

        Pairs of objects within ``distance`` of each other (per-dimension,
        on their MBRs) are found by enlarging every extent by ``distance``
        and running the ordinary overlap join.  Returns a
        :class:`JoinResult` expressed in the original dataset's indices.
        """
        return self.step(dataset.with_enlarged_extent(distance))

    def neighbors(self, dataset: SpatialDataset) -> tuple[np.ndarray, np.ndarray]:
        """Per-object neighbour lists in CSR form (offsets, neighbors).

        The representation simulations iterate over: object ``k``'s
        overlap partners are ``neighbors[offsets[k]:offsets[k + 1]]``.
        """
        from repro.geometry import keys_to_adjacency

        return keys_to_adjacency(self._unique_keys(dataset), len(dataset))

    # ------------------------------------------------------------------
    # Checkpoint / recovery protocol
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Resumable cross-step state as (arrays, JSON-able meta).

        The base class is stateless between steps (every step re-joins
        from scratch), so only the algorithm name travels — enough for
        :meth:`restore_state` to reject a mismatched checkpoint.
        Stateful algorithms override both methods together.
        """
        return {}, {"algorithm": self.name}

    def restore_state(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        dataset: SpatialDataset,
    ) -> None:
        """Restore cross-step state captured by :meth:`snapshot_state`.

        ``dataset`` is the restored dataset the next step will run on;
        stateful algorithms re-pin process-local identities (uids)
        against it.  Raises :class:`ValueError` on a checkpoint written
        by a different algorithm.
        """
        recorded = meta.get("algorithm")
        if recorded != self.name:
            raise ValueError(
                f"checkpoint was written by algorithm {recorded!r}, "
                f"cannot restore into {self.name!r}"
            )

    def reset_for_retry(self) -> None:
        """Discard cross-step state before a from-scratch step retry.

        Called by the runner's escalation path when ``step_delta``
        raised past all executor recovery: whatever incremental state
        the failure may have half-mutated is dropped so the retried
        step rebuilds everything it needs.  The stateless base has
        nothing to drop.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
