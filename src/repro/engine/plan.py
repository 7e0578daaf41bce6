"""Join plans and the task vocabulary of the staged execution engine.

A :class:`JoinPlan` is what an algorithm's ``partition`` stage produces:
a *context* of shared, read-only numpy arrays (box coordinates, grouped
object ids, per-group ranges — the arrays a process pool ships through
shared memory once per step) and a list of independent :class:`JoinTask`
units.  Tasks reference context arrays by key, carry only their own
small index arrays, and emit result pairs through the accumulator they
are handed — which is what makes them schedulable by any executor.

Task types
----------
``GroupSelfJoinTask``   within-group pairs of a set of groups (grid
                        cells, PBSM partitions, tree nodes).
``GroupCrossJoinTask``  pairs across explicit (group A, group B) lists
                        (EGO neighbour cells, octree ancestor levels).
``CellPairSweepTask``   THERMAL-JOIN's external join over hyperlinked
                        cell pairs (optimized sweep + enclosure
                        shortcut).
``HotCellsTask``        combinatorial hot-spot emission (no tests).
``SweepStripTask``      one strip of a partitioned global plane sweep.
``FallbackJoinTask``    wraps a legacy ``_join`` as one opaque task so
                        every algorithm runs through the engine even
                        before it is ported to emit partitions.

Tasks declare ``process_safe``: whether they are pure functions of the
context arrays (shippable to a worker process) or closures over live
index objects (run inline in the parent by the process executor).

Tasks are also the engine's unit of *recovery*: because a task only
reads the context and writes its private accumulator, executors may run
it again inline in the parent after a failure, hang or worker crash,
and the merged result is unchanged.  Task authors must
preserve this purity: no mutation of context arrays, no side effects
outside the accumulator and the returned counters.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.geometry import PairAccumulator, chunk_edges_by_volume
from repro.geometry.kernels import (
    PairCallback,
    cell_pair_sweep,
    cross_join_groups,
    hot_cell_emit,
    self_join_groups,
    strip_sweep,
)

if TYPE_CHECKING:
    from repro.datasets import SpatialDataset
    from repro.joins.base import SpatialJoinAlgorithm

__all__ = [
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
]


def chunk_by_volume(counts: np.ndarray, n_tasks: int) -> list[tuple[int, int]]:
    """Split ``range(len(counts))`` into ≤ ``n_tasks`` contiguous slices
    of roughly equal candidate volume.

    Returns a list of ``(start, stop)`` index pairs covering the whole
    range; empty input yields no slices.  Partitioning is deterministic
    (independent of the executor), so statistics are reproducible.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or n_tasks < 1:
        return []
    edges = chunk_edges_by_volume(counts, n_chunks=n_tasks)
    return [(int(edges[k]), int(edges[k + 1])) for k in range(len(edges) - 1)]


@dataclass
class TaskResult:
    """Outcome of one executed task: counters, wall/CPU time, pair shard.

    ``seconds``/``cpu_seconds`` are measured wherever the task actually
    ran — inline, on a pool thread or in a worker process — and carried
    back through this result so the tracer can attribute time to tasks
    without any cross-process machinery.
    """

    counters: dict[str, Any]
    seconds: float
    n_pairs: int
    accumulator: PairAccumulator  # pair shard (merged in task order)
    phase: str
    cpu_seconds: float = 0.0


@dataclass
class JoinPlan:
    """Partitioned description of one join step.

    ``context`` maps names to numpy arrays shared by all tasks;
    ``tasks`` are independent work units; ``on_complete`` (optional) is
    called with the ordered :class:`TaskResult` list during the merge
    stage, letting algorithms aggregate their own diagnostics.
    """

    context: dict[str, np.ndarray] = field(default_factory=dict)
    tasks: list[JoinTask] = field(default_factory=list)
    on_complete: Callable[[list[TaskResult]], None] | None = None


class JoinTask:
    """One independent unit of join work.

    ``run(ctx, accumulator)`` executes against the plan's context arrays,
    emits result pairs into the accumulator, and returns a counters dict
    (``overlap_tests`` plus whatever the algorithm aggregates).
    """

    #: Tag merged into ``JoinStatistics.phase_seconds``.
    phase = "join"
    #: Whether the task may run in a worker process (pure function of
    #: the context arrays and its own fields).
    process_safe = False

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        raise NotImplementedError


@dataclass
class FallbackJoinTask(JoinTask):
    """Single-task plan wrapping an unported algorithm's ``_join``."""

    algorithm: SpatialJoinAlgorithm
    dataset: SpatialDataset
    phase = "join"
    process_safe = False

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests = self.algorithm._join(self.dataset, accumulator)
        return {"overlap_tests": int(tests)}


def _plain_emitter(accumulator: PairAccumulator) -> PairCallback:
    def on_pairs(left: np.ndarray, right: np.ndarray, _groups: np.ndarray) -> None:
        accumulator.extend(left, right)

    return on_pairs


def _reference_point_emitter(
    accumulator: PairAccumulator,
    lo: np.ndarray,
    groups: np.ndarray,
    part_lo: np.ndarray,
    part_hi: np.ndarray,
) -> PairCallback:
    """PBSM reference-point filter over the task's ``groups`` subset.

    A pair is reported only by the partition containing the lower
    corner of the pair's intersection box.  ``self_join_groups`` reports
    each batch's pair positions relative to the ``groups`` array it was
    handed; map them back to global partition ids before testing the
    reference point against the partition bounds.
    """

    def on_pairs(left: np.ndarray, right: np.ndarray, group_pos: np.ndarray) -> None:
        partitions = groups[group_pos]
        ref = np.maximum(lo[left], lo[right])
        inside = np.logical_and(
            (ref >= part_lo[partitions]).all(axis=1),
            (ref < part_hi[partitions]).all(axis=1),
        )
        if inside.any():
            accumulator.extend(left[inside], right[inside])

    return on_pairs


@dataclass
class GroupSelfJoinTask(JoinTask):
    """All within-group pairs of ``groups``.

    ``pair_filter`` is ``None`` (emit every overlapping candidate) or
    ``"reference-point"`` (PBSM's duplicate suppression, reading the
    context's ``part_lo``/``part_hi``).  A plan whose tasks share a
    grouping may store its :func:`~repro.geometry.kernels.grouped_values`
    as ``<cat key>_values``; the kernel then reads it instead of
    rebuilding it in every task.
    """

    groups: np.ndarray
    count: str = "full"
    pair_filter: str | None = None
    keys: tuple[str, str, str] = ("cat", "starts", "stops")
    phase: str = "join"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        cat_key, starts_key, stops_key = self.keys
        lo = ctx["lo"]
        if self.pair_filter is None:
            on_pairs = _plain_emitter(accumulator)
        elif self.pair_filter == "reference-point":
            on_pairs = _reference_point_emitter(
                accumulator, lo, self.groups, ctx["part_lo"], ctx["part_hi"]
            )
        else:
            raise ValueError(f"unknown pair filter {self.pair_filter!r}")
        tests = self_join_groups(
            lo,
            ctx["hi"],
            ctx[cat_key],
            ctx[starts_key],
            ctx[stops_key],
            self.groups,
            on_pairs,
            count=self.count,
            values=ctx.get(f"{cat_key}_values"),
        )
        return {"overlap_tests": tests}


@dataclass
class GroupCrossJoinTask(JoinTask):
    """Pairs across explicit (A-group, B-group) lists."""

    pair_a: np.ndarray
    pair_b: np.ndarray
    count: str = "full"
    a_keys: tuple[str, str, str] = ("cat", "starts", "stops")
    b_keys: tuple[str, str, str] = ("cat", "starts", "stops")
    phase: str = "join"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        cat_a, starts_a, stops_a = (ctx[key] for key in self.a_keys)
        cat_b, starts_b, stops_b = (ctx[key] for key in self.b_keys)
        tests = cross_join_groups(
            ctx["lo"],
            ctx["hi"],
            cat_a,
            starts_a,
            stops_a,
            cat_b,
            starts_b,
            stops_b,
            self.pair_a,
            self.pair_b,
            _plain_emitter(accumulator),
            count=self.count,
            values_a=ctx.get(f"{self.a_keys[0]}_values"),
            values_b=ctx.get(f"{self.b_keys[0]}_values"),
        )
        return {"overlap_tests": tests}


@dataclass
class CellPairSweepTask(JoinTask):
    """External join over a slice of hyperlinked cell pairs.

    Runs the optimized plane sweep with the enclosure shortcut (the
    ``cell_pair_sweep`` kernel) over its own portion of the step's
    cell-pair list.  The context carries the grouping's
    :func:`~repro.geometry.kernels.sweep_index` as
    ``cat_values``/``sweep_keys``, built once per step.
    """

    pair_a: np.ndarray
    pair_b: np.ndarray
    enclosure_shortcut: bool = True
    phase: str = "external"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests, shortcuts = cell_pair_sweep(
            ctx["lo"],
            ctx["hi"],
            ctx["cat"],
            ctx["starts"],
            ctx["stops"],
            ctx["center_lo"],
            ctx["center_hi"],
            self.pair_a,
            self.pair_b,
            accumulator,
            enclosure_shortcut=self.enclosure_shortcut,
            index=(ctx["cat_values"], ctx["sweep_keys"]),
        )
        return {"overlap_tests": tests, "shortcut_pairs": shortcuts}


@dataclass
class HotCellsTask(JoinTask):
    """Combinatorial emission for a set of hot-spot cells (zero tests)."""

    hot_slots: np.ndarray
    phase: str = "internal"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        emitted = hot_cell_emit(
            ctx["cat"], ctx["starts"], ctx["stops"], self.hot_slots, accumulator
        )
        return {"overlap_tests": 0, "shortcut_pairs": emitted}


@dataclass
class SweepStripTask(JoinTask):
    """One strip of the partitioned global plane sweep.

    The dataset is x-sorted once at build; a strip owns the contiguous
    sorted positions ``[start, stop)``.  It runs the forward sweep
    within the strip plus the carried-in windows of earlier objects
    whose x-extent reaches into the strip, so each x-overlapping pair is
    charged exactly once, in the strip of its later object — the global
    sweep's candidate set and test count, decomposed.
    """

    start: int
    stop: int
    carry: np.ndarray  # sorted positions < start with xhi > strip's first xlo
    phase: str = "join"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        tests = strip_sweep(
            ctx["values"], ctx["ids"], self.start, self.stop, self.carry, accumulator
        )
        return {"overlap_tests": tests}
