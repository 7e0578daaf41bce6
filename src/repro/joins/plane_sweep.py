"""Global plane-sweep self-join (Preparata & Shamos [29]).

Sorts the dataset by lower x bound each step (no persistent structures)
and runs the forward sweep: every pair whose x-intervals overlap has its
remaining dimensions tested.  Efficient for low selectivity; degenerates
towards the nested loop as objects grow (Figure 2), which is precisely
the regime THERMAL-JOIN targets.

Under the engine the sweep is decomposed into strips of the sorted
order: a strip sweeps its own slice plus the carried-in windows of
earlier objects whose x-extent reaches into the strip, through the same
window test as THERMAL-JOIN's external join.  Every x-overlapping pair
is charged exactly once — in the strip of its later object — so the
strip decomposition reproduces the global sweep's pair set and test
count for any strip boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.engine import (
    DEFAULT_PARTITION_TASKS,
    JoinPlan,
    SweepStripTask,
    chunk_by_volume,
)
from repro.geometry.kernels import grouped_values
from repro.joins.base import ID_BYTES, SpatialJoinAlgorithm

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.datasets import SpatialDataset
    from repro.engine import Executor

__all__ = ["PlaneSweepJoin"]


class PlaneSweepJoin(SpatialJoinAlgorithm):
    """Forward plane sweep over the x-sorted dataset."""

    name = "plane-sweep"

    def __init__(self, count_only: bool = False, executor: Executor | None = None) -> None:
        super().__init__(count_only=count_only, executor=executor)
        self._sorted = None

    def _build(self, dataset: SpatialDataset) -> None:
        lo, hi = dataset.boxes()
        order = np.argsort(lo[:, 0], kind="stable")
        self._sorted = grouped_values(lo, hi, order), order

    def plan(self, dataset: SpatialDataset) -> JoinPlan:
        """Split the sorted order into sweep strips of balanced volume.

        Strip boundaries are placed by each position's forward-window
        size (its share of the sweep's candidate volume); the carry-in
        set of a strip is every earlier position whose upper x bound
        exceeds the strip's first lower x bound.
        """
        values, ids = self._sorted
        context = {"values": values, "ids": ids}
        xlo, xhi = values[0], values[1]
        n = ids.size
        tasks = []
        if n:
            windows = np.searchsorted(xlo, xhi, side="left")
            window_sizes = np.maximum(
                windows - np.arange(1, n + 1, dtype=np.int64), 0
            )
            for start, stop in chunk_by_volume(
                window_sizes, DEFAULT_PARTITION_TASKS
            ):
                carry = np.flatnonzero(xhi[:start] > xlo[start])  # repro-lint: ignore[RPL201] sorted-x carry-in window, not a pairwise predicate; the sweep kernel charges candidates
                tasks.append(SweepStripTask(start=start, stop=stop, carry=carry))

        def on_complete(_results):
            self._sorted = None  # throw-away, like the paper's variant

        return JoinPlan(context=context, tasks=tasks, on_complete=on_complete)

    def memory_footprint(self) -> int:
        # Only the transient sort permutation is held during a step.
        if self._sorted is None:
            return 0
        return self._sorted[1].size * ID_BYTES
