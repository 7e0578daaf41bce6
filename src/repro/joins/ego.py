"""Epsilon Grid Order join (Böhm et al. [4]), adapted to 3-D boxes.

EGO lays a uniform grid of width ε over the data, orders the grid cells
lexicographically (the *epsilon grid order*) and joins each cell with
the neighbouring cells of that order using nested loops.  Originally a
similarity join on points, the adaptation for fixed-extent spatial
objects maps each object by its center with ε equal to the largest
object width, so all overlapping pairs lie within one cell layer —
exactly the configuration the paper describes ("the grid resolution
(epsilon) is based on the object size used in the dataset").

Characteristics the paper's evaluation relies on:

* very fast, memory-lean index build (one grid, no hierarchy, objects
  assigned to exactly one cell);
* nested-loop joins inside and between cells, so the overlap-test count
  grows quadratically with cell population — the reason EGO "does not
  scale as the number of objects increase in each grid cell" (§5.2.2).

The index is rebuilt from scratch each time step (throw-away index).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cells import neighbor_pairs, pack_cell_ids
from repro.engine import (
    DEFAULT_PARTITION_TASKS,
    GroupCrossJoinTask,
    GroupSelfJoinTask,
    JoinPlan,
    chunk_by_volume,
)
from repro.geometry import group_by_keys
from repro.joins.base import ID_BYTES, POINTER_BYTES, SpatialJoinAlgorithm

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.datasets import SpatialDataset
    from repro.engine import Executor

__all__ = ["EGOJoin"]


class EGOJoin(SpatialJoinAlgorithm):
    """Epsilon-grid-order self-join with per-cell nested loops.

    Parameters
    ----------
    epsilon_factor:
        Grid width as a multiple of the largest object width (default 1:
        one neighbour layer suffices).
    """

    name = "ego"

    def __init__(self, count_only: bool = False, epsilon_factor: float = 1.0, executor: Executor | None = None) -> None:
        super().__init__(count_only=count_only, executor=executor)
        if epsilon_factor <= 0:
            raise ValueError(f"epsilon_factor must be positive, got {epsilon_factor}")
        self.epsilon_factor = float(epsilon_factor)
        self._index = None

    def _build(self, dataset: SpatialDataset) -> None:
        lo, hi = dataset.boxes()
        epsilon = self.epsilon_factor * dataset.max_width
        origin, _ = dataset.bounds
        coords = np.floor((dataset.centers - origin) / epsilon).astype(np.int64)
        keys = pack_cell_ids(coords)
        cat, starts, stops, unique_keys = group_by_keys(keys)
        layers = max(1, math.ceil(dataset.max_width / epsilon - 1e-9))
        self._index = {
            "lo": lo,
            "hi": hi,
            "cat": cat,
            "starts": starts,
            "stops": stops,
            "keys": unique_keys,
            "layers": layers,
        }

    def plan(self, dataset: SpatialDataset) -> JoinPlan:
        """Within-cell tasks plus neighbour-pair tasks over the grid order.

        The half neighbourhood of every cell is located up front by
        binary search over the epsilon grid order (the sorted cell-key
        array); both the within-cell and between-cell work are then
        split into volume-balanced slices.  The throw-away index is
        discarded at the next build; the reference is kept until then so
        the footprint of the step can be reported.
        """
        index = self._index
        unique_keys = index["keys"]
        context = {
            "lo": index["lo"],
            "hi": index["hi"],
            "cat": index["cat"],
            "starts": index["starts"],
            "stops": index["stops"],
        }
        sizes = index["stops"] - index["starts"]
        tasks = [
            GroupSelfJoinTask(
                groups=np.arange(unique_keys.size, dtype=np.int64)[start:stop],
                count="full",
            )
            for start, stop in chunk_by_volume(
                sizes * sizes, DEFAULT_PARTITION_TASKS
            )
        ]

        # Between-cell nested loops: half neighbourhood located by binary
        # search over the epsilon grid order (the sorted cell-key array).
        pair_a, pair_b = neighbor_pairs(unique_keys, unique_keys, index["layers"])
        if pair_a.size:
            weights = sizes[pair_a] * sizes[pair_b]
            tasks.extend(
                GroupCrossJoinTask(
                    pair_a=pair_a[start:stop],
                    pair_b=pair_b[start:stop],
                    count="full",
                )
                for start, stop in chunk_by_volume(
                    weights, DEFAULT_PARTITION_TASKS
                )
            )
        return JoinPlan(context=context, tasks=tasks)

    def memory_footprint(self) -> int:
        if self._index is None:
            return 0
        n_cells = self._index["keys"].size
        n_objects = self._index["cat"].size
        # Cell key + list header per cell, one pointer per object.
        return n_cells * (ID_BYTES + 16) + n_objects * POINTER_BYTES
