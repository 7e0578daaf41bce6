"""Loose Octree join (Samet, Sankaranarayanan & Auerbach [30]).

The loose octree relaxes the MX-CIF containment rule: each cell's
*loose* extent is enlarged by a looseness factor ``p`` (the paper's
sweep found ``p = 0.1`` best), so an object that only slightly straddles
a subdivision plane can still descend to a deeper, smaller cell instead
of being pinned near the root.  Objects are assigned by their center to
the deepest cell whose loose cube still contains them.

The join is the indexed nested loop the paper describes (§5.1.2): the
same dataset is used as the query set; each object performs a range
query that descends into every existing node whose loose cube overlaps
the query MBR and tests the objects stored there.  Every qualifying
pair is therefore discovered twice (once per direction); an
``id < id`` filter reports it exactly once while both discoveries'
overlap tests are counted, as an indexed-nested-loop join pays them.

The traversal is evaluated as a batched breadth-first descent — a
frontier of (query object, node) pairs per depth — so the per-node
work runs through the vectorised group-join primitives.

The tree is rebuilt from scratch every time step.
"""

from __future__ import annotations

import numpy as np

from repro.core.cells import pack_cell_ids
from repro.geometry import (
    cross_join_groups,
    encloses,
    group_by_keys,
    sorted_unique_keys,
)
from repro.joins.base import MBR_BYTES, POINTER_BYTES, SpatialJoinAlgorithm
from repro.joins.octree import MAX_DEPTH, octree_root_cube

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.datasets import SpatialDataset
    from repro.engine import Executor
    from repro.geometry import PairAccumulator

__all__ = ["LooseOctreeJoin"]


def loose_containment_depths(
    lo: np.ndarray,
    hi: np.ndarray,
    centers: np.ndarray,
    origin: np.ndarray,
    root_side: float,
    p: float,
    max_depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deepest depth whose loose cell (around each center) contains each box.

    Containment in the loose cube is monotone up the tree (a parent's
    loose cube contains its children's), so the deepest fitting level is
    found by tightening depth by depth.
    """
    n = lo.shape[0]
    depths = np.zeros(n, dtype=np.int64)
    coords = np.zeros((n, 3), dtype=np.int64)
    active = np.arange(n, dtype=np.int64)
    for depth in range(1, max_depth + 1):
        if active.size == 0:
            break
        cell = root_side / (1 << depth)
        slack = p * cell / 2.0
        cell_coords = np.floor((centers[active] - origin) / cell).astype(np.int64)
        cube_lo = origin + cell_coords * cell - slack
        cube_hi = origin + (cell_coords + 1) * cell + slack
        fits = encloses(cube_lo, cube_hi, lo[active], hi[active])
        fitting = active[fits]
        depths[fitting] = depth
        coords[fitting] = cell_coords[fits]
        active = fitting
    return depths, coords


class LooseOctreeJoin(SpatialJoinAlgorithm):
    """Indexed nested-loop self-join over a loose octree.

    Parameters
    ----------
    looseness:
        Looseness factor ``p``; each cell's loose cube extends the cell
        by ``p * cell_width / 2`` on every side (paper default 0.1).
    max_depth:
        Subdivision depth cap.
    """

    name = "loose-octree"

    def __init__(self, count_only: bool = False, looseness: float = 0.1, max_depth: int = MAX_DEPTH, executor: Executor | None = None) -> None:
        super().__init__(count_only=count_only, executor=executor)
        if looseness < 0:
            raise ValueError(f"looseness must be non-negative, got {looseness}")
        self.looseness = float(looseness)
        self.max_depth = int(max_depth)
        self._index = None

    def _build(self, dataset: SpatialDataset) -> None:
        lo, hi = dataset.boxes()
        origin, root_side = octree_root_cube(dataset)
        depths, coords = loose_containment_depths(
            lo, hi, dataset.centers, origin, root_side, self.looseness, self.max_depth
        )
        deepest = int(depths.max()) if depths.size else 0

        # Per-depth structures: occupied node groups plus the "present"
        # node set (occupied nodes and all their ancestors) that the
        # range-query descent must be able to pass through.
        per_depth = []
        for depth in range(deepest + 1):
            mask = depths == depth
            ids = np.flatnonzero(mask)
            if ids.size:
                keys = pack_cell_ids(coords[ids])
                cat, starts, stops, unique_keys = group_by_keys(keys, ids=ids)
            else:
                empty = np.empty(0, dtype=np.int64)
                cat, starts, stops, unique_keys = empty, empty, empty, empty
            per_depth.append(
                {
                    "cat": cat,
                    "starts": starts,
                    "stops": stops,
                    "occ_keys": unique_keys,
                }
            )
        # Present nodes, bottom-up: occupied ∪ parents of deeper present.
        carried = np.empty((0, 3), dtype=np.int64)
        for depth in range(deepest, -1, -1):
            mask = depths == depth
            occupied_coords = coords[mask]
            present_coords = np.unique(
                np.concatenate([occupied_coords, carried]), axis=0
            )
            level = per_depth[depth]
            level["present_keys"] = (
                pack_cell_ids(present_coords)
                if present_coords.size
                else np.empty(0, dtype=np.int64)
            )
            order = np.argsort(level["present_keys"])
            level["present_keys"] = level["present_keys"][order]
            level["present_coords"] = present_coords[order]
            cell = root_side / (1 << depth)
            slack = self.looseness * cell / 2.0
            level["cube_lo"] = origin + level["present_coords"] * cell - slack
            level["cube_hi"] = origin + (level["present_coords"] + 1) * cell + slack
            carried = present_coords >> 1
        self._index = {
            "lo": lo,
            "hi": hi,
            "per_depth": per_depth,
            "deepest": deepest,
        }

    def _join(self, dataset: SpatialDataset, accumulator: PairAccumulator) -> None:
        index = self._index
        lo = index["lo"]
        hi = index["hi"]
        per_depth = index["per_depth"]
        n = lo.shape[0]

        def on_pairs(left, right, _groups):
            # left = stored object, right = query object.  Report the pair
            # only from the query of the larger id: exactly-once emission.
            keep = left < right
            if keep.any():
                accumulator.extend(left[keep], right[keep])

        tests = 0
        # Frontier: every object starts at the root (present by construction
        # whenever the dataset is non-empty).
        queries = np.arange(n, dtype=np.int64)
        nodes = np.zeros(n, dtype=np.int64)  # root slot at depth 0
        for depth in range(index["deepest"] + 1):
            level = per_depth[depth]
            if queries.size == 0 or level["present_keys"].size == 0:
                break
            # (1) Test queries against objects stored at the visited nodes.
            if level["occ_keys"].size:
                visited_keys = level["present_keys"][nodes]
                occ_slots = np.searchsorted(level["occ_keys"], visited_keys)
                occ_slots = np.clip(occ_slots, 0, level["occ_keys"].size - 1)
                at_occupied = level["occ_keys"][occ_slots] == visited_keys
                if at_occupied.any():
                    q_ids = queries[at_occupied]
                    q_groups_cat, q_starts, q_stops, _keys = group_by_keys(
                        occ_slots[at_occupied], ids=q_ids
                    )
                    unique_slots = sorted_unique_keys(occ_slots[at_occupied])
                    tests += cross_join_groups(
                        lo,
                        hi,
                        level["cat"],
                        level["starts"],
                        level["stops"],
                        q_groups_cat,
                        q_starts,
                        q_stops,
                        unique_slots,
                        np.arange(unique_slots.size, dtype=np.int64),
                        on_pairs,
                        count="full",
                    )
            # (2) Descend: expand each (query, node) to the existing
            # children whose loose cube overlaps the query box.
            if depth == index["deepest"]:
                break
            child_level = per_depth[depth + 1]
            if child_level["present_keys"].size == 0:
                break
            parent_coords = level["present_coords"][nodes]
            next_queries = []
            next_nodes = []
            for ox in (0, 1):
                for oy in (0, 1):
                    for oz in (0, 1):
                        child_coords = parent_coords * 2 + np.asarray(
                            [ox, oy, oz], dtype=np.int64
                        )
                        child_keys = pack_cell_ids(child_coords)
                        slots = np.searchsorted(
                            child_level["present_keys"], child_keys
                        )
                        slots = np.clip(
                            slots, 0, child_level["present_keys"].size - 1
                        )
                        found = (
                            child_level["present_keys"][slots] == child_keys
                        )
                        if not found.any():
                            continue
                        q = queries[found]
                        s = slots[found]
                        overlap = np.logical_and(
                            (lo[q] < child_level["cube_hi"][s]).all(axis=1),
                            (child_level["cube_lo"][s] < hi[q]).all(axis=1),
                        )
                        next_queries.append(q[overlap])
                        next_nodes.append(s[overlap])
            if not next_queries:
                break
            queries = np.concatenate(next_queries)
            nodes = np.concatenate(next_nodes)
        return tests

    def memory_footprint(self) -> int:
        if self._index is None:
            return 0
        # The "present" sets already include every ancestor, so their
        # sizes sum to the materialised node count directly.
        n_nodes = sum(
            level["present_coords"].shape[0] for level in self._index["per_depth"]
        )
        n_objects = self._index["lo"].shape[0]
        node_bytes = MBR_BYTES + 8 * POINTER_BYTES + 16
        return n_nodes * node_bytes + n_objects * POINTER_BYTES
