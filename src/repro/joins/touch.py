"""TOUCH: in-memory spatial join by hierarchical data-oriented partitioning
(Nobari et al. [26]).

TOUCH builds a bulk-loaded hierarchy over one dataset and *assigns* each
object of the other dataset to the lowest node it can unambiguously
descend to: starting at the root, an object follows a child as long as
it overlaps exactly one child MBR; when it overlaps none or several (or
reaches a leaf) it stops.  Each assigned object is then compared only
against the objects below the children it overlaps — a drastic
reduction of overlap tests compared to a synchronous traversal, at the
price of rebuilding the assignment every time step ("it is not designed
for iterative changes to the dataset and the index has to be rebuilt in
every iteration from scratch", §2.1 — the exact property the paper's
Figure 7(b) shows).

For the self-join both roles are played by the same dataset.  Every
qualifying pair is discovered from both sides' assignments, so an
``id < id`` filter reports it exactly once while both discoveries'
tests are counted.  Configuration follows the paper's sweep: fan-out 2.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import cross_join_groups, group_by_keys, overlap_elementwise
from repro.joins.base import MBR_BYTES, POINTER_BYTES, SpatialJoinAlgorithm
from repro.joins.rtree import STRTree

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.datasets import SpatialDataset
    from repro.engine import Executor
    from repro.geometry import PairAccumulator

__all__ = ["TouchJoin"]


class TouchJoin(SpatialJoinAlgorithm):
    """TOUCH self-join over an STR-packed hierarchy.

    Parameters
    ----------
    fanout:
        Hierarchy fan-out (the paper's parameter sweep found 2 best).
    """

    name = "touch"

    def __init__(self, count_only: bool = False, fanout: int = 2, executor: Executor | None = None) -> None:
        super().__init__(count_only=count_only, executor=executor)
        self.fanout = int(fanout)
        self._tree = None
        self._boxes = None

    def _build(self, dataset: SpatialDataset) -> None:
        lo, hi = dataset.boxes()
        self._boxes = (lo, hi)
        self._tree = STRTree(lo, hi, self.fanout)

    def _join(self, dataset: SpatialDataset, accumulator: PairAccumulator) -> None:
        tree = self._tree
        lo, hi = self._boxes
        n = tree.n_objects
        fanout = tree.fanout
        top = tree.n_levels - 1

        def child_overlaps(queries, nodes, child_level):
            """Per fan-out slot: (overlap flags, child indices)."""
            count_below = tree.level_lo[child_level].shape[0]
            box_lo = tree.level_lo[child_level]
            box_hi = tree.level_hi[child_level]
            results = []
            for off in range(fanout):
                child = nodes * fanout + off
                valid = child < count_below
                child_c = np.minimum(child, count_below - 1)
                overlap = np.logical_and(
                    valid,
                    overlap_elementwise(
                        lo[queries], hi[queries], box_lo[child_c], box_hi[child_c]
                    ),
                )
                results.append((overlap, child_c))
            return results

        # Two frontiers, processed level by level from the top:
        # * routing — queries still descending toward their assignment
        #   node (they overlap exactly one child at every step so far);
        # * scanning — range-query probes below an assignment node,
        #   descending into *every* overlapping child.
        # Both turn into exact object tests when they reach the leaves.
        route_q = np.arange(n, dtype=np.int64)
        count_top = tree.level_lo[top].shape[0]
        # A multi-node top level acts as the children of a virtual root
        # (handled below with a temporary fan-out equal to its count), so
        # every query starts at node 0 either way.
        route_node = np.zeros(n, dtype=np.int64)
        scan_q = np.empty(0, dtype=np.int64)
        scan_node = np.empty(0, dtype=np.int64)

        leaf_queries = []
        leaf_nodes = []

        level = top
        first_step = count_top > 1
        while level >= 0:
            if level == 0 and not first_step:
                if route_q.size:
                    leaf_queries.append(route_q)
                    leaf_nodes.append(route_node)
                if scan_q.size:
                    leaf_queries.append(scan_q)
                    leaf_nodes.append(scan_node)
                break
            child_level = level if first_step else level - 1
            # Route: exactly-one-child queries keep descending; the rest
            # are assigned here and spawn scans of each overlapping child.
            next_route_q = next_route_node = None
            new_scan_q = []
            new_scan_node = []
            if route_q.size:
                # First step: children of the virtual root, i.e. every
                # top-level node; afterwards the real fan-out slots.
                slots = (
                    [
                        (
                            overlap_elementwise(
                                lo[route_q],
                                hi[route_q],
                                tree.level_lo[top][c],
                                tree.level_hi[top][c],
                            ),
                            np.full(route_q.size, c, dtype=np.int64),
                        )
                        for c in range(count_top)
                    ]
                    if first_step
                    else child_overlaps(route_q, route_node, child_level)
                )
                overlap_count = np.zeros(route_q.size, dtype=np.int64)
                first_child = np.full(route_q.size, -1, dtype=np.int64)
                for overlap, child_c in slots:
                    first = np.logical_and(overlap, overlap_count == 0)
                    first_child[first] = child_c[first]
                    overlap_count += overlap
                unique = overlap_count == 1
                ambiguous = overlap_count > 1
                next_route_q = route_q[unique]
                next_route_node = first_child[unique]
                for overlap, child_c in slots:
                    scan = np.logical_and(ambiguous, overlap)
                    if scan.any():
                        new_scan_q.append(route_q[scan])
                        new_scan_node.append(child_c[scan])
            # Scan: probes descend into every overlapping child.
            if scan_q.size:
                for overlap, child_c in child_overlaps(scan_q, scan_node, child_level):
                    if overlap.any():
                        new_scan_q.append(scan_q[overlap])
                        new_scan_node.append(child_c[overlap])
            route_q = next_route_q if next_route_q is not None else np.empty(0, np.int64)
            route_node = (
                next_route_node if next_route_node is not None else np.empty(0, np.int64)
            )
            if new_scan_q:
                scan_q = np.concatenate(new_scan_q)
                scan_node = np.concatenate(new_scan_node)
            else:
                scan_q = np.empty(0, dtype=np.int64)
                scan_node = np.empty(0, dtype=np.int64)
            if not first_step:
                level -= 1
            first_step = False

        # Exact object tests at the leaves, batched per leaf.
        def on_pairs(left, right, _groups):
            # left = leaf object, right = query; emit exactly once.
            keep = left < right
            if keep.any():
                accumulator.extend(left[keep], right[keep])

        if not leaf_queries:
            return 0
        queries = np.concatenate(leaf_queries)
        nodes = np.concatenate(leaf_nodes)
        q_cat, q_starts, q_stops, unique_nodes = group_by_keys(nodes, ids=queries)
        sub_starts = unique_nodes * fanout
        sub_stops = np.minimum(sub_starts + fanout, n)
        groups = np.arange(unique_nodes.size, dtype=np.int64)
        return cross_join_groups(
            lo,
            hi,
            tree.leaf_order,
            sub_starts,
            sub_stops,
            q_cat,
            q_starts,
            q_stops,
            groups,
            groups,
            on_pairs,
            count="full",
        )

    def memory_footprint(self) -> int:
        if self._tree is None:
            return 0
        # Hierarchy entries plus one assignment pointer per object.
        return (
            self._tree.n_nodes() * (MBR_BYTES + POINTER_BYTES)
            + self._tree.n_objects * 2 * POINTER_BYTES
        )
