"""The verify-kernel layer: five flat columnar primitives.

Every candidate-verification routine in the repository — the batched
group joins, THERMAL-JOIN's optimized cell-pair sweep with the enclosure
shortcut, the partitioned global plane sweep's strips, hot-cell
emission — is one of the five primitives re-exported here from
:mod:`repro.geometry.kernels.numpy_backend`:

``self_join_groups``
    All unordered object pairs within each listed group.
``cross_join_groups``
    All object pairs across explicit (group A, group B) pairs.
``cell_pair_sweep``
    Plane sweep over many cell pairs, one window per kept row, with the
    paper's enclosure shortcut; returns ``(overlap_tests, shortcut_pairs)``.
``strip_sweep``
    One strip of the partitioned global plane sweep.
``hot_cell_emit``
    Combinatorial within-cell emission for hot-spot cells (no tests).

Each returns plain ``int`` counters.  ``grouped_values`` (the candidate
columns of a grouping) and ``sweep_index`` (those columns plus the
external join's rank and reach keys) let a plan build per-step inputs
once for all of its tasks.  The five primitives are the seam
where a compiled implementation can be slotted in once one can be
installed and measured against this one.
"""

from __future__ import annotations

from repro.geometry.kernels.numpy_backend import (
    DEFAULT_CHUNK_CANDIDATES,
    PairCallback,
    cell_pair_sweep,
    cross_join_groups,
    grouped_values,
    hot_cell_emit,
    self_join_groups,
    strip_sweep,
    sweep_index,
)

__all__ = [
    "PairCallback",
    "DEFAULT_CHUNK_CANDIDATES",
    "self_join_groups",
    "cross_join_groups",
    "cell_pair_sweep",
    "grouped_values",
    "sweep_index",
    "strip_sweep",
    "hot_cell_emit",
]
