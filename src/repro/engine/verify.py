"""Shared candidate-verification layer for engine tasks.

Partition tasks describe *which* group pairs to compare; this module is
the single place where candidates are handed to the verify kernels.  It
wraps the primitives of :mod:`repro.geometry.kernels` and layers the
per-algorithm deduplication filters on top, so every algorithm's
verification goes through identical code:

* ``plain`` — emit every overlapping candidate (exactly-once plans);
* ``reference-point`` — PBSM's duplicate suppression: a pair is reported
  only by the partition containing the lower corner of the pair's
  intersection box.

A plan whose tasks share a grouping may store its
:func:`~repro.geometry.kernels.grouped_values` in the context as
``<cat key>_values`` (``cat_values``, ``scat_values``, ...); the group
joins then read it instead of rebuilding it in every task.

Overlap-test accounting is inherited unchanged from the kernels
(``count="full"`` nested-loop or ``count="x-sweep"`` forward-sweep
accounting), so partitioning a join into tasks never changes its total
test count.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import PairAccumulator
from repro.geometry.kernels import (
    PairCallback,
    cell_pair_sweep,
    cross_join_groups,
    hot_cell_emit,
    self_join_groups,
    strip_sweep,
)

from collections.abc import Mapping

__all__ = [
    "verify_self_groups",
    "verify_cross_groups",
    "verify_cell_pairs",
    "verify_strip",
    "emit_hot_cells",
]


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

    ``self_join_groups`` reports each batch's pair positions relative to
    the ``groups`` array it was handed; map them back to global partition
    ids before testing the reference point against the partition bounds.
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


def verify_self_groups(
    ctx: Mapping[str, np.ndarray],
    accumulator: PairAccumulator,
    groups: np.ndarray,
    count: str,
    pair_filter: str | None = None,
    cat_key: str = "cat",
    starts_key: str = "starts",
    stops_key: str = "stops",
) -> int:
    """Verify all within-group candidates of ``groups``; return test count."""
    lo = ctx["lo"]
    if pair_filter is None:
        on_pairs = _plain_emitter(accumulator)
    elif pair_filter == "reference-point":
        on_pairs = _reference_point_emitter(
            accumulator, lo, groups, ctx["part_lo"], ctx["part_hi"]
        )
    else:
        raise ValueError(f"unknown pair filter {pair_filter!r}")
    return self_join_groups(
        lo,
        ctx["hi"],
        ctx[cat_key],
        ctx[starts_key],
        ctx[stops_key],
        groups,
        on_pairs,
        count=count,
        values=ctx.get(f"{cat_key}_values"),
    )


def verify_cross_groups(
    ctx: Mapping[str, np.ndarray],
    accumulator: PairAccumulator,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    count: str,
    a_keys: tuple[str, str, str] = ("cat", "starts", "stops"),
    b_keys: tuple[str, str, str] = ("cat", "starts", "stops"),
) -> int:
    """Verify all cross-group candidates of the listed group pairs."""
    cat_a, starts_a, stops_a = (ctx[key] for key in a_keys)
    cat_b, starts_b, stops_b = (ctx[key] for key in b_keys)
    return cross_join_groups(
        ctx["lo"],
        ctx["hi"],
        cat_a,
        starts_a,
        stops_a,
        cat_b,
        starts_b,
        stops_b,
        pair_a,
        pair_b,
        _plain_emitter(accumulator),
        count=count,
        values_a=ctx.get(f"{a_keys[0]}_values"),
        values_b=ctx.get(f"{b_keys[0]}_values"),
    )


def verify_cell_pairs(
    ctx: Mapping[str, np.ndarray],
    accumulator: PairAccumulator,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    enclosure_shortcut: bool = True,
) -> tuple[int, int]:
    """Run the optimized cell-pair sweep (enclosure shortcut included).

    The context carries the grouping's
    :func:`~repro.geometry.kernels.sweep_index` as
    ``cat_values``/``sweep_keys``, built once per step.  Returns
    ``(overlap_tests, shortcut_pairs)``.
    """
    return cell_pair_sweep(
        ctx["lo"],
        ctx["hi"],
        ctx["cat"],
        ctx["starts"],
        ctx["stops"],
        ctx["center_lo"],
        ctx["center_hi"],
        pair_a,
        pair_b,
        accumulator,
        enclosure_shortcut=enclosure_shortcut,
        index=(ctx["cat_values"], ctx["sweep_keys"]),
    )


def verify_strip(
    ctx: Mapping[str, np.ndarray],
    accumulator: PairAccumulator,
    start: int,
    stop: int,
    carry: np.ndarray,
) -> int:
    """Verify one strip of the partitioned global plane sweep."""
    return strip_sweep(
        ctx["lo"], ctx["hi"], ctx["ids"], start, stop, carry, accumulator
    )


def emit_hot_cells(
    ctx: Mapping[str, np.ndarray],
    accumulator: PairAccumulator,
    hot_slots: np.ndarray,
) -> int:
    """Combinatorial emission for hot-spot cells; returns pairs emitted."""
    return hot_cell_emit(
        ctx["cat"], ctx["starts"], ctx["stops"], hot_slots, accumulator
    )
