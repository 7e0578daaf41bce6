"""The T-Grid: throw-away nested grids inside non-hot-spot P-Grid cells.

When a P-Grid cell is not itself a hot spot, THERMAL-JOIN subdivides it
with a temporary grid whose cell width — *per dimension* — equals the
width of the smallest object assigned to that P-Grid cell (Section
4.2.2, Figure 5).  Every T-Grid cell is then a hot spot by construction:

* objects within one T-Grid cell are emitted as results combinatorially,
  without overlap tests;
* objects of different T-Grid cells are joined with the optimized plane
  sweep (including the enclosure shortcut), looking
  ``ceil(max object width / T-cell width)`` layers out per dimension so
  no overlapping pair is missed.

Unlike the P-Grid's cell table, the T-Grid is array-based (the paper:
few cells, negligible empty-cell overhead, very fast to build) and
thrown away after its cell is processed — Algorithm 2's
``TGrid.initialize`` / ``TGrid.clear``.

Implementation note: all T-Grids of a batch of P-Grid cells are built
in *one pass*.  Each P-Grid cell gets its own T-Grid dimensions and a
block of a global T-cell key space; one stable sort on that key groups
every object of the batch into its T-cell (x order kept within cells),
and neighbouring T-cells are found per distinct layer triple with one
binary search per offset.  The joining — hot-spot emission, sweeps with
the enclosure shortcut — then runs in the same whole-batch vectorised
kernels the P-Grid level uses.  Results and test accounting are
identical to processing each T-Grid individually.

A pathological corner the paper's "in practice only a few cells" remark
glosses over: if one extremely small object lands in a cell of much
larger ones, the nominal T-Grid could explode to millions of cells.  We
guard with a cell budget and fall back to a plain in-cell plane sweep —
the result is identical, only the cost model changes for that cell.

The hot-spot emits verify the guarantee from the *actual* center spread
of each T-cell (spread strictly below the smallest member width in
every dimension) rather than from the nominal cell width.  In exact
arithmetic the two are equivalent; the spread form stays sound when
floating-point assignment puts a center an ulp past a cell boundary.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.core.cells import half_neighborhood_offsets
from repro.geometry.kernels import cell_pair_sweep, hot_cell_emit, self_join_groups

if TYPE_CHECKING:
    from collections.abc import Mapping

    from repro.geometry import PairAccumulator

__all__ = ["TGrid", "MAX_CELLS_PER_OBJECT"]

#: Budget factor: a P-Grid cell with ``k`` objects may use at most
#: ``max(64, MAX_CELLS_PER_OBJECT * k)`` T-Grid cells before the
#: plane-sweep fallback kicks in.
MAX_CELLS_PER_OBJECT = 16


class TGrid:
    """Batched T-Grid joiner; holds no state between calls."""

    @staticmethod
    def join_cells(
        ctx: Mapping[str, np.ndarray],
        accumulator: PairAccumulator,
        slots: np.ndarray,
        cell_lo: np.ndarray,
        cell_width: float,
    ) -> dict[str, int]:
        """Internal join of the P-Grid cells at ``slots``, in one pass.

        Parameters
        ----------
        ctx:
            The P-Grid arrays: ``lo``/``hi`` boxes, ``centers`` and
            ``widths`` of the whole dataset, the ``cat``/``starts``/
            ``stops`` grouping and the per-cell ``cell_min_width`` and
            ``cell_max_width``.
        accumulator:
            Pair accumulator receiving the results.
        slots:
            The P-Grid cells to join (their positions in ``starts``).
        cell_lo, cell_width:
            Lower corners ``(k, 3)`` of those cells and the P-Grid cell
            width.

        Returns
        -------
        dict
            ``overlap_tests`` and ``shortcut_pairs``, plus
            ``tgrid_fallbacks`` (cells joined by the fallback sweep) and
            ``tgrid_t_cells`` (occupied T-cells built).
        """
        lo, hi, centers = ctx["lo"], ctx["hi"], ctx["centers"]
        cat, starts, stops = ctx["cat"], ctx["starts"], ctx["stops"]
        counters = {
            "overlap_tests": 0,
            "shortcut_pairs": 0,
            "tgrid_fallbacks": 0,
            "tgrid_t_cells": 0,
        }

        def on_pairs(left, right, _groups):
            accumulator.extend(left, right)

        sizes = stops[slots] - starts[slots]
        multi = sizes > 1
        slots, cell_lo, sizes = slots[multi], cell_lo[multi], sizes[multi]
        t_width = ctx["cell_min_width"][slots]
        extent = (cell_lo + cell_width) - cell_lo
        dims = np.maximum(np.ceil(extent / t_width - 1e-9).astype(np.int64), 1)
        fallback = dims.astype(np.float64).prod(axis=1) > np.maximum(
            64, MAX_CELLS_PER_OBJECT * sizes
        )

        # ---- Fallback cells: plain in-cell sweeps, batched.
        if fallback.any():
            counters["tgrid_fallbacks"] = int(np.count_nonzero(fallback))
            counters["overlap_tests"] += self_join_groups(
                lo, hi, cat, starts, stops, slots[fallback], on_pairs, count="x-sweep"
            )
        keep = ~fallback
        if not keep.any():
            return counters
        slots, cell_lo, sizes = slots[keep], cell_lo[keep], sizes[keep]
        t_width, dims = t_width[keep], dims[keep]
        layers = np.ceil(ctx["cell_max_width"][slots] / t_width - 1e-9).astype(np.int64)
        layers = np.maximum(np.minimum(np.maximum(layers, 1), dims - 1), 0)

        # ---- One-pass T-cell assignment: each P-cell owns the key block
        # [base, base + prod(dims)); a stable sort keeps the x order.
        n_keys = dims.prod(axis=1)
        base = np.cumsum(n_keys) - n_keys
        out_stops = np.cumsum(sizes)
        owner = np.repeat(np.arange(slots.size), sizes)
        obj = cat[np.arange(out_stops[-1]) - (out_stops - sizes)[owner] + starts[slots][owner]]
        local = np.floor((centers[obj] - cell_lo[owner]) / t_width[owner]).astype(np.int64)
        np.clip(local, 0, dims[owner] - 1, out=local)
        owner_dims = dims[owner]
        keys = base[owner] + (
            (local[:, 0] * owner_dims[:, 1] + local[:, 1]) * owner_dims[:, 2] + local[:, 2]
        )
        order = np.argsort(keys, kind="stable")
        t_cat = obj[order]
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        t_starts = np.concatenate([[0], boundaries])
        t_stops = np.concatenate([boundaries, [sorted_keys.size]])
        t_keys = sorted_keys[t_starts]
        t_owner = owner[t_starts]  # the sort never crosses P-cell blocks
        t_coords = local[order[t_starts]]
        counters["tgrid_t_cells"] = int(t_starts.size)

        # ---- Neighbouring T-cell pairs, per distinct layer triple.
        pair_a = [np.empty(0, dtype=np.int64)]
        pair_b = [np.empty(0, dtype=np.int64)]
        last = t_keys.size - 1
        triples, triple_of = np.unique(layers, axis=0, return_inverse=True)
        t_triple = triple_of.reshape(-1)[t_owner]
        for index, triple in enumerate(triples):
            members = np.flatnonzero(t_triple == index)
            coords = t_coords[members]
            member_dims = dims[t_owner[members]]
            member_base = base[t_owner[members]]
            for offset in half_neighborhood_offsets(triple):
                neighbor = coords + offset
                valid = ((neighbor >= 0) & (neighbor < member_dims)).all(axis=1)
                neighbor_keys = member_base + (
                    (neighbor[:, 0] * member_dims[:, 1] + neighbor[:, 1])
                    * member_dims[:, 2]
                    + neighbor[:, 2]
                )
                found = np.minimum(np.searchsorted(t_keys, neighbor_keys), last)
                hit = np.flatnonzero(valid & (t_keys[found] == neighbor_keys))
                pair_a.append(members[hit])
                pair_b.append(found[hit])

        # ---- Batched joining over all T-cells of the batch.
        sorted_centers = centers[t_cat]
        center_lo = np.minimum.reduceat(sorted_centers, t_starts, axis=0)
        center_hi = np.maximum.reduceat(sorted_centers, t_starts, axis=0)
        min_member_width = np.minimum.reduceat(ctx["widths"][t_cat], t_starts, axis=0)
        is_hot = ((center_hi - center_lo) < min_member_width).all(axis=1)
        shared = t_stops - t_starts > 1
        counters["shortcut_pairs"] += hot_cell_emit(
            t_cat, t_starts, t_stops, np.flatnonzero(is_hot & shared), accumulator
        )
        # Floating-point edge: unverifiable T-cells sweep internally.
        counters["overlap_tests"] += self_join_groups(
            lo, hi, t_cat, t_starts, t_stops, np.flatnonzero(~is_hot & shared),
            on_pairs, count="x-sweep",
        )
        pair_a = np.concatenate(pair_a)
        if pair_a.size:
            tests, shortcut_pairs = cell_pair_sweep(
                lo,
                hi,
                t_cat,
                t_starts,
                t_stops,
                center_lo,
                center_hi,
                pair_a,
                np.concatenate(pair_b),
                accumulator,
            )
            counters["overlap_tests"] += tests
            counters["shortcut_pairs"] += shortcut_pairs
        return counters
