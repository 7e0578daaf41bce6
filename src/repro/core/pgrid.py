"""The P-Grid: THERMAL-JOIN's persistent uniform grid over object centers.

Implements Algorithm 1 and Section 4.3.1 of the paper, in columnar form:

* **Build** — every object is assigned to the (single) cell containing
  its *center*; only non-empty cells enter the cell table; each cell's
  object list is sorted by the objects' lower x bound.  The table is a
  sorted array of packed cell ids, so the half-neighbourhood cells the
  paper reaches through *hyperlinks* are found by
  :func:`~repro.core.cells.neighbor_pairs`, one binary search per
  offset over the whole table — the join never pays hash lookups.
* **Incremental maintenance** — on subsequent steps the table is not
  discarded: cells are recycled, and cells whose population migrated
  away stay in the table as *vacant* (a mask) for future reuse.  Given
  the motion delta since the last refresh, only the moved objects are
  re-sorted: they are spliced out of and back into the per-cell lists.
* **Garbage collection** — when vacant cells exceed a threshold fraction
  (the paper's policy: 35 % of all cells) they are pruned from the table.

Occupied cells are addressed by *slot*: their rank among the occupied
ids, which are sorted like the table.  The stacked per-cell arrays
(``cat``, ``cell_starts``, ...) the batched join reads are in slot order.

The number of neighbour layers follows Section 4.2.1:
``ceil(largest object width / cell width)`` — one layer (13 half
neighbours in 3-D) when the cell width equals the largest object width
(Figure 4a), more when the cells are finer (Figure 4b).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cells import neighbor_pairs, pack_cell_ids, unpack_cell_ids
from repro.joins.base import ID_BYTES, MBR_BYTES, POINTER_BYTES

if TYPE_CHECKING:
    from repro.datasets.delta import MotionDelta

__all__ = ["PGrid"]

#: Fixed per-cell record size in the C-struct footprint model: cell id,
#: cell MBR, min-object MBR, age, and the two list headers of Figure 3.
CELL_RECORD_BYTES = ID_BYTES + MBR_BYTES + MBR_BYTES + 8 + 16 + 16

#: Order of ``cat``: cell id, then lower x bound, then object id — the
#: order ``np.lexsort((xlo, cell))`` gives, ties included.
_SLOT_KEY = np.dtype([("cell", np.int64), ("xlo", np.float64), ("id", np.int64)])


def _slot_keys(cells: np.ndarray, xlo: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The :data:`_SLOT_KEY` records of objects ``ids``, for one binary search."""
    keys = np.empty(ids.size, dtype=_SLOT_KEY)
    keys["cell"] = cells
    keys["xlo"] = xlo
    keys["id"] = ids
    return keys


def _bucket_count(n_cells: int) -> int:
    """Power-of-two hash bucket count at a 0.75 target load factor."""
    need = max(8, int(n_cells / 0.75) + 1)
    return 1 << (need - 1).bit_length()


class PGrid:
    """Persistent uniform grid over object centers.

    Parameters
    ----------
    cell_width:
        Uniform cell side length.  THERMAL-JOIN sets it to ``r`` times
        the largest object width, where ``r`` is the (tuned) normalized
        resolution of Section 4.3.2.
    origin:
        Grid origin; cell ``(0, 0, 0)`` spans ``[origin, origin + w)``.
        Fixed for the grid's lifetime so cell identifiers stay stable
        across incremental refreshes.
    gc_threshold:
        Vacant-cell fraction that triggers garbage collection (paper
        default 0.35).
    """

    def __init__(
        self,
        cell_width: float,
        origin: np.ndarray,
        gc_threshold: float = 0.35,
    ) -> None:
        if cell_width <= 0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        if not 0.0 < gc_threshold <= 1.0:
            raise ValueError(f"gc_threshold must be in (0, 1], got {gc_threshold}")
        self.cell_width = float(cell_width)
        self.origin = np.asarray(origin, dtype=np.float64).copy()
        if self.origin.shape != (3,):
            raise ValueError(f"origin must be a 3-vector, got {self.origin.shape}")
        self.gc_threshold = float(gc_threshold)
        #: Sorted packed ids of every cell in the table, vacant or not.
        self.ids = np.empty(0, dtype=np.int64)
        #: Vacancy mask aligned with ``ids``.
        self.vacant = np.empty(0, dtype=bool)
        # Stacked per-occupied-cell arrays in slot order, set by refresh():
        #: all object indices, grouped by cell and x-sorted within cells.
        self.cat: np.ndarray | None = None
        #: per-cell [start, stop) ranges into ``cat``.
        self.cell_starts: np.ndarray | None = None
        self.cell_stops: np.ndarray | None = None
        #: per-cell per-dimension min/max object widths.
        self.cell_min_width: np.ndarray | None = None
        self.cell_max_width: np.ndarray | None = None
        #: per-cell tight center bounds.
        self.cell_center_lo: np.ndarray | None = None
        self.cell_center_hi: np.ndarray | None = None
        #: Neighbour layers of the external join (set on first build).
        self.layers: int | None = None
        #: ``(dataset uid, version)`` the stacked arrays were last
        #: refreshed for, when the caller named it.
        self.source: tuple[int, int] | None = None
        # Totals backing the O(1) footprint: assigned objects, and the
        # neighbour pairs among table cells (the paper's hyperlinks).
        self._n_objects = 0
        self._n_links = 0
        # Lifetime counters (exposed through ThermalJoin statistics).
        self.cells_created = 0
        self.cells_recycled = 0
        self.gc_runs = 0

    @property
    def n_cells(self) -> int:
        """Number of cells in the table, occupied and vacant."""
        return int(self.ids.size)

    @property
    def n_vacant(self) -> int:
        """Number of currently vacant (structure-kept) cells."""
        return int(np.count_nonzero(self.vacant))

    @property
    def n_occupied(self) -> int:
        """Number of cells with at least one object."""
        return self.n_cells - self.n_vacant

    @property
    def occupied_ids(self) -> np.ndarray:
        """Packed ids of the occupied cells, in slot order."""
        return self.ids[~self.vacant]

    def cell_lo(self, slots: np.ndarray) -> np.ndarray:
        """Lower corners ``(k, 3)`` of the occupied cells at ``slots``."""
        coords = unpack_cell_ids(self.occupied_ids[slots]).astype(np.float64)
        return self.origin + coords * self.cell_width

    # ------------------------------------------------------------------
    # Building and refreshing
    # ------------------------------------------------------------------
    def required_layers(self, max_object_width: float) -> int:
        """Neighbour layers needed so the external join misses no pair.

        Two objects can only overlap when their centers are closer than
        the largest object width ``W`` in every dimension, hence at most
        ``ceil(W / cell_width)`` cells apart.
        """
        ratio = max_object_width / self.cell_width
        return max(1, math.ceil(ratio - 1e-9))

    def refresh(
        self,
        centers: np.ndarray,
        xlo: np.ndarray,
        widths: np.ndarray,
        max_object_width: float,
        source: tuple[int, int] | None = None,
        delta: MotionDelta | None = None,
    ) -> None:
        """Assign all objects to cells, recycling table cells where possible.

        Parameters
        ----------
        centers:
            ``(n, 3)`` current object centers.
        xlo:
            ``(n,)`` lower x bounds of the object MBRs (sort key for the
            per-cell object lists).
        widths:
            ``(n, 3)`` per-object per-dimension widths.
        max_object_width:
            Largest width in the dataset (drives the layer count).
        source:
            ``(dataset uid, version)`` of the positions, recorded as
            :attr:`source`.
        delta:
            The motion since the last refresh, if known.  When it
            bridges :attr:`source` to ``source``, only the moved objects
            are re-sorted (:meth:`_splice`); otherwise every object is
            (:meth:`_assign`).  Both give the same arrays.

        The first call builds from scratch; later calls reuse cells per
        Section 4.3.1.  If the required layer count changed (object
        extents changed), the grid is rebuilt from scratch.
        """
        layers = self.required_layers(max_object_width)
        if self.layers is not None and layers != self.layers:
            self.clear()
        # A layer change cleared ``source`` above, and a dataset keeps its
        # object count for as long as it keeps its uid.
        if (
            delta is not None
            and self.source == (delta.dataset_uid, delta.base_version)
            and source == (delta.dataset_uid, delta.version)
        ):
            occupied = self._splice(centers, xlo, widths, delta.moved)
        else:
            occupied = self._assign(centers, xlo, widths)
        self.layers = layers
        self.source = source

        position = np.searchsorted(self.ids, occupied)
        known = np.zeros(occupied.size, dtype=bool)
        inside = position < self.ids.size
        known[inside] = self.ids[position[inside]] == occupied[inside]
        n_new = occupied.size - int(np.count_nonzero(known))
        self.cells_created += n_new
        self.cells_recycled += occupied.size - n_new
        if n_new:
            new_ids = occupied[~known]
            self.ids = np.insert(self.ids, position[~known], new_ids)
            is_new = np.zeros(self.ids.size, dtype=bool)
            is_new[np.searchsorted(self.ids, new_ids)] = True
            self._n_links += self._links_touching(is_new)
        self.vacant = np.ones(self.ids.size, dtype=bool)
        self.vacant[np.searchsorted(self.ids, occupied)] = False
        self.garbage_collect_if_needed()

    def _cell_ids(self, centers: np.ndarray) -> np.ndarray:
        """Packed ids of the cells holding ``centers``."""
        coords = np.floor((centers - self.origin) / self.cell_width).astype(np.int64)
        return pack_cell_ids(coords)

    def _assign(
        self, centers: np.ndarray, xlo: np.ndarray, widths: np.ndarray
    ) -> np.ndarray:
        """Group every object from scratch: set the stacked per-slot arrays.

        Deterministic given (centers, xlo, widths, origin, cell_width);
        shared by :meth:`refresh` and the checkpoint-restore path so both
        produce identical slot order and per-cell aggregates.  Returns
        the sorted packed ids of the occupied cells.
        """
        packed = self._cell_ids(centers)
        order = np.lexsort((xlo, packed))
        return self._group(order, packed[order], centers, widths)

    def _splice(
        self,
        centers: np.ndarray,
        xlo: np.ndarray,
        widths: np.ndarray,
        moved: np.ndarray,
    ) -> np.ndarray:
        """Re-group only the ``moved`` objects; the same result as :meth:`_assign`.

        The settled objects keep their cell and x bound, so ``cat`` without
        the moved ids is still in :data:`_SLOT_KEY` order.  The moved
        objects are sorted by that key and inserted with one binary
        search, which costs O(moved · log n) plus O(n) copies instead of
        an O(n log n) sort.
        """
        assert self.cat is not None and self.cell_starts is not None
        assert self.cell_stops is not None
        cells = np.repeat(self.occupied_ids, self.cell_stops - self.cell_starts)
        settled = np.ones(centers.shape[0], dtype=bool)
        settled[moved] = False
        keep = settled[self.cat]
        kept = self.cat[keep]
        kept_cells = cells[keep]
        moved_cells = self._cell_ids(centers[moved])
        by_key = np.lexsort((moved, xlo[moved], moved_cells))
        moved = moved[by_key]
        moved_cells = moved_cells[by_key]
        at = np.searchsorted(
            _slot_keys(kept_cells, xlo[kept], kept),
            _slot_keys(moved_cells, xlo[moved], moved),
        )
        return self._group(
            np.insert(kept, at, moved),
            np.insert(kept_cells, at, moved_cells),
            centers,
            widths,
        )

    def _group(
        self,
        order: np.ndarray,
        sorted_packed: np.ndarray,
        centers: np.ndarray,
        widths: np.ndarray,
    ) -> np.ndarray:
        """Set the stacked per-slot arrays from the grouped object order.

        ``order`` lists the object ids in :data:`_SLOT_KEY` order and
        ``sorted_packed`` their cell ids.  Returns the sorted packed ids
        of the occupied cells.
        """
        n = sorted_packed.size
        boundaries = (
            np.empty(0, dtype=np.int64)
            if n == 0
            else np.flatnonzero(sorted_packed[1:] != sorted_packed[:-1]) + 1
        )
        starts = np.concatenate([[0], boundaries]) if n else np.empty(0, dtype=np.int64)
        stops = np.concatenate([boundaries, [n]]) if n else np.empty(0, dtype=np.int64)

        if n:
            # ``take`` gathers whole rows; fancy indexing of a 2-D array
            # costs several times more.
            sorted_widths = np.take(widths, order, axis=0)
            sorted_centers = np.take(centers, order, axis=0)
            self.cell_min_width = np.minimum.reduceat(sorted_widths, starts, axis=0)
            self.cell_max_width = np.maximum.reduceat(sorted_widths, starts, axis=0)
            self.cell_center_lo = np.minimum.reduceat(sorted_centers, starts, axis=0)
            self.cell_center_hi = np.maximum.reduceat(sorted_centers, starts, axis=0)
        else:
            self.cell_min_width = self.cell_max_width = np.empty((0, 3))
            self.cell_center_lo = self.cell_center_hi = np.empty((0, 3))
        self.cat = order
        self.cell_starts = starts
        self.cell_stops = stops
        self._n_objects = int(n)
        return sorted_packed[starts]

    def _links_touching(self, mask: np.ndarray) -> int:
        """Neighbour pairs among table cells with an endpoint in ``mask``."""
        ids = self.ids[mask]
        forward, _ = neighbor_pairs(ids, self.ids, self.layers)
        if ids.size == self.ids.size:
            # Every cell is in the mask (a first build): the forward
            # search alone finds each pair once.
            return int(forward.size)
        _, backward = neighbor_pairs(ids, self.ids, self.layers, direction=-1)
        # A backward neighbour inside the mask counted the pair forward.
        return int(forward.size + np.count_nonzero(~mask[backward]))

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def garbage_collect_if_needed(self) -> int:
        """Prune vacant cells when they exceed the threshold fraction.

        Returns the number of cells collected (0 when below threshold).
        """
        collected = self.n_vacant
        if self.n_cells == 0 or collected <= self.gc_threshold * self.n_cells:
            return 0
        self._n_links -= self._links_touching(self.vacant)
        self.ids = self.ids[~self.vacant]
        self.vacant = np.zeros(self.ids.size, dtype=bool)
        self.gc_runs += 1
        return collected

    def clear(self) -> None:
        """Drop the whole grid (used when the resolution is re-tuned).

        Resets the cell table *and* the stacked batched arrays retained
        by :meth:`refresh` — a stale ``cat``/``cell_starts`` pairing with
        an empty cell table would let a batched consumer read assignments
        from the dropped grid generation.
        """
        self.ids = np.empty(0, dtype=np.int64)
        self.vacant = np.empty(0, dtype=bool)
        self.cat = None
        self.cell_starts = None
        self.cell_stops = None
        self.cell_min_width = None
        self.cell_max_width = None
        self.cell_center_lo = None
        self.cell_center_hi = None
        self.layers = None
        self.source = None
        self._n_objects = 0
        self._n_links = 0

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """Structural snapshot: (arrays, meta) for the checkpoint format.

        The grid is not rebuilt from scratch on restore: a fresh build
        re-creates every cell, spiking ``cells_created`` (an input of the
        tuner's operation cost model), and drops the vacant cells that
        later recycling and GC depend on.  So the table — its cell ids
        and vacancy mask — is serialized, and the per-cell object
        assignments are recomputed deterministically from the dataset.
        """
        arrays = {"cell_ids": self.ids, "vacant": self.vacant}
        meta: dict[str, object] = {
            "cell_width": self.cell_width,
            "origin": [float(c) for c in self.origin],
            "gc_threshold": self.gc_threshold,
            "layers": self.layers,
            "cells_created": self.cells_created,
            "cells_recycled": self.cells_recycled,
            "gc_runs": self.gc_runs,
        }
        return arrays, meta

    @classmethod
    def from_state(
        cls,
        arrays: dict[str, np.ndarray],
        meta: dict[str, object],
        centers: np.ndarray,
        xlo: np.ndarray,
        widths: np.ndarray,
    ) -> PGrid:
        """Rebuild a grid from :meth:`snapshot_state` plus the dataset.

        Raises :class:`ValueError` when the checkpointed structure does
        not match the dataset's current cell occupancy (wrong dataset,
        or a snapshot taken at a different step).
        """
        grid = cls(
            float(meta["cell_width"]),  # type: ignore[arg-type]
            np.asarray(meta["origin"], dtype=np.float64),
            float(meta["gc_threshold"]),  # type: ignore[arg-type]
        )
        layers = meta["layers"]
        grid.layers = None if layers is None else int(layers)  # type: ignore[call-overload]
        grid.cells_created = int(meta["cells_created"])  # type: ignore[call-overload]
        grid.cells_recycled = int(meta["cells_recycled"])  # type: ignore[call-overload]
        grid.gc_runs = int(meta["gc_runs"])  # type: ignore[call-overload]

        grid.ids = np.array(arrays["cell_ids"], dtype=np.int64)
        grid.vacant = np.array(arrays["vacant"], dtype=bool)
        if (np.diff(grid.ids) <= 0).any():
            raise ValueError("checkpointed cell ids must be strictly increasing")
        grid._n_links = int(neighbor_pairs(grid.ids, grid.ids, grid.layers)[0].size)

        occupied = grid._assign(centers, xlo, widths)
        expected = grid.occupied_ids
        if occupied.size != expected.size:
            raise ValueError(
                f"checkpointed grid has {expected.size} occupied cells but the "
                f"dataset occupies {occupied.size}; snapshot/dataset mismatch"
            )
        stray = np.flatnonzero(occupied != expected)
        if stray.size:
            raise ValueError(
                f"dataset occupies cell {int(occupied[stray[0]])} which the "
                "checkpointed grid does not hold occupied; snapshot/dataset mismatch"
            )
        return grid

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_footprint(self) -> int:
        """Grid footprint in bytes under the C-struct model of Figure 3.

        O(1): the object and neighbour-pair totals are maintained as the
        table changes instead of being recounted on each call.
        """
        n_cells = self.n_cells
        if n_cells == 0:
            return 0
        total = _bucket_count(n_cells) * POINTER_BYTES
        total += n_cells * CELL_RECORD_BYTES
        total += (self._n_objects + self._n_links) * POINTER_BYTES
        return total

    def __repr__(self) -> str:
        return (
            f"PGrid(width={self.cell_width:.3g}, cells={self.n_cells}, "
            f"occupied={self.n_occupied}, vacant={self.n_vacant})"
        )
