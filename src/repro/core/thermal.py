"""THERMAL-JOIN: hot-spot based spatial self-join for dynamic workloads.

This is the paper's primary contribution (Section 4), assembled from the
substrates in this package:

1. **Index building** (§4.1) — the :class:`~repro.core.pgrid.PGrid`
   assigns every object to exactly one cell by its center (no
   replication) and keeps only non-empty cells in a sorted cell table,
   whose half-neighbourhood pairs (the paper's hyperlink graph) it finds
   with one binary search per offset.
2. **Joining** (§4.2) — per occupied cell, an *external join* against
   its half neighbourhood (optimized plane sweep with the
   enclosure shortcut) and an *internal join*: hot-spot cells emit all
   object combinations without a single overlap test, other cells are
   subdivided by a throw-away :class:`~repro.core.tgrid.TGrid` whose
   cells are hot spots by construction.
3. **Index maintenance** (§4.3) — cells are recycled across time steps,
   vacant cells garbage-collected at the 35 % threshold, and the grid
   resolution is self-tuned by hill climbing on the per-step cost
   (:class:`~repro.core.tuning.HillClimbingTuner`).

Example
-------
>>> from repro.datasets import make_uniform_workload
>>> from repro.core import ThermalJoin
>>> dataset, motion = make_uniform_workload(2000, width=15.0,
...     bounds=((0, 0, 0), (200, 200, 200)), seed=1)
>>> join = ThermalJoin()
>>> result = join.step(dataset)       # time step 0
>>> motion.step(dataset)              # simulation moves all objects
>>> result = join.step(dataset)       # incremental refresh + join
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cells import neighbor_pairs
from repro.core.pgrid import PGrid
from repro.core.tgrid import TGrid
from repro.core.tuning import HillClimbingTuner
from repro.engine import (
    DEFAULT_PARTITION_TASKS,
    CellPairSweepTask,
    ChurnPolicy,
    GroupCrossJoinTask,
    GroupSelfJoinTask,
    HotCellsTask,
    JoinPlan,
    JoinTask,
    chunk_by_volume,
    execute_step,
    incremental_from_env,
)
from repro.geometry import MaintainedPairSet
from repro.geometry.kernels import DEFAULT_CHUNK_CANDIDATES, grouped_values, sweep_index
from repro.joins.base import SpatialJoinAlgorithm

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from collections.abc import Mapping

    from repro.datasets import SpatialDataset
    from repro.datasets.delta import MotionDelta
    from repro.engine import Executor
    from repro.geometry import PairAccumulator
    from repro.joins.base import JoinResult

__all__ = ["ThermalJoin", "TGridCellsTask"]

# Weights of the deterministic operation-count cost the tuner and the
# churn policy read: one unit per overlap test, plus charges for
# cell-pair join calls, cell creation, cell visits and result emission.
# Coarse by design — it only needs to rank resolutions the same way
# wall time does, machine-independently.
_OPS_CELL_PAIR = 2.0
_OPS_CELL_CREATED = 8.0
_OPS_CELL_VISIT = 2.0
_OPS_RESULT = 0.05

#: Non-hot-spot cells below this population take a plain in-cell plane
#: sweep instead of a T-Grid: building a grid for a handful of objects
#: costs more than it saves, and the T-Grid's target — the paper's
#: dense-cell degeneration — needs a large population.
TGRID_MIN_OBJECTS = 24


def _split_runs(
    cat: np.ndarray, starts: np.ndarray, stops: np.ndarray, flag: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stably split each of the ``S`` runs of a grouping by ``flag``.

    ``cat[starts[s]:stops[s]]`` are run ``s``'s entries, the runs tile
    ``cat`` in order and ``flag`` is aligned with ``cat``.  Returns the
    grouping of ``2S`` runs in which run ``s`` holds run ``s``'s unflagged
    entries and run ``S + s`` its flagged ones, both in their old order,
    so an x-sorted run splits into two x-sorted runs.
    """
    csum = np.concatenate([[0], np.cumsum(flag)])
    flagged = csum[stops] - csum[starts]
    counts = np.concatenate([(stops - starts) - flagged, flagged])
    run_stops = np.cumsum(counts)
    return np.concatenate([cat[~flag], cat[flag]]), run_stops - counts, run_stops


def _run_pairs(
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    filled_a: np.ndarray,
    filled_b: np.ndarray,
    halo_runs: int,
    within: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The run pairs that join the cell pairs ``(pair_a, pair_b)``.

    Without a halo split (``halo_runs == 0``) a cell is one run and the
    pairs come back as given.  With one, cell ``c``'s home run is ``c``
    and its halo run ``c + halo_runs``; each cell pair becomes its
    home×home, home×halo and halo×home run pairs, and never halo×halo.
    ``filled_a`` and ``filled_b`` flag the non-empty runs of each side;
    a run pair with an empty side is left out.  ``within`` says both
    sides are one grouping of distinct cells: then each cell's home run
    also meets its own halo run.
    """
    if not halo_runs:
        return pair_a, pair_b
    home_a = filled_a[:halo_runs][pair_a]
    halo_a = filled_a[halo_runs:][pair_a]
    home_b = filled_b[:halo_runs][pair_b]
    halo_b = filled_b[halo_runs:][pair_b]
    both = home_a & home_b
    to_halo = home_a & halo_b
    from_halo = halo_a & home_b
    runs_a = [pair_a[both], pair_a[to_halo], pair_a[from_halo] + halo_runs]
    runs_b = [pair_b[both], pair_b[to_halo] + halo_runs, pair_b[from_halo]]
    if within:
        own = np.flatnonzero(filled_a[:halo_runs] & filled_a[halo_runs:])
        runs_a.append(own)
        runs_b.append(own + halo_runs)
    return np.concatenate(runs_a), np.concatenate(runs_b)


@dataclass
class TGridCellsTask(JoinTask):
    """Internal join of a slice of the dense cells through T-Grids.

    A pure function of the plan context: its fallback and T-cell counts
    come back as counters, which :class:`ThermalJoin` folds into its
    diagnostics when the step completes.
    """

    slots: np.ndarray
    cell_lo: np.ndarray
    cell_width: float
    phase: str = "internal"
    process_safe = True

    def run(self, ctx: Mapping[str, np.ndarray], accumulator: PairAccumulator) -> dict[str, int]:
        return TGrid.join_cells(ctx, accumulator, self.slots, self.cell_lo, self.cell_width)


class ThermalJoin(SpatialJoinAlgorithm):
    """The THERMAL-JOIN algorithm.

    Parameters
    ----------
    resolution:
        Fixed normalized P-Grid resolution ``r`` (cell width = ``r`` ×
        largest object width).  ``None`` (default) enables the paper's
        self-tuning: no parameter sweep is needed (§5.1.2).  The tuner
        climbs on a deterministic, machine-independent operation count,
        so the chosen ``r`` is the same on every run and executor.
    gc_threshold:
        Vacant-cell fraction triggering garbage collection (paper: 0.35).
    count_only:
        Count results without materialising pairs.
    hot_spots:
        Ablation knob: disable the hot-spot concept entirely — every
        cell's internal join runs as a plane sweep (no combinatorial
        emits, no T-Grids).  Results are identical; cost is not.
    enclosure_shortcut:
        Ablation knob: disable the external join's enclosure shortcut.
    incremental:
        Ablation knob: disable incremental maintenance — the P-Grid is
        rebuilt from scratch every step (the "throw-away index"
        strategy of the static baselines).
    pair_maintenance:
        Maintain the *result* across steps, not just the index: when a
        :class:`~repro.datasets.delta.MotionDelta` arrives through
        :meth:`step_delta`, pairs incident to moved objects are dropped
        and only the moved-incident candidates re-verified; pairs
        between settled objects are reused verbatim.  The maintained set
        is bit-identical to a full re-join at every step.  ``None``
        (default) consults the ``REPRO_INCREMENTAL`` environment
        variable; ``True``/``False`` override it.
    churn_threshold:
        Fixed moved-fraction threshold above which :meth:`step_delta`
        falls back to a full re-join.  ``None`` (default) uses an
        observed, adaptive :class:`~repro.engine.ChurnPolicy` that
        learns the break-even point from measured operation costs;
        ``0.0`` forces a fallback whenever anything moved.
    memory_quota_bytes:
        Optional cap on the P-Grid footprint — the improvement the paper
        sketches in §6.3 ("avoiding a very fine resolution grid that
        would exceed a memory quota given by the user").  Before a build
        the projected footprint of the requested resolution is checked
        and the grid coarsened just enough to fit; the tuner simply
        observes the resulting costs, so it converges within the
        quota-feasible region.
    executor:
        Engine executor for the verify stage (see
        :class:`~repro.joins.base.SpatialJoinAlgorithm`).  §2.1 notes
        that THERMAL-JOIN "can be parallelized like the aforementioned
        approaches": cell pairs are independent work units, so
        ``"thread:N"`` or ``"process:N"`` runs them on ``N`` workers
        with results and statistics identical to the serial run.

    Attributes
    ----------
    halo:
        Optional ``(n,)`` boolean mask over the joined dataset's objects,
        ``None`` by default.  When set, no candidate with both objects
        flagged is formed, so no such pair is emitted: the class-based
        mini-join rule of Tsitsigkos et al. for objects that start
        outside a tile.  :class:`~repro.service.ShardRing` flags each
        shard's halo members, whose pairs among themselves another shard
        owns.  Distance joins and the re-derive of :meth:`restore_state`
        honour it too.
    """

    name = "thermal-join"
    phases = ("building", "internal", "external")

    def __init__(
        self,
        resolution: float | None = None,
        gc_threshold: float = 0.35,
        count_only: bool = False,
        hot_spots: bool = True,
        enclosure_shortcut: bool = True,
        incremental: bool = True,
        pair_maintenance: bool | None = None,
        churn_threshold: float | None = None,
        memory_quota_bytes: int | None = None,
        executor: Executor | str | None = None,
    ) -> None:
        super().__init__(count_only=count_only, executor=executor)
        if memory_quota_bytes is not None and memory_quota_bytes <= 0:
            raise ValueError(
                f"memory_quota_bytes must be positive, got {memory_quota_bytes}"
            )
        if resolution is not None and resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        self.resolution = resolution
        self.tuner = HillClimbingTuner() if resolution is None else None
        self.gc_threshold = gc_threshold
        self.hot_spots = bool(hot_spots)
        self.enclosure_shortcut = bool(enclosure_shortcut)
        self.incremental = bool(incremental)
        self.memory_quota_bytes = memory_quota_bytes
        self.pgrid: PGrid | None = None
        self.halo: np.ndarray | None = None
        # T-Grid diagnostics over the join's lifetime: P-Grid cells joined
        # by the fallback sweep, and the most T-cells built in one step.
        self._tgrid_fallbacks = 0
        self._tgrid_peak_cells = 0
        #: Per-step diagnostics (resolution used, hot-spot counts, ...).
        self.last_step_info: dict[str, object] = {}
        self._boxes = None
        if pair_maintenance is None:
            pair_maintenance = incremental_from_env()
        self.pair_maintenance = bool(pair_maintenance)
        if churn_threshold is None:
            self.churn = ChurnPolicy()
        else:
            self.churn = ChurnPolicy(threshold=churn_threshold, adaptive=False)
        #: The result set carried across steps (pair-maintenance mode).
        self._maintained: MaintainedPairSet | None = None
        self._maintained_uid: int | None = None
        self._maintained_version: int | None = None
        # The halo mask the maintained set was last made under.
        self._maintained_halo: np.ndarray | None = None
        # The delta of the incremental step in flight, for the P-Grid
        # refresh to splice the moved objects (set only by step_delta).
        self._refresh_delta: MotionDelta | None = None
        self._incr: dict[str, object] = {
            "mode": "off",
            "moved_fraction": 0.0,
            "pairs_reused": 0,
            "pairs_dropped": 0,
            "pairs_reverified": 0,
            "pairs_added": 0,
            "maintained_pairs": 0,
            "compactions": 0,
            "extra_keys": 0,
            "fallbacks": 0,
            "full_steps": 0,
            "incremental_steps": 0,
            "churn_threshold": self.churn.threshold,
        }
        self.metrics.register("pgrid", self._pgrid_metrics)
        self.metrics.register("tgrid", self._tgrid_metrics)
        self.metrics.register("tuner", self._tuner_metrics)
        self.metrics.register("incremental", self._incremental_metrics)

    # ------------------------------------------------------------------
    # Metrics providers (read-only; snapshot each step by the engine)
    # ------------------------------------------------------------------
    def _pgrid_metrics(self) -> dict[str, object] | None:
        pgrid = self.pgrid
        if pgrid is None:
            return None
        return {
            "cell_width": pgrid.cell_width,
            "cells": pgrid.n_cells,
            "occupied_cells": pgrid.n_occupied,
            "vacant_cells": pgrid.n_vacant,
            "cells_created": pgrid.cells_created,
            "cells_recycled": pgrid.cells_recycled,
            "gc_runs": pgrid.gc_runs,
            "layers": pgrid.layers,
        }

    def _tgrid_metrics(self) -> dict[str, object]:
        return {
            "fallbacks": self._tgrid_fallbacks,
            "peak_cells": self._tgrid_peak_cells,
        }

    def _tuner_metrics(self) -> dict[str, object]:
        values = {"resolution": self.current_resolution}
        if self.tuner is not None:
            values.update(
                converged=self.tuner.converged,
                tuning_steps=self.tuner.tuning_steps,
                retunes=self.tuner.retunes,
                observations=len(self.tuner.history),
            )
        return values

    def _incremental_metrics(self) -> dict[str, object]:
        values = dict(self._incr)
        values["churn_threshold"] = self.churn.threshold
        return values

    # ------------------------------------------------------------------
    # Build phase
    # ------------------------------------------------------------------
    @property
    def current_resolution(self) -> float:
        """The normalized resolution the next step will use."""
        if self.resolution is not None:
            return float(self.resolution)
        return self.tuner.current_r

    @staticmethod
    def _per_cell_bytes() -> int:
        """Modelled cost of one cell: record + one-layer link budget + bucket."""
        from repro.core.pgrid import CELL_RECORD_BYTES

        return CELL_RECORD_BYTES + 13 * 8 + 8

    def _projected_footprint(self, dataset: SpatialDataset, cell_width: float) -> float:
        """Upper estimate of the P-Grid footprint at ``cell_width``.

        Occupied cells are bounded by both the object count and the
        number of cells covering the domain; the per-cell cost includes
        the record and a one-layer hyperlink budget.
        """
        lo_b, hi_b = dataset.bounds
        grid_cells = float(np.prod(np.ceil((hi_b - lo_b) / cell_width) + 1))
        cells = min(float(len(dataset)), grid_cells)
        return cells * self._per_cell_bytes() + len(dataset) * 8

    def _footprint_floor(self, dataset: SpatialDataset) -> float:
        """The projected footprint's infimum over all cell widths.

        Coarsening can shrink the grid to a single cell but never below
        it, and the per-object list entries are resolution-independent —
        so no resolution fits a quota under this floor.
        """
        return self._per_cell_bytes() + len(dataset) * 8

    def _quota_cell_width(self, dataset: SpatialDataset, cell_width: float) -> float:
        """Coarsen ``cell_width`` until the projected footprint fits.

        Raises :class:`ValueError` when the quota is infeasible: the
        projected footprint never drops below :meth:`_footprint_floor`
        however coarse the grid, so without this check an under-floor
        quota would coarsen forever (the §6.3 hang this guards against).
        """
        if self.memory_quota_bytes is None:
            return cell_width
        floor = self._footprint_floor(dataset)
        if len(dataset) and self.memory_quota_bytes < floor:
            raise ValueError(
                f"memory_quota_bytes={self.memory_quota_bytes} is infeasible "
                f"for {len(dataset)} objects: even a single-cell grid needs "
                f"~{int(floor)} bytes under the footprint model; raise the "
                "quota or shrink the dataset"
            )
        while (
            self._projected_footprint(dataset, cell_width) > self.memory_quota_bytes
        ):
            cell_width *= 1.25
        return cell_width

    def _build(self, dataset: SpatialDataset) -> None:
        lo, hi = dataset.boxes()
        self._boxes = (lo, hi)
        max_width = dataset.max_width
        cell_width = self._quota_cell_width(
            dataset, self.current_resolution * max_width
        )
        if not self.incremental:
            self.pgrid = None  # ablation: rebuild from scratch each step
        if self.pgrid is None or abs(self.pgrid.cell_width - cell_width) > 1e-12:
            # First build, or the resolution was re-tuned: the paper notes
            # every resolution change requires a from-scratch rebuild.
            origin, _ = dataset.bounds
            self.pgrid = PGrid(cell_width, origin, gc_threshold=self.gc_threshold)
        cells_created_before = self.pgrid.cells_created
        self.pgrid.refresh(
            dataset.centers,
            lo[:, 0],
            dataset.widths,
            max_width,
            source=(dataset.uid, dataset.version),
            delta=self._refresh_delta,
        )
        self._cells_created_this_step = self.pgrid.cells_created - cells_created_before

    # ------------------------------------------------------------------
    # Join phase (Algorithm 2), as an engine plan
    # ------------------------------------------------------------------
    def _runs(
        self, dataset: SpatialDataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The P-Grid's grouping, split into home and halo runs under :attr:`halo`.

        Returns ``(cat, starts, stops, halo_runs)``.  Without a mask a run
        is a cell and ``halo_runs`` is 0; with one there are ``2S`` runs
        (:func:`_split_runs`), cell ``c``'s home run ``c`` and its halo run
        ``c + S``, and ``halo_runs`` is ``S``.
        """
        pgrid = self.pgrid
        cat, starts, stops = pgrid.cat, pgrid.cell_starts, pgrid.cell_stops
        if self.halo is None:
            return cat, starts, stops, 0
        halo = np.asarray(self.halo, dtype=bool)
        if halo.shape != (len(dataset),):
            raise ValueError(
                f"halo mask of shape {halo.shape} does not match "
                f"{len(dataset)} objects"
            )
        return (*_split_runs(cat, starts, stops, halo[cat]), int(starts.size))

    def plan(self, dataset: SpatialDataset) -> JoinPlan:
        """Partition the step into external, hot-spot, sweep and T-Grid tasks.

        The external join's neighbouring cell pairs are split into
        volume-balanced :class:`CellPairSweepTask` slices; hot-spot cells
        emit through one :class:`HotCellsTask`; small non-hot cells sweep
        through one :class:`GroupSelfJoinTask`; dense cells go through
        volume-balanced :class:`TGridCellsTask` slices.  The split is
        deterministic, so every executor reproduces the serial run's
        pair set and overlap-test total exactly.

        Under a :attr:`halo` mask each cell's list splits into a home and a
        halo run (:meth:`_runs`).  The internal joins run on home runs
        only, and the external join pairs runs by :func:`_run_pairs`,
        each cell's home run with its own halo run included, so no
        halo×halo candidate is formed.  A cell's aggregates bound any subset of its
        objects, so both runs share them.
        """
        lo, hi = self._boxes
        pgrid = self.pgrid
        cat, starts, stops, halo_runs = self._runs(dataset)
        aggregates = (
            pgrid.cell_center_lo,
            pgrid.cell_center_hi,
            pgrid.cell_min_width,
            pgrid.cell_max_width,
        )
        if halo_runs:
            aggregates = tuple(np.tile(values, (2, 1)) for values in aggregates)
        center_lo, center_hi, min_width, max_width = aggregates
        # Built once per step and shared by every task over the grouping.
        cat_values, sweep_keys = sweep_index(lo, hi, cat, starts, stops)
        context = {
            "lo": lo,
            "hi": hi,
            "centers": dataset.centers,
            "widths": dataset.widths,
            "cat": cat,
            "starts": starts,
            "stops": stops,
            "center_lo": center_lo,
            "center_hi": center_hi,
            "cell_min_width": min_width,
            "cell_max_width": max_width,
            "cat_values": cat_values,
            "sweep_keys": sweep_keys,
        }
        tasks = []
        sizes = stops - starts

        # ---- External join: all neighbouring run pairs, chunked. ----
        occupied = pgrid.occupied_ids
        pair_a, pair_b = neighbor_pairs(occupied, occupied, pgrid.layers)
        if halo_runs:
            filled = sizes > 0
            pair_a, pair_b = _run_pairs(
                pair_a, pair_b, filled, filled, halo_runs, within=True
            )
        cell_pair_joins = int(pair_a.size)
        if pair_a.size:
            weights = sizes[pair_a] * sizes[pair_b]
            for start, stop in chunk_by_volume(weights, DEFAULT_PARTITION_TASKS):
                tasks.append(
                    CellPairSweepTask(
                        pair_a=pair_a[start:stop],
                        pair_b=pair_b[start:stop],
                        enclosure_shortcut=self.enclosure_shortcut,
                    )
                )

        # ---- Internal join: hot spots, small-cell sweeps, T-Grids. ----
        # Slot s of the grid is run s: the whole cell, or its home run.
        home = sizes[: pgrid.cell_starts.size]
        multi = home > 1
        hot_spot_cells = 0
        tgrid_cells = 0
        if self.hot_spots:
            spread_ok = (
                (pgrid.cell_center_hi - pgrid.cell_center_lo) < pgrid.cell_min_width
            ).all(axis=1)
            hot = np.logical_and(multi, spread_ok)
            hot_slots = np.flatnonzero(hot)
            hot_spot_cells = int(hot_slots.size)
            if hot_slots.size:
                tasks.append(HotCellsTask(hot_slots=hot_slots))
            not_hot = np.logical_and(multi, ~spread_ok)
            # A T-Grid only pays off once the cell population is large
            # enough to amortise building it; small non-hot-spot cells
            # take the in-cell plane sweep in one batched task (their
            # sweep cannot "degenerate into a nested-loop join" — the
            # degeneration the paper worries about needs a dense cell).
            large = np.logical_and(not_hot, home >= TGRID_MIN_OBJECTS)
            small_slots = np.flatnonzero(np.logical_and(not_hot, ~large))
            if small_slots.size:
                tasks.append(
                    GroupSelfJoinTask(
                        groups=small_slots, count="x-sweep", phase="internal"
                    )
                )
            tgrid_slots = np.flatnonzero(large)
            tgrid_cells = int(tgrid_slots.size)
            cell_lo = pgrid.cell_lo(tgrid_slots)
            for start, stop in chunk_by_volume(
                home[tgrid_slots], DEFAULT_PARTITION_TASKS
            ):
                tasks.append(
                    TGridCellsTask(
                        slots=tgrid_slots[start:stop],
                        cell_lo=cell_lo[start:stop],
                        cell_width=pgrid.cell_width,
                    )
                )
        else:
            # Ablation: plain plane sweep inside every cell (no hot spots,
            # no T-Grids).  Cell object lists are already x-sorted.
            sweep_slots = np.flatnonzero(multi)
            if sweep_slots.size:
                tasks.append(
                    GroupSelfJoinTask(
                        groups=sweep_slots, count="x-sweep", phase="internal"
                    )
                )

        def on_complete(results):
            def total(counter):
                return sum(int(r.counters.get(counter, 0)) for r in results)

            self._tgrid_fallbacks += total("tgrid_fallbacks")
            self._tgrid_peak_cells = max(self._tgrid_peak_cells, total("tgrid_t_cells"))
            self.last_step_info = {
                "resolution": self.current_resolution,
                "cell_width": self.pgrid.cell_width,
                "occupied_cells": self.pgrid.n_occupied,
                "total_cells": self.pgrid.n_cells,
                "vacant_cells": self.pgrid.n_vacant,
                "hot_spot_cells": hot_spot_cells,
                "tgrid_cells": tgrid_cells,
                "tgrid_fallbacks": self._tgrid_fallbacks,
                "cell_pair_joins": cell_pair_joins,
                "shortcut_pairs": total("shortcut_pairs"),
                "cells_created": self._cells_created_this_step,
                "gc_runs": self.pgrid.gc_runs,
                "layers": self.pgrid.layers,
            }

        return JoinPlan(context=context, tasks=tasks, on_complete=on_complete)

    # ------------------------------------------------------------------
    # Delta join phase: re-verify only moved-incident candidates
    # ------------------------------------------------------------------
    def delta_plan(self, dataset: SpatialDataset, delta: MotionDelta) -> JoinPlan:
        """Partition the re-verification of moved-incident candidates.

        Objects are classified moved/settled from the delta; the refreshed
        P-Grid's runs (:meth:`_runs`: its cells, or their home and halo
        runs) are split into *settled* runs ``[0, R)`` and *moved* runs
        ``[R, 2R)`` of one grouping (both inherit the in-cell x-sort).  Any
        pair with a moved endpoint has centers closer than the largest
        object width per dimension, so its cells are at most
        ``pgrid.layers`` apart — exactly the neighbourhood the full
        join's cell pairs cover.  Three task families emit every such
        candidate exactly once:

        * moved × settled over each moved cell's full neighbourhood
          (including its own cell; settled groups never initiate);
        * moved × moved across distinct cells, once per unordered cell
          pair via the half-neighbourhood offsets;
        * moved × moved within a cell, as a strict-upper-triangle
          self-join.

        Cell pairs become run pairs through :func:`_run_pairs`, as in the
        full plan (under a :attr:`halo` mask a cell's moved home run also
        meets its own moved halo run), so the maintained set is the
        halo-skipping full join, bit for bit.

        All tasks are pure functions of ndarray context (process-safe),
        chunked deterministically, with x-sweep test accounting — so
        executors, retries and fault injection behave exactly as on the
        full plan.  Each cross family gets one task per kernel batch of
        candidates (``DEFAULT_CHUNK_CANDIDATES``), at most
        ``DEFAULT_PARTITION_TASKS``: a low-motion step is a few small
        tasks, and the count still depends on the plan only, never on
        the executor.
        """
        lo, hi = self._boxes
        pgrid = self.pgrid
        n_cells = int(pgrid.cell_starts.size)
        cat, starts, stops, halo_runs = self._runs(dataset)
        runs = int(starts.size)
        cat, starts, stops = _split_runs(cat, starts, stops, delta.moved_mask()[cat])
        counts = stops - starts
        # Every re-verify task reads the one grouping: its candidate
        # columns are built once per step, not once per task.
        context = {
            "lo": lo,
            "hi": hi,
            "cat": cat,
            "starts": starts,
            "stops": stops,
            "cat_values": grouped_values(lo, hi, cat),
        }

        # Enumerate candidate cell pairs around the cells holding moved
        # objects, in both half neighbourhoods.  The lookups are pure
        # functions of the slot arrays, so the pair lists — and the task
        # chunking below — are deterministic.
        occupied = pgrid.occupied_ids
        settled_filled = counts[:runs] > 0
        moved_filled = counts[runs:] > 0
        has_settled = settled_filled.reshape(-1, n_cells).any(axis=0)
        has_moved = moved_filled.reshape(-1, n_cells).any(axis=0)
        moved_slots = np.flatnonzero(has_moved)
        src, front = neighbor_pairs(occupied[moved_slots], occupied, pgrid.layers)
        src = moved_slots[src]
        back_src, back = neighbor_pairs(
            occupied[moved_slots], occupied, pgrid.layers, direction=-1
        )
        back_src = moved_slots[back_src]
        # Moved group × settled group: own cell, front and back neighbours.
        mixed = np.flatnonzero(has_moved & has_settled)
        to_settled = has_settled[front]
        back_settled = has_settled[back]
        ms_a, ms_b = _run_pairs(
            np.concatenate([mixed, src[to_settled], back_src[back_settled]]),
            np.concatenate([mixed, front[to_settled], back[back_settled]]),
            moved_filled,
            settled_filled,
            halo_runs,
        )
        # Moved group × moved group across cells, once per unordered cell
        # pair: only the front half neighbourhood is scanned.  Within a
        # cell, the home run also meets its own halo run.
        to_moved = has_moved[front]
        mm_a, mm_b = _run_pairs(
            src[to_moved], front[to_moved], moved_filled, moved_filled, halo_runs,
            within=True,
        )

        tasks: list[JoinTask] = []

        def cross_tasks(pair_a, pair_b):
            if not pair_a.size:
                return
            weights = counts[pair_a] * counts[pair_b]
            # One task per kernel batch of candidates (a ceiling), capped.
            batches = -(-int(weights.sum()) // DEFAULT_CHUNK_CANDIDATES)
            for start, stop in chunk_by_volume(
                weights, min(DEFAULT_PARTITION_TASKS, batches)
            ):
                tasks.append(
                    GroupCrossJoinTask(
                        pair_a=pair_a[start:stop],
                        pair_b=pair_b[start:stop],
                        count="x-sweep",
                        phase="reverify",
                    )
                )

        cross_tasks(ms_a + runs, ms_b)
        cross_tasks(mm_a + runs, mm_b + runs)
        self_slots = runs + np.flatnonzero(counts[runs : runs + n_cells] > 1)
        if self_slots.size:
            tasks.append(
                GroupSelfJoinTask(groups=self_slots, count="x-sweep", phase="reverify")
            )

        moved_cells = int(moved_slots.size)
        cell_pair_joins = int(ms_a.size + mm_a.size)

        def on_complete(results):
            self.last_step_info = {
                "mode": "incremental",
                "resolution": self.current_resolution,
                "cell_width": self.pgrid.cell_width,
                "occupied_cells": self.pgrid.n_occupied,
                "total_cells": self.pgrid.n_cells,
                "vacant_cells": self.pgrid.n_vacant,
                "moved_objects": delta.n_moved,
                "moved_cells": moved_cells,
                "hot_spot_cells": 0,
                "tgrid_cells": 0,
                "tgrid_fallbacks": self._tgrid_fallbacks,
                "cell_pair_joins": cell_pair_joins,
                "shortcut_pairs": 0,
                "cells_created": self._cells_created_this_step,
                "gc_runs": self.pgrid.gc_runs,
                "layers": self.pgrid.layers,
            }

        return JoinPlan(context=context, tasks=tasks, on_complete=on_complete)

    # ------------------------------------------------------------------
    # Step driver with self-tuning and pair-set maintenance
    # ------------------------------------------------------------------
    def step(self, dataset: SpatialDataset) -> JoinResult:
        if self.pair_maintenance:
            return self._full_step(dataset, mode="full")
        return self._plain_step(dataset)

    def _plain_step(self, dataset: SpatialDataset) -> JoinResult:
        """One from-scratch join step, feeding the resolution tuner."""
        result = super().step(dataset)
        if self.tuner is not None and self.tuner.observe(self._operations_cost(result)):
            # The resolution moved: force a from-scratch rebuild at it.
            self.pgrid = None
        return result

    def _full_step(self, dataset: SpatialDataset, mode: str) -> JoinResult:
        """Full re-join that (re)seeds the maintained pair set.

        The step's pair keys seed the set (sorted, never decoded), so
        ``count_only`` is lifted around the engine step and the returned
        result re-honours it.  The set is seeded only when the tuner is
        converged (or absent) after the step: :meth:`_delta_applicable`
        refuses an unconverged tuner, so the next step would be full
        anyway and a set seeded now would never be read.  The seeded state is
        re-snapshot into ``index_counters`` so the step's record already
        shows the maintained-set size.
        """
        from repro.joins.base import JoinResult

        self._incr.update(
            mode=mode,
            pairs_reused=0,
            pairs_dropped=0,
            pairs_reverified=0,
            pairs_added=0,
            compactions=0,
            extra_keys=0,
        )
        self._incr["full_steps"] = int(self._incr["full_steps"]) + 1
        was_count_only = self.count_only
        self.count_only = False
        try:
            result = self._plain_step(dataset)
        finally:
            self.count_only = was_count_only
        assert result.keys is not None
        if self.tuner is None or self.tuner.converged:
            self._maintained = MaintainedPairSet(len(dataset), result.keys)
            self._maintained_uid = dataset.uid
            self._maintained_version = dataset.version
            self._maintained_halo = self._halo_copy()
        else:
            self._drop_maintained()
        self.churn.observe_full(self._operations_cost(result))
        self._incr["maintained_pairs"] = (
            0 if self._maintained is None else len(self._maintained)
        )
        # Refresh only the incremental entry: re-snapshotting every
        # provider here would run *after* a possible tuner retune
        # dropped the P-Grid, wiping the engine-time pgrid counters.
        result.stats.record_index_counters(
            {
                **result.stats.index_counters,
                "incremental": self._incremental_metrics(),
            }
        )
        return JoinResult(
            n_results=result.n_results,
            stats=result.stats,
            keys=None if was_count_only else result.keys,
            n_objects=result.n_objects,
        )

    def _delta_applicable(self, dataset: SpatialDataset, delta: MotionDelta) -> bool:
        """Whether ``delta`` bridges the maintained state to ``dataset``.

        The delta must describe exactly the ``maintained version →
        current version`` transition of *this* dataset instance, and the
        tuner must be done moving the resolution (while it still climbs,
        full steps are required anyway so it can observe comparable
        costs; drift-retune steps re-enter that state).  The
        :attr:`halo` mask may change only on moved objects.
        """
        return (
            self._maintained is not None
            and delta.dataset_uid == dataset.uid
            and self._maintained_uid == dataset.uid
            and delta.n_objects == len(dataset)
            and delta.base_version == self._maintained_version
            and delta.version == dataset.version
            and (self.tuner is None or self.tuner.converged)
            and self._halo_kept(delta)
        )

    def _halo_copy(self) -> np.ndarray | None:
        return None if self.halo is None else np.array(self.halo, dtype=bool)

    def _halo_kept(self, delta: MotionDelta) -> bool:
        """Whether :attr:`halo` flags every settled object as the maintained set saw it.

        Pairs between settled objects are reused verbatim, so a flag that
        changed on a settled object would keep a pair the mask now skips
        or miss one it now forms.  A moved object's pairs are all
        re-verified under the current mask.
        """
        before, now = self._maintained_halo, self._halo_copy()
        if before is None or now is None:
            return before is None and now is None
        if before.shape != now.shape:
            return False
        changed = before != now
        changed[delta.moved] = False
        return not changed.any()

    def step_delta(self, dataset: SpatialDataset, delta: MotionDelta | None) -> JoinResult:
        """Maintain the pair set through ``delta`` instead of re-joining.

        Falls back to a full (seeding) step when maintenance is off, the
        delta does not match the maintained state, or the churn policy
        rules the moved fraction too high to pay off.
        """
        if not self.pair_maintenance:
            return self.step(dataset)
        if delta is None or not self._delta_applicable(dataset, delta):
            self._incr["moved_fraction"] = (
                0.0 if delta is None else delta.moved_fraction
            )
            return self._full_step(dataset, mode="full")
        moved_fraction = delta.moved_fraction
        self._incr["moved_fraction"] = moved_fraction
        if not self.churn.admits(moved_fraction):
            self._incr["fallbacks"] = int(self._incr["fallbacks"]) + 1
            return self._full_step(dataset, mode="fallback")

        self._incr["mode"] = "incremental"
        self._incr["incremental_steps"] = int(self._incr["incremental_steps"]) + 1
        maintained = self._maintained
        assert maintained is not None
        self._refresh_delta = delta
        try:
            result = execute_step(
                self, dataset, delta, maintained, on_maintained=self._incr.update
            )
        finally:
            # Never left behind for a later build: a raise mid-step must
            # not hand a stale delta to the next refresh.
            self._refresh_delta = None
        self._maintained_version = delta.version
        self._maintained_halo = self._halo_copy()
        # The tuner is NOT fed here: incremental costs are not comparable
        # with the full-join costs it climbs on.  The churn policy is —
        # that is exactly the signal it adapts its threshold from.
        self.churn.observe_incremental(
            float(result.stats.overlap_tests)
            + _OPS_RESULT * float(int(self._incr["pairs_reverified"])),
            moved_fraction,
        )
        return result

    def distance_join(self, dataset: SpatialDataset, distance: float) -> JoinResult:
        """Distance self-join, run on a fresh instance of this configuration.

        The enlarged copy is a one-shot workload, with the same objects,
        so :attr:`halo` applies to it unchanged.  Joining it on this
        instance would feed its cost to the tuner (a false drift that
        retunes ``r``) and re-seed the maintained pair set over a copy no
        later delta refers to (the next :meth:`step_delta` would run
        full).  The fresh instance (:meth:`_fresh`) runs without pair
        maintenance: one step would seed a set nobody reads.
        """
        return self._fresh(self.count_only).step(dataset.with_enlarged_extent(distance))

    def _fresh(self, count_only: bool) -> ThermalJoin:
        """A one-shot instance of this configuration without pair maintenance.

        Built from :meth:`_settings` and sharing the executor and the
        :attr:`halo` mask, so nothing it joins reaches this instance's
        tuner, churn policy, P-Grid or counters.
        """
        fresh = ThermalJoin(
            **{**self._settings(), "pair_maintenance": False},
            count_only=count_only,
            executor=self.executor,
        )
        fresh.halo = self.halo
        return fresh

    def _operations_cost(self, result: JoinResult) -> float:
        """Deterministic cost signal for reproducible tuning."""
        info = self.last_step_info
        return (
            result.stats.overlap_tests
            + _OPS_CELL_PAIR * info.get("cell_pair_joins", 0)
            + _OPS_CELL_CREATED * info.get("cells_created", 0)
            + _OPS_CELL_VISIT * info.get("occupied_cells", 0)
            + _OPS_RESULT * result.n_results
        )

    def memory_footprint(self) -> int:
        if self.pgrid is None:
            return 0
        return self.pgrid.memory_footprint()

    # ------------------------------------------------------------------
    # Checkpoint / recovery protocol
    # ------------------------------------------------------------------
    def _settings(self) -> dict[str, Any]:
        """Every setting that shapes the trajectory, as constructor keywords.

        The one list of this join's configuration: a checkpoint records
        it and is only replayable under an equal list, and
        :meth:`_fresh` builds its one-shot instances from it.
        ``count_only`` and the executor are left out — neither changes a
        pair, a count or a tuner decision.  ``churn_threshold`` is
        ``None`` when the churn policy is adaptive.
        """
        return {
            "resolution": self.resolution,
            "gc_threshold": self.gc_threshold,
            "hot_spots": self.hot_spots,
            "enclosure_shortcut": self.enclosure_shortcut,
            "incremental": self.incremental,
            "pair_maintenance": self.pair_maintenance,
            "churn_threshold": None if self.churn.adaptive else self.churn.threshold,
            "memory_quota_bytes": self.memory_quota_bytes,
        }

    def snapshot_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Full cross-step state: tuner, churn, grids, maintained-set header.

        Everything a resumed run needs to continue bit-identically: the
        tuner's climb state, the churn policy's observed estimates, the
        incremental counters, the T-Grid diagnostics, the P-Grid cell
        table (rebuilding it from scratch would spike ``cells_created`` —
        a tuner cost input — and drop the vacant cells later steps
        recycle) and, when a pair set is maintained, its object count,
        dataset version and pair count.  The pairs themselves are not
        stored: they are a function of the checkpointed positions, and
        :meth:`restore_state` re-derives them with one full join.
        """
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, Any] = {
            "algorithm": self.name,
            "config": self._settings(),
            "tuner": None if self.tuner is None else self.tuner.state_dict(),
            "churn": self.churn.state_dict(),
            "incr": dict(self._incr),
            "tgrid": {
                "fallbacks": self._tgrid_fallbacks,
                "peak_cells": self._tgrid_peak_cells,
            },
            "maintained": None,
            "pgrid": None,
        }
        if self._maintained is not None:
            # Fold the set anyway: a restored set starts folded, so the
            # uninterrupted run must continue from the same parts for the
            # later steps' compactions and extra_keys to agree.
            self._maintained.packed_keys()
            meta["maintained"] = {
                "n": self._maintained.n,
                "version": self._maintained_version,
                "pairs": len(self._maintained),
            }
        if self.pgrid is not None:
            pgrid_arrays, pgrid_meta = self.pgrid.snapshot_state()
            for key, value in pgrid_arrays.items():
                arrays[f"pgrid/{key}"] = value
            meta["pgrid"] = pgrid_meta
        return arrays, meta

    def restore_state(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        dataset: SpatialDataset,
    ) -> None:
        super().restore_state(arrays, meta, dataset)
        recorded = meta.get("config")
        if recorded != self._settings():
            raise ValueError(
                "checkpoint was written under a different ThermalJoin "
                f"configuration: {recorded!r} != {self._settings()!r}"
            )
        tuner_state = meta["tuner"]
        if (tuner_state is None) != (self.tuner is None):
            raise ValueError(
                "checkpoint tuner state does not match this instance's "
                "resolution mode"
            )
        if self.tuner is not None and tuner_state is not None:
            self.tuner.load_state_dict(tuner_state)
        self.churn.load_state_dict(meta["churn"])
        self._incr = dict(meta["incr"])
        self._tgrid_fallbacks = int(meta["tgrid"]["fallbacks"])
        self._tgrid_peak_cells = int(meta["tgrid"]["peak_cells"])

        maintained_meta = meta["maintained"]
        if maintained_meta is None:
            self._drop_maintained()
        else:
            n = int(maintained_meta["n"])
            if n != len(dataset):
                raise ValueError(
                    f"maintained set was built over {n} objects but the "
                    f"restored dataset holds {len(dataset)}"
                )
            # One uncounted full join on a fresh instance: this
            # instance's P-Grid, tuner, churn policy and counters are
            # left as restored.
            result = self._fresh(count_only=False).step(dataset)
            if result.n_results != int(maintained_meta["pairs"]):
                raise ValueError(
                    f"re-derived {result.n_results} maintained pairs but the "
                    f"checkpoint recorded {maintained_meta['pairs']}"
                )
            self._maintained = MaintainedPairSet(n, result.keys)
            # The uid is process-local; the maintained set belongs to the
            # freshly reconstructed dataset by construction.
            self._maintained_uid = dataset.uid
            self._maintained_version = int(maintained_meta["version"])
            self._maintained_halo = self._halo_copy()

        pgrid_meta = meta["pgrid"]
        if pgrid_meta is None:
            self.pgrid = None
        else:
            pgrid_arrays = {
                key.split("/", 1)[1]: value
                for key, value in arrays.items()
                if key.startswith("pgrid/")
            }
            lo, _hi = dataset.boxes()
            self.pgrid = PGrid.from_state(
                pgrid_arrays, pgrid_meta, dataset.centers, lo[:, 0], dataset.widths
            )

    def reset_for_retry(self) -> None:
        """Drop every cross-step structure before a from-scratch retry.

        A failure mid-``step_delta`` may have left the P-Grid refreshed
        but the maintained set half-patched; discarding both makes the
        retried step a clean seeding full join.
        """
        self.pgrid = None
        self._drop_maintained()

    def _drop_maintained(self) -> None:
        self._maintained = None
        self._maintained_uid = None
        self._maintained_version = None
        self._maintained_halo = None
