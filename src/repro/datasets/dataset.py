"""In-memory spatial dataset with in-place position updates.

The paper's experimental methodology (Section 5.1.1) keeps the dataset
as a flat list of spatial objects — MBR, identifier and simulation
attributes — that the simulation application mutates *in place* at every
time step; join algorithms only hold pointers into the list and never
reorder it.  :class:`SpatialDataset` reproduces that contract with a
structure-of-arrays layout: object centers and extents live in numpy
arrays, positions are updated in place by the motion models, and join
algorithms address objects by their stable positional index.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

import numpy as np

from repro.datasets.delta import MotionDelta
from repro.geometry import mbr

__all__ = ["SpatialDataset"]

#: Process-wide deterministic instance counter: datasets created in the
#: same order get the same uids, so cached join state keyed by uid stays
#: reproducible run-to-run.
_UID_COUNTER = itertools.count()

#: Byte cost of one object record in the paper's C++ layout: a 3-D MBR as
#: six doubles (48 B), a 64-bit identifier and two 64-bit attribute slots
#: (Figure 3 shows ``ID, MBR, atr1, atr2`` entries).
OBJECT_RECORD_BYTES = 48 + 8 + 16


def _validate_placement(centers: np.ndarray, widths: np.ndarray) -> None:
    """Refuse centers whose boxes are non-finite or round to zero extent.

    Every join tests overlap strictly, so a box whose bounds round to
    one value (a width of 1 at 1e17) overlaps nothing; refusing it keeps
    all joins on the domain that the brute-force oracle accepts.
    """
    half = widths / 2.0
    mbr.validate_boxes(centers - half, centers + half)


class SpatialDataset:
    """A collection of moving 3-D spatial objects.

    Parameters
    ----------
    centers:
        ``(n, 3)`` array of object center coordinates.  Mutated in place
        by the motion models during a simulation.
    widths:
        Object extents: scalar (all objects share one cubic width — the
        paper's standard setting), ``(n,)`` per-object cubic widths, or
        ``(n, 3)`` per-object per-dimension widths.
    bounds:
        Optional ``(lo, hi)`` pair with the simulation domain bounds.
        Motion models use it to reflect objects at the boundary; when
        omitted it is derived from the initial data on first access.
    attributes:
        Optional mapping of named per-object attribute arrays (mass,
        conductivity, ...).  Carried along but never interpreted.
    """

    def __init__(
        self,
        centers: np.ndarray,
        widths: np.ndarray | float,
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
        attributes: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        centers = np.ascontiguousarray(centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != mbr.DIMENSIONS:
            raise ValueError(
                f"centers must have shape (n, {mbr.DIMENSIONS}), got {centers.shape}"
            )
        if centers.shape[0] == 0:
            raise ValueError("a dataset needs at least one object")
        widths = np.asarray(widths, dtype=np.float64)
        if widths.ndim == 0:
            widths_full = np.full_like(centers, float(widths))
        elif widths.ndim == 1:
            if widths.shape[0] != centers.shape[0]:
                raise ValueError(
                    f"per-object widths length {widths.shape[0]} does not "
                    f"match {centers.shape[0]} centers"
                )
            widths_full = np.repeat(widths[:, None], centers.shape[1], axis=1)
        elif widths.shape == centers.shape:
            widths_full = widths.copy()
        else:
            raise ValueError(
                f"widths shape {widths.shape} does not match centers shape "
                f"{centers.shape}"
            )
        if not np.isfinite(widths_full).all() or not (widths_full > 0).all():
            raise ValueError("object widths must be strictly positive and finite")
        _validate_placement(centers, widths_full)
        self.centers = centers
        self.widths = np.ascontiguousarray(widths_full)
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        if bounds is not None:
            b_lo = np.asarray(bounds[0], dtype=np.float64)
            b_hi = np.asarray(bounds[1], dtype=np.float64)
            if b_lo.shape != (mbr.DIMENSIONS,) or b_hi.shape != (mbr.DIMENSIONS,):
                raise ValueError("bounds must be a pair of 3-vectors")
            if not (b_lo < b_hi).all():
                raise ValueError("bounds must satisfy lo < hi componentwise")
            self._bounds = (b_lo, b_hi)
        self.attributes: dict[str, np.ndarray] = {}
        if attributes:
            for name, values in attributes.items():
                values = np.asarray(values)
                if values.shape[0] != centers.shape[0]:
                    raise ValueError(
                        f"attribute {name!r} has {values.shape[0]} entries for "
                        f"{centers.shape[0]} objects"
                    )
                self.attributes[name] = values
        #: Monotonic counter bumped by every in-place position update; join
        #: algorithms use it to detect that a rebuild/refresh is required.
        self.version = 0
        #: Deterministic per-instance identity; deltas and maintained join
        #: state are pinned to it so state cached against one dataset is
        #: never applied to another (``with_enlarged_extent`` views get a
        #: fresh uid for the same reason).
        self.uid = next(_UID_COUNTER)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.centers.shape[0]

    @property
    def n_objects(self) -> int:
        """Number of objects in the dataset."""
        return self.centers.shape[0]

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Simulation domain bounds ``(lo, hi)``.

        Derived lazily from the current object boxes when not supplied at
        construction time.
        """
        if self._bounds is None:
            lo, hi = self.boxes()
            self._bounds = mbr.union_bounds(lo, hi)
        return self._bounds

    @property
    def max_width(self) -> float:
        """Largest object width over all objects and dimensions.

        THERMAL-JOIN determines this while loading the dataset (Section
        4.2.1) and sizes the P-Grid relative to it.
        """
        return float(self.widths.max())

    @property
    def min_width(self) -> float:
        """Smallest object width over all objects and dimensions."""
        return float(self.widths.min())

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Current object MBRs as ``(lo, hi)`` arrays of shape ``(n, 3)``."""
        half = self.widths / 2.0
        return self.centers - half, self.centers + half

    # ------------------------------------------------------------------
    # In-place mutation (the simulation side of the contract)
    # ------------------------------------------------------------------
    def update_positions(self, new_centers: np.ndarray) -> None:
        """Overwrite all object centers in place (one simulation step)."""
        new_centers = np.asarray(new_centers, dtype=np.float64)
        if new_centers.shape != self.centers.shape:
            raise ValueError(
                f"new centers shape {new_centers.shape} does not match "
                f"{self.centers.shape}"
            )
        _validate_placement(new_centers, self.widths)
        self.centers[:] = new_centers
        self.version += 1

    def translate(self, deltas: np.ndarray) -> None:
        """Add per-object displacement vectors to the centers in place."""
        new_centers = self.centers + np.asarray(deltas, dtype=np.float64)
        _validate_placement(new_centers, self.widths)
        self.centers[:] = new_centers
        self.version += 1

    def commit_motion(self, before: np.ndarray) -> MotionDelta:
        """Commit an in-place center mutation and describe it as a delta.

        The delta-aware update path of the step lifecycle: the motion
        model snapshots ``centers`` (``before``), mutates the dataset in
        place, then calls ``commit_motion`` with the snapshot.  The
        version bump and the :class:`~repro.datasets.delta.MotionDelta`
        are produced together, so the delta provably describes exactly
        the ``version → version + 1`` transition.

        Only the moved rows are checked against the box domain.  A motion
        that leaves one of them with a non-finite or zero-extent box is
        refused with ``ValueError``: the moved rows are restored from
        ``before`` and the version is not bumped.
        """
        before = np.asarray(before, dtype=np.float64)
        if before.shape != self.centers.shape:
            raise ValueError(
                f"snapshot shape {before.shape} does not match centers "
                f"shape {self.centers.shape}"
            )
        delta = MotionDelta.from_positions(
            before,
            self.centers,
            dataset_uid=self.uid,
            base_version=self.version,
            version=self.version + 1,
        )
        # When every object moved, check the arrays themselves: a gather
        # of all rows would cost more than the check.
        moved = slice(None) if delta.moved.size == len(self) else delta.moved
        try:
            _validate_placement(self.centers[moved], self.widths[moved])
        except ValueError:
            self.centers[moved] = before[moved]
            raise
        self.version = delta.version
        return delta

    # ------------------------------------------------------------------
    # Derived datasets
    # ------------------------------------------------------------------
    def with_enlarged_extent(self, distance: float) -> SpatialDataset:
        """Dataset view for a distance join with predicate ``distance``.

        Implements the paper's reduction (Section 3.1): enlarging every
        object's extent by ``distance`` turns "pairs within distance d"
        into an ordinary overlap join.  The returned dataset *shares* the
        center array (so simulation updates remain visible) but has its
        own enlarged width array.
        """
        # Finite and non-negative keeps every enlarged box in the domain.
        if not 0 <= distance < np.inf:
            raise ValueError(f"distance must be finite and non-negative, got {distance}")
        enlarged = SpatialDataset.__new__(SpatialDataset)
        enlarged.centers = self.centers
        enlarged.widths = self.widths + distance
        enlarged._bounds = self._bounds
        enlarged.attributes = self.attributes
        enlarged.version = self.version
        enlarged.uid = next(_UID_COUNTER)
        return enlarged

    def copy(self) -> SpatialDataset:
        """Deep copy (centers, widths and attributes are duplicated)."""
        return SpatialDataset(
            self.centers.copy(),
            self.widths.copy(),
            bounds=self._bounds,
            attributes={k: v.copy() for k, v in self.attributes.items()},
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_nbytes(self) -> int:
        """Footprint of the raw object list in the paper's C-struct model."""
        return self.n_objects * OBJECT_RECORD_BYTES

    def __repr__(self) -> str:
        return (
            f"SpatialDataset(n={self.n_objects}, "
            f"width=[{self.min_width:.3g}, {self.max_width:.3g}], "
            f"version={self.version})"
        )
