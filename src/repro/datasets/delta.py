"""Typed motion deltas: what changed between two dataset versions.

The paper's simulation loop mutates the object list in place and the
join recomputes from scratch (Section 3.2).  Incremental pair-set
maintenance (ROADMAP item 2) needs more: *which* objects moved.
:class:`MotionDelta` is that record — every motion model returns one
from ``step`` and :class:`~repro.datasets.dataset.SpatialDataset`
produces it through :meth:`~repro.datasets.dataset.
SpatialDataset.commit_motion`, the sanctioned delta-aware update path.

A delta is pinned to a specific dataset instance (``dataset_uid``) and
to a specific version transition (``base_version`` → ``version``), so a
consumer can prove the delta describes exactly the mutation that
separates its cached state from the dataset's current state.  Deltas
for unrelated datasets, or stale deltas, are detectable and must be
rejected rather than applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MotionDelta"]


@dataclass(frozen=True)
class MotionDelta:
    """One committed position update: the indices of the moved objects.

    Attributes
    ----------
    dataset_uid:
        :attr:`SpatialDataset.uid` of the dataset the delta belongs to.
    base_version:
        Dataset version *before* the update was committed.
    version:
        Dataset version *after* the update (``base_version + 1``).
    n_objects:
        Object count at commit time (datasets never resize, but the
        check keeps the contract explicit).
    moved:
        Sorted ``int64`` indices of the objects whose center changed.
    """

    dataset_uid: int
    base_version: int
    version: int
    n_objects: int
    moved: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        moved = np.ascontiguousarray(self.moved, dtype=np.int64)
        if moved.ndim != 1:
            raise ValueError(f"moved must be 1-D, got shape {moved.shape}")
        if moved.size and (moved[0] < 0 or moved[-1] >= self.n_objects):
            raise ValueError("moved indices out of range")
        if moved.size > 1 and (np.diff(moved) <= 0).any():
            raise ValueError("moved indices must be strictly increasing")
        object.__setattr__(self, "moved", moved)

    @property
    def n_moved(self) -> int:
        """Number of objects that moved in this step."""
        return int(self.moved.shape[0])

    @property
    def moved_fraction(self) -> float:
        """Fraction of the dataset that moved — the churn signal."""
        if self.n_objects == 0:
            return 0.0
        return self.n_moved / self.n_objects

    def moved_mask(self) -> np.ndarray:
        """Boolean ``(n_objects,)`` mask, ``True`` where the object moved."""
        mask = np.zeros(self.n_objects, dtype=bool)
        mask[self.moved] = True
        return mask

    @classmethod
    def from_positions(
        cls,
        before: np.ndarray,
        after: np.ndarray,
        *,
        dataset_uid: int,
        base_version: int,
        version: int,
    ) -> MotionDelta:
        """Diff two ``(n, 3)`` center snapshots into a delta."""
        before = np.asarray(before, dtype=np.float64)
        after = np.asarray(after, dtype=np.float64)
        if before.shape != after.shape:
            raise ValueError(
                f"snapshot shapes differ: {before.shape} vs {after.shape}"
            )
        moved = np.flatnonzero((before != after).any(axis=1)).astype(np.int64)
        return cls(
            dataset_uid=dataset_uid,
            base_version=base_version,
            version=version,
            n_objects=before.shape[0],
            moved=moved,
        )
