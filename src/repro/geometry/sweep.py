"""Window expansion for the vectorised plane sweeps.

The forward plane sweep (Preparata & Shamos [29]) is the comparison
routine of this reproduction: the global plane-sweep baseline runs it in
strips of the x-sorted dataset, and THERMAL-JOIN runs it for the
external join between a cell and its hyperlinked neighbours (Section
4.2.1 of the paper).  Both run the one sweep kernel of
:mod:`repro.geometry.kernels`, which locates each row's candidate window
with binary search over sorted x bounds and expands the windows with
:func:`window_pairs`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_pairs"]


def window_pairs(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row candidate windows into flat pair index arrays.

    Given ``starts``/``stops`` (exclusive) window bounds per left-hand
    row, return ``(left, right)`` arrays enumerating every (row, window
    member) combination.  This is the vectorised replacement for the
    nested sweep loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    counts = np.maximum(stops - starts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    left = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    # Offsets within each window: a global arange minus each window's start
    # position in the flattened output, plus the window's start index.
    ends = np.cumsum(counts)
    right = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )
    return left, right
