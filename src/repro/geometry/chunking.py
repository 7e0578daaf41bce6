"""Candidate-volume chunking shared by the kernel and engine layers.

Both layers split lists of *groups* (cell pairs, partitions, tree-node
pairs) into contiguous chunks weighted by candidate volume — the kernels
to bound how many candidate object pairs one vectorised batch
materialises, the engine planner to hand every executor task a roughly
equal share of the verification work.  Until PR 7 each layer carried its
own copy of the cumsum/searchsorted arithmetic
(``engine.plan.chunk_by_volume`` and ``geometry.batch._chunk_edges``);
this module is the single shared implementation.

Chunk boundaries are deterministic functions of the weights alone —
never of worker counts or timing — which is what keeps pair sets and
overlap-test totals bit-identical across executors and backends.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pairs import sorted_unique_keys

__all__ = ["chunk_edges_by_volume"]


def chunk_edges_by_volume(
    counts: np.ndarray,
    *,
    max_volume: int | None = None,
    n_chunks: int | None = None,
) -> np.ndarray:
    """Split ``range(len(counts))`` into contiguous chunks by volume.

    Exactly one of the two modes must be selected:

    ``max_volume``
        Greedy fixed-capacity chunks: each chunk's summed ``counts`` is
        kept near ``max_volume`` (one oversized group may exceed it —
        groups are never split).  This is the kernels' batch bound.
    ``n_chunks``
        At most ``n_chunks`` chunks of roughly equal summed volume.
        This is the planner's task grain.

    Returns the ``int64`` edge array ``[e_0, ..., e_k]`` such that chunk
    ``c`` covers ``range(e_c, e_{c+1})``; the edges always start at 0 and
    end at ``len(counts)``.
    """
    if (max_volume is None) == (n_chunks is None):
        raise ValueError("specify exactly one of max_volume / n_chunks")
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    cum = np.cumsum(counts)
    total = int(cum[-1]) if n else 0
    if max_volume is not None:
        if max_volume < 1:
            raise ValueError(f"max_volume must be positive, got {max_volume}")
        if total <= max_volume:
            return np.asarray([0, n], dtype=np.int64)
        targets = np.arange(max_volume, total, max_volume, dtype=np.int64)
    else:
        assert n_chunks is not None
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be positive, got {n_chunks}")
        if n_chunks == 1 or n <= 1 or total == 0:
            return np.asarray([0, n], dtype=np.int64)
        per_chunk = max(total // n_chunks, 1)
        targets = np.arange(per_chunk, total, per_chunk, dtype=np.int64)
        targets = targets[: n_chunks - 1]
    inner = np.searchsorted(cum, targets, side="left") + 1
    return sorted_unique_keys(np.concatenate([[0], inner, [n]]))
