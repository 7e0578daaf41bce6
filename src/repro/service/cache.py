"""Result cache for the sharded join service's assembled answers.

The cache keeps one slot per query kind (``"join"``, ``"distance"``),
as each shard's own answer store does.  A slot holds the latest
assembled answer of its kind under its ``(epoch, generation, query)``
key: the ring epoch and shard-health generation the answer was
assembled at, and the query descriptor.  Both stamps make the cache
*self-validating* — an entry can only be looked up again while the
ring is still at that epoch and generation — so clearing is not needed
for correctness.  It is needed for *memory*: the ring's update path
calls :meth:`ResultCache.clear`, so no answer outlives its epoch, and
a new distance replaces the previous one, so distinct distances asked
within one epoch never pile up.

Per-shard answers are not kept here; each shard keeps its own latest
join and distance answer (see :mod:`repro.service.sharding`).
"""

from __future__ import annotations

from typing import Any, Hashable

__all__ = ["ResultCache"]


class ResultCache:
    """The latest assembled answer per query kind.

    Keys are tuples (see the module docstring); values are opaque to
    the cache.  A :meth:`put` replaces whatever its kind's slot held, so
    the cache holds at most one answer per kind.
    """

    def __init__(self) -> None:
        self._slots: dict[str, tuple[tuple[Hashable, ...], Any]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._slots)

    def get(self, kind: str, key: tuple[Hashable, ...]) -> Any | None:
        """Return the cached ``kind`` answer for ``key`` or ``None`` on a miss."""
        slot = self._slots.get(kind)
        if slot is None or slot[0] != key:
            self.misses += 1
            return None
        self.hits += 1
        return slot[1]

    def put(self, kind: str, key: tuple[Hashable, ...], value: Any) -> None:
        """Store ``value`` as the ``kind`` answer for ``key``, replacing the last."""
        if kind in self._slots and self._slots[kind][0] != key:
            self.evicted += 1
        self._slots[kind] = (key, value)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self.invalidated += len(self._slots)
        self._slots.clear()

    def metrics(self) -> dict[str, Any]:
        """Counter snapshot for the obs metrics registry."""
        return {
            "entries": len(self._slots),
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "evicted": self.evicted,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self._slots)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
