"""Result cache for the sharded join service's assembled answers.

Entries are keyed on ``(epoch, generation, query)`` tuples: the ring
epoch and shard-health generation the answer was assembled at, and a
hashable query descriptor.  Both stamps make the cache
*self-validating* — an entry can only be looked up again while the
ring is still at that epoch and generation — so clearing is not needed
for correctness.  It is needed for *memory*: the ring's update path
calls :meth:`ResultCache.clear`, so no answer outlives its epoch.

Per-shard answers are not kept here; each shard keeps its own latest
join and distance answer (see :mod:`repro.service.sharding`).
"""

from __future__ import annotations

from typing import Any, Hashable

__all__ = ["ResultCache"]

#: Entry bound of a :class:`ResultCache`.
CACHE_ENTRIES = 512


class ResultCache:
    """Bounded insertion-ordered cache of assembled join answers.

    Keys are tuples (see the module docstring); values are opaque to
    the cache.  Eviction is FIFO on insertion order once
    ``max_entries`` is reached — answer sizes are dominated by the pair
    arrays, which the service bounds elsewhere, so a simple entry count
    is an adequate memory bound.
    """

    def __init__(self, max_entries: int = CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: dict[tuple[Hashable, ...], Any] = {}
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[Hashable, ...]) -> Any | None:
        """Return the cached answer for ``key`` or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple[Hashable, ...], value: Any) -> None:
        """Store ``value`` under ``key``, evicting oldest entries if full."""
        if key not in self._entries and len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evicted += 1
        self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self.invalidated += len(self._entries)
        self._entries.clear()

    def metrics(self) -> dict[str, Any]:
        """Counter snapshot for the obs metrics registry."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "evicted": self.evicted,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
