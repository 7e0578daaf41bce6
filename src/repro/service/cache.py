"""Result cache for the sharded join service.

Entries are keyed on ``(shard, step, query)`` tuples: the shard (an
integer shard id, or the reserved label ``"ring"`` for assembled
answers), the *step* the answer was computed against (the shard's
committed version, or an epoch/generation pair for assembled answers)
and a hashable query descriptor.

The version component makes the cache *self-validating* — an entry
computed at version ``v`` can only ever be looked up again while the
shard is still at version ``v`` — so invalidation is not needed for
correctness.  It is needed for *memory*: without it a long-running
service accumulates one dead entry per (shard, update, query)
forever.  :meth:`invalidate_shard` is driven by the ring's update
path — exactly the shards whose home or halo members a motion delta
changed or moved are evicted, and provably-fresh entries on untouched
shards survive to keep serving hits across epochs.
"""

from __future__ import annotations

from typing import Any, Hashable

__all__ = ["ResultCache"]

#: Reserved shard label for assembled, cross-shard answers.
RING_KEY = "ring"


class ResultCache:
    """Bounded insertion-ordered cache of join answers.

    Keys are ``(shard, step, query)`` tuples (see the module
    docstring); values are opaque to the cache.  Eviction is FIFO on
    insertion order once ``max_entries`` is reached — answer sizes are
    dominated by the pair arrays, which the service bounds elsewhere,
    so a simple entry count is an adequate memory bound.
    """

    def __init__(self, max_entries: int = 512) -> None:
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

    def invalidate_shard(self, shard: Hashable) -> int:
        """Evict every entry whose shard component is ``shard``.

        Returns the number of entries removed.  Called with the shard
        ids a motion delta touched, plus ``"ring"`` for the assembled
        answers.
        """
        stale = [key for key in self._entries if key[0] == shard]
        for key in stale:
            del self._entries[key]
        self.invalidated += len(stale)
        return len(stale)

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
