"""Sharded async join service (the paper's dynamic-workload story, served).

Batch simulations drive the library directly; this package keeps a
long-lived sharded join state alive behind an asyncio front-end:

* :mod:`repro.service.sharding` — the :class:`ShardRing`: spatial slab
  sharding with upward halos, so per-shard joins on a shared executor
  also find every cross-shard pair exactly once, snapshot-based
  re-homing and stale-but-marked degradation.
* :mod:`repro.service.cache` — the ``(shard, step, query)`` result
  cache, invalidated per shard by the ring's update path.
* :mod:`repro.service.service` — :class:`JoinService`: update streams,
  join/distance/neighbor queries, request batching and admission
  control.

This is the only package in the library allowed to import asyncio
(repro-lint rule RPL601): everything below the service boundary stays
synchronous and deterministic.
"""

from repro.service.cache import ResultCache
from repro.service.service import (
    JoinService,
    ServiceAnswer,
    ServiceOverloadedError,
)
from repro.service.sharding import RingAnswer, Shard, ShardRing

__all__ = [
    "JoinService",
    "ResultCache",
    "RingAnswer",
    "ServiceAnswer",
    "ServiceOverloadedError",
    "Shard",
    "ShardRing",
]
