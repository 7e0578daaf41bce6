"""Asyncio front-end for the sharded join service.

:class:`JoinService` turns a :class:`~repro.service.sharding.ShardRing`
into a long-running server: clients submit object-update streams and
join/distance/neighbor queries concurrently; the service serialises
them through a single worker task so the ring (which is synchronous
and single-threaded by contract) always sees a consistent order.

Three front-end behaviours on top of the ring:

* **Admission control** — at most ``max_pending`` requests may be in
  flight; excess submissions fail fast with
  :class:`ServiceOverloadedError` instead of growing an unbounded
  backlog.
* **Request batching** — the worker drains the queue in batches (up
  to :data:`MAX_BATCH`); duplicate queries within a batch are computed
  once and fanned out, with the duplicates marked ``cached``.  An
  update (or shard kill) inside a batch is a barrier: answers
  computed before it are not reused after it.
* **Degradation passthrough** — a dead shard degrades the answer
  (``degraded``/``stale`` flags) instead of failing the request; the
  ring's re-homing and stale-serving ladder does the work.

Ring computations run via :func:`asyncio.to_thread` so the event loop
keeps accepting submissions while a join executes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.engine.executors import Executor
from repro.service.sharding import AlgorithmFactory, RingAnswer, ShardRing

__all__ = ["JoinService", "ServiceAnswer", "ServiceOverloadedError"]


class ServiceOverloadedError(RuntimeError):
    """Raised when a submission exceeds the admission-control budget."""


@dataclass(frozen=True)
class ServiceAnswer:
    """One answered query.

    ``pairs`` is the canonical ``(i, j)`` arrays for join/distance
    queries; ``adjacency`` the CSR ``(offsets, neighbors)`` form for
    neighbor queries, read-only and shared by every neighbor answer of
    one ring answer (:attr:`RingAnswer.adjacency`).  ``degraded`` and
    ``stale`` mirror the ring's flags; ``cached`` marks an answer
    served without recomputation (batch dedup).
    """

    kind: str
    epoch: int
    n_results: int
    pairs: tuple[np.ndarray, np.ndarray] | None
    adjacency: tuple[np.ndarray, np.ndarray] | None
    degraded: bool
    stale: bool
    cached: bool


@dataclass
class _Request:
    kind: str
    params: tuple[Hashable, ...]
    payload: Any
    future: asyncio.Future[Any]


#: Queue sentinel that shuts the worker down.
_STOP = object()

#: Most requests the worker takes off the queue per batch.
MAX_BATCH = 32


class JoinService:
    """Long-running sharded join service over one dataset.

    Usage::

        service = JoinService(dataset, n_shards=4, executor="process:2")
        await service.start()
        await service.update(new_centers)
        answer = await service.join()
        await service.stop()

    Answers are bit-identical to direct library calls on an equally
    updated dataset — the property suite enforces it across executors,
    motion models and injected shard kills.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        n_shards: int = 4,
        executor: Executor | str | None = None,
        algorithm_factory: AlgorithmFactory | None = None,
        max_pending: int = 256,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        self.ring = ShardRing(
            dataset,
            n_shards=n_shards,
            executor=executor,
            algorithm_factory=algorithm_factory,
        )
        self.max_pending = int(max_pending)
        self._queue: asyncio.Queue[Any] | None = None
        self._worker: asyncio.Task[None] | None = None
        self._pending = 0
        self.accepted = 0
        self.rejected = 0
        self.batched = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._answered = 0
        self.ring.metrics.register("frontend", self._frontend_metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the worker task is accepting requests."""
        return self._worker is not None and not self._worker.done()

    async def start(self) -> None:
        """Start the worker task; idempotent."""
        if self.running:
            return
        self._queue = asyncio.Queue()
        self._worker = asyncio.create_task(self._run(), name="join-service")

    async def stop(self) -> None:
        """Drain the worker and release the ring's resources."""
        if self._worker is not None and self._queue is not None:
            self._queue.put_nowait(_STOP)
            await self._worker
            while not self._queue.empty():
                leftover = self._queue.get_nowait()
                if isinstance(leftover, _Request) and not leftover.future.done():
                    leftover.future.set_exception(
                        RuntimeError("join service stopped")
                    )
        self._worker = None
        self._queue = None
        # ring.close() joins the executor pool (shutdown(wait=True)).  No
        # abandoned task holds it (a step discards the pool of a task it
        # abandons at the deadline), but stopping a process pool's
        # workers still takes a while, so it runs off-loop.
        await asyncio.to_thread(self.ring.close)

    async def __aenter__(self) -> JoinService:
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    async def update(self, new_centers: np.ndarray) -> int:
        """Apply one motion step to the ring; returns the new epoch."""
        epoch = await self._submit("update", (), np.asarray(new_centers))
        assert isinstance(epoch, int)
        return epoch

    async def join(self) -> ServiceAnswer:
        """Overlap self-join at the current epoch."""
        answer = await self._submit("join", (), None)
        assert isinstance(answer, ServiceAnswer)
        return answer

    async def distance(self, distance: float) -> ServiceAnswer:
        """Distance join at the current epoch."""
        answer = await self._submit("distance", (float(distance),), None)
        assert isinstance(answer, ServiceAnswer)
        return answer

    async def neighbors(self) -> ServiceAnswer:
        """Per-object CSR neighbor lists at the current epoch."""
        answer = await self._submit("neighbors", (), None)
        assert isinstance(answer, ServiceAnswer)
        return answer

    async def kill_shard(self, shard_id: int, permanent: bool = False) -> None:
        """Inject a shard failure (ordered like any other request)."""
        await self._submit("kill", (int(shard_id), bool(permanent)), None)

    async def _submit(
        self, kind: str, params: tuple[Hashable, ...], payload: Any
    ) -> Any:
        if not self.running or self._queue is None:
            raise RuntimeError("join service is not running (call start())")
        if self._pending >= self.max_pending:
            self.rejected += 1
            raise ServiceOverloadedError(
                f"{self._pending} requests already pending "
                f"(max_pending={self.max_pending})"
            )
        self._pending += 1
        self.accepted += 1
        loop = asyncio.get_running_loop()
        request = _Request(kind, params, payload, loop.create_future())
        started = time.perf_counter()
        try:
            self._queue.put_nowait(request)
            return await request.future
        finally:
            self._pending -= 1
            elapsed = time.perf_counter() - started
            self._latency_sum += elapsed
            self._latency_max = max(self._latency_max, elapsed)
            self._answered += 1

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        assert self._queue is not None
        stopping = False
        while not stopping:
            batch: list[Any] = [await self._queue.get()]
            while len(batch) < MAX_BATCH:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            # Duplicate queries in one batch are computed once; any
            # state-changing request is a barrier for the dedup map.
            answers: dict[tuple[Hashable, ...], ServiceAnswer] = {}
            for item in batch:
                if item is _STOP:
                    stopping = True
                    continue
                request = item
                assert isinstance(request, _Request)
                if request.future.done():
                    continue  # client gave up while queued
                if request.kind in ("update", "kill"):
                    answers.clear()
                dedup_key = (request.kind, *request.params)
                repeat = answers.get(dedup_key)
                if repeat is not None:
                    self.batched += 1
                    request.future.set_result(
                        dataclasses.replace(repeat, cached=True)
                    )
                    continue
                try:
                    outcome = await asyncio.to_thread(
                        self._compute, request.kind, request.params,
                        request.payload,
                    )
                except Exception as exc:
                    if not request.future.done():
                        request.future.set_exception(exc)
                    continue
                if isinstance(outcome, ServiceAnswer):
                    answers[dedup_key] = outcome
                if not request.future.done():
                    request.future.set_result(outcome)

    def _compute(
        self, kind: str, params: tuple[Hashable, ...], payload: Any
    ) -> Any:
        """Synchronous request execution against the ring (worker thread)."""
        if kind == "update":
            return self.ring.apply_update(payload)
        if kind == "kill":
            shard_id, permanent = params
            self.ring.kill_shard(int(shard_id), permanent=bool(permanent))
            return None
        if kind == "join":
            return self._wrap(self.ring.join_pairs(), adjacency=False)
        if kind == "distance":
            (distance,) = params
            return self._wrap(
                self.ring.distance_pairs(float(distance)), adjacency=False
            )
        if kind == "neighbors":
            return self._wrap(self.ring.join_pairs(), adjacency=True)
        raise ValueError(f"unknown request kind {kind!r}")

    def _wrap(self, ring_answer: RingAnswer, adjacency: bool) -> ServiceAnswer:
        return ServiceAnswer(
            kind="neighbors" if adjacency else ring_answer.kind,
            epoch=ring_answer.epoch,
            n_results=ring_answer.n_results,
            pairs=None if adjacency else ring_answer.pairs,
            adjacency=ring_answer.adjacency if adjacency else None,
            degraded=ring_answer.degraded,
            stale=ring_answer.stale,
            cached=False,
        )

    def _frontend_metrics(self) -> dict[str, Any]:
        mean = self._latency_sum / self._answered if self._answered else 0.0
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "batched": self.batched,
            "pending": self._pending,
            "answered": self._answered,
            "latency_mean_seconds": mean,
            "latency_max_seconds": self._latency_max,
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"JoinService({state}, epoch={self.ring.epoch}, "
            f"pending={self._pending}/{self.max_pending})"
        )
