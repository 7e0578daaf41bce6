"""Spatial shard ring: partitioned joins over halo shards.

The ring slabs the domain along its longest axis into ``n_shards``
contiguous slices (SOLAR's spatial partitioning shape, with
Tsitsigkos & Mamoulis' partition-level parallelism as the unit of
sharding).  An object is *homed* in the slab holding its center.  Each
slab with a home member owns a private
:class:`~repro.datasets.SpatialDataset` of its home members plus a
one-sided upward *halo*, and its own join algorithm instance; all
shards share one engine executor, so the verify stage parallelises
exactly as it does for the monolithic library.

The halo of shard ``k`` is every object homed in a higher slab whose
box starts at or below ``edges[k + 1] + h``, where ``h`` is the largest
half extent along the slab axis.  Each shard keeps only the pairs with
at least one home endpoint.  Bit-identity with a direct library call
is a theorem, not a hope:

* a pair with both objects homed in shard ``k`` is found by shard
  ``k``'s own join (its local dataset holds bit-equal copies of the
  global centers and widths, and the overlap predicate is an exact
  float comparison);
* a pair homed in shards ``a < b`` overlaps only if ``lo_b <= hi_a``,
  and ``hi_a = c_a + h_a`` with ``c_a < edges[a + 1]`` puts ``lo_b``
  at or below ``edges[a + 1] + h`` (float rounding is monotone), so the
  ``b`` object is in shard ``a``'s halo and shard ``a`` finds the pair;
* no other shard emits it: shard ``b`` holds only higher-homed objects
  in its halo, and any other shard holding both objects homes neither.

Each shard hands over its owned pairs as its join emitted them: pair
keys over its members (:func:`~repro.geometry.pack_pairs`), with the
member ids.  A THERMAL-JOIN shard never forms a halo×halo pair, so its
keys are its owned pairs as they are; any other algorithm's keys go
through the owned mask first.  Assembly writes every shard's keys,
relabelled to ring ids (:func:`~repro.geometry.relabel_keys`), into
one array and sorts it.  Member ids are strictly increasing, so a
shard's local ``i < j`` maps to a ring ``i < j`` and the relabelled
keys are canonical.  The shards' key sets are disjoint, so that one
sort is the library's sorted pair keys bit for bit — the property
suite enforces it across executors and motion models.  An answer
decodes its keys to ``(i, j)`` arrays on first read of
:attr:`RingAnswer.pairs` and builds its CSR neighbour lists from the
keys (:func:`~repro.geometry.keys_to_adjacency`).
Distance queries run the same shard joins over a
per-query halo grown by the distance, through the shard algorithm's
own ``distance_join``.  THERMAL-JOIN answers it on a fresh instance of
its configuration, so distance joins run at the starting resolution
and never touch the overlap join's tuner, P-Grid or maintained pair
set.  Other algorithms answer it on the shard's own instance; ST2B,
the one that keeps an index across steps, rebuilds it because the
enlarged extents change its cell width.

Each shard keeps one bounded answer store: its latest join answer and
its latest distance answer, each as its keys over the members and the
member ids, stamped with the shard version it was computed at.  A join
whose stamp is the shard's version is served without recomputing, so a
shard an update did not touch keeps its answer.  A distance answer is
never served fresh (its halo depends on the distance, which the version
does not track); it is kept only as the dead-shard fallback below.

Degradation instead of death: a shard whose compute raises is re-homed
(rebuilt from the ring's authoritative arrays under a fresh algorithm
instance) and the query retried once; a shard that fails again is
marked dead and its stored answer to the same query — including the
cross-shard pairs it owns — is returned *marked stale* rather than
failing the query.  For distance queries that is only the latest
distance asked.  A stale answer predates the current positions, so it
may share pairs with a fresh shard's; a stale assembly drops the
duplicates.  Every transition is recorded as a robustness event and
surfaced through the obs metrics registry.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import ThermalJoin
from repro.datasets.dataset import SpatialDataset
from repro.datasets.delta import MotionDelta
from repro.engine.executors import Executor, resolve_executor
from repro.geometry import (
    keys_to_adjacency,
    relabel_keys,
    sorted_unique_keys,
    unpack_pairs,
)
from repro.joins.base import RETRY_EVENT_KINDS, SpatialJoinAlgorithm
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache
from repro.simulation.runner import StepRecord

__all__ = ["RingAnswer", "Shard", "ShardRing"]

#: Query-key tuple: ``("join",)`` or ``("distance", d)``.
QueryKey = tuple[Hashable, ...]

#: A shard's owned pairs: keys over its members and the members' ring ids.
ShardPart = tuple[np.ndarray, np.ndarray]

AlgorithmFactory = Callable[[], SpatialJoinAlgorithm]


@dataclass(frozen=True)
class RingAnswer:
    """One assembled ring answer in global object indices.

    ``keys`` are the answer's sorted distinct pair keys over
    ``n_objects`` objects (:func:`~repro.geometry.pack_pairs`).
    ``degraded`` is True when anything about the answer fell short of
    the healthy path — a stale shard, a dead shard, a re-home, or an
    executor running on a degradation rung.  ``stale`` is the stronger
    flag: at least one shard's contribution is a previously computed
    answer served because the shard could not be revived.  A stale
    answer is *marked*, never silently wrong.

    A cache hit hands every reader the same answer, so ``keys`` and
    the arrays built from them are read-only.
    """

    kind: str
    epoch: int
    n_results: int
    keys: np.ndarray
    degraded: bool
    stale: bool
    #: Object count of the ring dataset the pairs index into.
    n_objects: int

    def __post_init__(self) -> None:
        self.keys.setflags(write=False)

    @functools.cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted canonical ``(i, j)`` arrays, decoded on first read."""
        return _read_only(unpack_pairs(self.keys, self.n_objects))

    @functools.cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(offsets, neighbors)`` of the keys, built on first use.

        It is kept on the answer, so it shares the answer's cache entry:
        every ``neighbors`` read of one epoch and generation after the
        first is a hit.  A shard kill makes both unreachable, and the
        next update drops both.
        """
        return _read_only(keys_to_adjacency(self.keys, self.n_objects))


def _read_only(arrays: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@dataclass
class Shard:
    """One spatial slab: members, private dataset, private algorithm."""

    shard_id: int
    #: Sorted global ids of the home members and the upward halo.
    global_ids: np.ndarray
    dataset: SpatialDataset | None
    join: SpatialJoinAlgorithm | None
    #: Ring epoch (global dataset version) of the last update that
    #: changed or moved this shard's members; untouched shards keep
    #: older versions so their stored join answers stay provably valid.
    version: int
    alive: bool = True
    pending_delta: MotionDelta | None = None
    failures: int = 0
    queries: int = 0
    overlap_tests: int = 0
    seconds: float = 0.0
    #: Analytic index footprint reported by the shard's last overlap
    #: join and by its last distance join.
    join_memory_bytes: int = 0
    distance_memory_bytes: int = 0

    #: The answer store: the latest answer per query kind (``"join"``,
    #: ``"distance"``) as ``(query key, version computed at, owned keys,
    #: member ids)``, the keys over the members the query ran on.
    answers: dict[str, tuple[QueryKey, int, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    @property
    def memory_bytes(self) -> int:
        """Index footprint of the shard's overlap and distance joins."""
        return self.join_memory_bytes + self.distance_memory_bytes


class ShardRing:
    """Sharded join state: slab assignment, per-shard joins, caching.

    The ring owns a private copy of ``dataset`` — updates flow only
    through :meth:`apply_update`, which commits the motion as a
    :class:`~repro.datasets.delta.MotionDelta` and touches exactly the
    shards whose home or halo members changed or moved.  All methods
    are synchronous and must be called from one thread at a time (the
    async front-end serialises through its worker task).
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        n_shards: int = 4,
        executor: Executor | str | None = None,
        algorithm_factory: AlgorithmFactory | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.dataset = dataset.copy()
        self.n_shards = int(n_shards)
        self.executor: Executor = resolve_executor(executor)
        self._owns_executor = not isinstance(executor, Executor)
        if algorithm_factory is None:
            algorithm_factory = self._default_factory
        self._factory = algorithm_factory
        self.cache = ResultCache()

        lo, hi = self.dataset.bounds
        self._axis = int(np.argmax(hi - lo))
        self._edges = np.linspace(lo[self._axis], hi[self._axis], self.n_shards + 1)
        self._assignment = self._assign(self.dataset.centers)

        self._shards: list[Shard] = [
            Shard(
                shard_id=k,
                global_ids=np.empty(0, dtype=np.int64),
                dataset=None,
                join=None,
                version=self.dataset.version,
            )
            for k in range(self.n_shards)
        ]
        #: Injected shard failures: shard id -> "once" | "permanent".
        self._poison: dict[int, str] = {}
        #: Bumped whenever shard health changes; part of assembled keys.
        self._generation = 0
        self.rehomes = 0
        self.stale_served = 0
        self.updates = 0
        self._epoch_events: list[dict[str, Any]] = []
        self._epoch_counters: dict[str, float] = {}

        self.metrics = MetricsRegistry()
        self.metrics.register("cache", self.cache.metrics)
        self.metrics.register("ring", self._ring_metrics)
        for k in range(self.n_shards):
            self.metrics.register(f"shard{k}", functools.partial(self._shard_metrics, k))

        for k in range(self.n_shards):
            self._build_shard(k, self._members(k))

    def _default_factory(self) -> SpatialJoinAlgorithm:
        return ThermalJoin(executor=self.executor)

    # ------------------------------------------------------------------
    # Assignment and shard construction
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Committed update count — the ring dataset's version."""
        return self.dataset.version

    def _assign(self, centers: np.ndarray) -> np.ndarray:
        """Slab id per object: shard ``k`` owns ``[edges[k], edges[k+1])``."""
        return np.searchsorted(
            self._edges[1:-1], centers[:, self._axis], side="right"
        )

    def _members(self, k: int, distance: float = 0.0) -> np.ndarray:
        """Strictly increasing member ids of shard ``k``: home slab plus upward halo.

        The halo is every object homed in a higher slab whose box,
        grown by ``distance`` exactly as ``with_enlarged_extent`` grows
        it, starts at or below ``edges[k + 1]`` plus the largest half
        extent along the slab axis.  A shard without home members gets
        none: all its pairs would be halo pairs, owned elsewhere.
        """
        home = self._assignment == k
        if not home.any():
            return np.flatnonzero(home)
        half = (self.dataset.widths[:, self._axis] + distance) / 2.0
        box_lo = self.dataset.centers[:, self._axis] - half
        halo = (self._assignment > k) & (box_lo <= self._edges[k + 1] + half.max())
        return np.flatnonzero(home | halo)

    def _local_dataset(self, members: np.ndarray) -> SpatialDataset:
        """Bit-equal copies of ``members``' boxes from the ring's arrays."""
        return SpatialDataset(
            self.dataset.centers[members],
            self.dataset.widths[members],
            bounds=self.dataset.bounds,
        )

    def _build_shard(self, k: int, members: np.ndarray) -> None:
        """(Re)construct shard ``k`` over ``members`` from the ring's arrays."""
        shard = self._shards[k]
        shard.global_ids = members
        if members.size == 0:
            shard.dataset = None
            shard.join = None
        else:
            shard.dataset = self._local_dataset(members)
            shard.join = self._factory()
        shard.join_memory_bytes = shard.distance_memory_bytes = 0
        shard.version = self.dataset.version
        shard.pending_delta = None
        shard.alive = True

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply_update(self, new_centers: np.ndarray) -> int:
        """Commit one motion step; returns the new epoch.

        Each shard's member array (home plus halo) is recomputed and
        compared with its old one: a shard whose members *changed* is
        rebuilt; a shard whose members merely moved in place gets a
        local delta and a new version.  Untouched shards keep their
        version — and therefore their stored join answers — across the
        epoch bump.  The assembled answers are dropped.  Non-finite
        centers are refused before anything is mutated.
        """
        new_centers = np.asarray(new_centers, dtype=np.float64)
        if new_centers.shape != self.dataset.centers.shape:
            raise ValueError(
                f"update shape {new_centers.shape} does not match "
                f"{self.dataset.centers.shape}"
            )
        if not np.isfinite(new_centers).all():
            raise ValueError("update centers must be finite")
        before = self.dataset.centers.copy()
        self.dataset.centers[:] = new_centers
        delta = self.dataset.commit_motion(before)
        self.updates += 1
        self._epoch_events = []
        self._epoch_counters = {}

        self._assignment = self._assign(self.dataset.centers)
        moved = np.zeros(len(self.dataset), dtype=bool)
        moved[delta.moved] = True
        for shard in self._shards:
            members = self._members(shard.shard_id)
            if not np.array_equal(members, shard.global_ids):
                self._build_shard(shard.shard_id, members)
            elif moved[members].any():
                self._refresh_shard(shard.shard_id)
        self.cache.clear()
        return self.epoch

    def _refresh_shard(self, k: int) -> None:
        """Propagate in-place motion to shard ``k`` (members unchanged)."""
        shard = self._shards[k]
        if shard.dataset is None:
            return
        local_before = shard.dataset.centers.copy()
        shard.dataset.centers[:] = self.dataset.centers[shard.global_ids]
        local_delta = shard.dataset.commit_motion(local_before)
        # Two deltas since the last join cannot be composed into one
        # version-pinned MotionDelta; dropping to None forces the next
        # query into a (correct, merely slower) full re-join.
        shard.pending_delta = local_delta if shard.pending_delta is None else None
        shard.version = self.dataset.version

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def join_pairs(self) -> RingAnswer:
        """Assembled overlap self-join, bit-identical to the library."""
        return self._query(("join",), None)

    def distance_pairs(self, distance: float) -> RingAnswer:
        """Assembled distance join (the paper's §3.1 reduction)."""
        if distance < 0:
            raise ValueError(f"distance must be non-negative, got {distance}")
        return self._query(("distance", float(distance)), float(distance))

    def _query(self, qkey: QueryKey, distance: float | None) -> RingAnswer:
        kind = str(qkey[0])
        ring_key = (self.epoch, self._generation, qkey)
        cached = self.cache.get(kind, ring_key)
        if cached is not None:
            assert isinstance(cached, RingAnswer)
            return cached

        events_before = len(self._epoch_events)
        any_stale = False
        parts: list[ShardPart] = []
        for shard in self._shards:
            if shard.dataset is None:
                continue
            part, stale = self._shard_keys(shard, qkey, distance)
            any_stale = any_stale or stale
            parts.append(part)

        # One buffer holds every shard's keys relabelled to ring ids.
        n = len(self.dataset)
        keys = np.empty(sum(local.size for local, _ids in parts), dtype=np.int64)
        start = 0
        for local, ids in parts:
            relabel_keys(local, ids, n, out=keys[start : start + local.size])
            start += local.size
        if any_stale:
            keys = sorted_unique_keys(keys)
        else:
            keys.sort()  # the shards' key sets are disjoint

        degraded = (
            any_stale
            or any(not shard.alive for shard in self._shards)
            or len(self._epoch_events) > events_before
            or self.executor.degraded is not None
        )
        answer = RingAnswer(
            kind=kind,
            epoch=self.epoch,
            n_results=int(keys.size),
            keys=keys,
            degraded=degraded,
            stale=any_stale,
            n_objects=n,
        )
        self.cache.put(kind, ring_key, answer)
        return answer

    def _shard_keys(
        self, shard: Shard, qkey: QueryKey, distance: float | None
    ) -> tuple[ShardPart, bool]:
        """Shard contribution with the degradation ladder around it."""
        if not shard.alive and self._poison.get(shard.shard_id) == "permanent":
            stale = self._stale_answer(shard, qkey)
            if stale is not None:
                return stale, True
        try:
            return self._compute_shard(shard, qkey, distance), False
        except Exception as exc:
            shard.failures += 1
            self._generation += 1
            self._record_event(
                "shard_failed", shard=shard.shard_id, error=repr(exc)
            )
            self._rehome(shard)
            try:
                part = self._compute_shard(shard, qkey, distance)
            except Exception as retry_exc:
                shard.alive = False
                self._record_event(
                    "shard_dead", shard=shard.shard_id, error=repr(retry_exc)
                )
                stale = self._stale_answer(shard, qkey)
                if stale is None:
                    raise
                return stale, True
            shard.alive = True
            self._record_event("shard_rehomed", shard=shard.shard_id)
            return part, False

    def _stale_answer(self, shard: Shard, qkey: QueryKey) -> ShardPart | None:
        """The dead shard's stored answer to ``qkey``, counted as served stale."""
        stored = shard.answers.get(str(qkey[0]))
        if stored is None or stored[0] != qkey:
            return None
        self.stale_served += 1
        return stored[2], stored[3]

    def _compute_shard(
        self, shard: Shard, qkey: QueryKey, distance: float | None
    ) -> ShardPart:
        """The pairs ``shard`` owns (at least one home endpoint) and its member ids.

        The keys are over the members, as the shard's join emits them.
        A THERMAL-JOIN shard is handed its halo members as
        :attr:`~repro.core.ThermalJoin.halo`, so it never forms the
        halo×halo candidates another shard owns and its keys are kept
        as they are; any other algorithm's keys go through the owned
        mask.

        A stored join answer at the shard's version is returned as is.
        Distance joins run over a halo grown by the distance, which the
        version does not track, so they are recomputed per query (the
        assembled answer is still cached per epoch).
        """
        if self._poison.get(shard.shard_id) is not None:
            raise RuntimeError(
                f"injected shard failure on shard {shard.shard_id}"
            )
        stored = shard.answers.get("join")
        if distance is None and stored is not None and stored[1] == shard.version:
            return stored[2], stored[3]
        assert shard.dataset is not None and shard.join is not None
        members = (
            shard.global_ids if distance is None else self._members(shard.shard_id, distance)
        )
        home = self._assignment[members] == shard.shard_id
        thermal = isinstance(shard.join, ThermalJoin)
        if thermal:
            shard.join.halo = ~home
        started = time.perf_counter()
        if distance is None:
            result = shard.join.step_delta(shard.dataset, shard.pending_delta)
            shard.pending_delta = None
            shard.join_memory_bytes = result.stats.memory_bytes
        else:
            result = shard.join.distance_join(self._local_dataset(members), distance)
            shard.distance_memory_bytes = result.stats.memory_bytes
        seconds = time.perf_counter() - started
        keys = result.keys
        assert keys is not None
        if not thermal:
            # The ownership rule; a ThermalJoin told the halo never forms
            # a halo×halo pair, so it would drop nothing there.
            li, lj = unpack_pairs(keys, members.size)
            keys = keys[home[li] | home[lj]]

        shard.queries += 1
        shard.overlap_tests += result.stats.overlap_tests
        shard.seconds += seconds
        self._epoch_events.extend(result.stats.events)
        self._bump("overlap_tests", result.stats.overlap_tests)
        self._bump("build_seconds", result.stats.build_seconds)
        self._bump("join_seconds", result.stats.join_seconds)

        shard.answers[str(qkey[0])] = (qkey, shard.version, keys, members)
        return keys, members

    def _rehome(self, shard: Shard) -> None:
        """Revive a failed shard from the ring's arrays.

        The ring's arrays are authoritative, and every update that moves
        a shard's members refreshes the shard, so the rebuild from the
        current global positions is bit-equal to the failed shard's
        data; a fresh algorithm instance joins it.
        """
        if self._poison.get(shard.shard_id) == "once":
            self._poison.pop(shard.shard_id)
        self.rehomes += 1
        shard.dataset = self._local_dataset(shard.global_ids)
        shard.join = self._factory()
        shard.pending_delta = None

    # ------------------------------------------------------------------
    # Fault injection and accounting
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: int, permanent: bool = False) -> None:
        """Poison ``shard_id`` so its next compute raises (test/CI hook).

        A one-shot kill is cleared by the re-home, exercising the
        recover-and-retry rung; a permanent kill keeps raising, driving
        the shard to ``dead`` and its answers to stale-but-marked.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"no shard {shard_id} in a {self.n_shards}-shard ring")
        self._poison[shard_id] = "permanent" if permanent else "once"
        self._generation += 1
        self._record_event(
            "shard_killed", shard=shard_id, permanent=bool(permanent)
        )

    def _record_event(self, kind: str, **info: Any) -> None:
        self._epoch_events.append({"kind": kind, **info})

    def _bump(self, counter: str, amount: float) -> None:
        self._epoch_counters[counter] = (
            self._epoch_counters.get(counter, 0.0) + amount
        )

    def _ring_metrics(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "generation": self._generation,
            "updates": self.updates,
            "rehomes": self.rehomes,
            "stale_served": self.stale_served,
            "dead_shards": sum(1 for shard in self._shards if not shard.alive),
            # Every object is homed once, so members beyond n are replicas.
            "halo_objects": sum(shard.global_ids.size for shard in self._shards)
            - len(self.dataset),
            # Always 0: cross-shard pairs come from the shard joins.  The
            # key stays for readers of older traces and the benchmark.
            "boundary_tests": 0,
        }

    def _shard_metrics(self, k: int) -> dict[str, Any]:
        shard = self._shards[k]
        return {
            "objects": int(shard.global_ids.shape[0]),
            "queries": shard.queries,
            "overlap_tests": shard.overlap_tests,
            "seconds": shard.seconds,
            "failures": shard.failures,
            "alive": shard.alive,
        }

    def epoch_record(self, step: int, n_results: int) -> StepRecord:
        """This epoch's accumulated work as a bench-schema step record."""
        events = [dict(event) for event in self._epoch_events]
        retries = sum(1 for event in events if event.get("kind") in RETRY_EVENT_KINDS)
        memory = sum(shard.memory_bytes for shard in self._shards)
        return StepRecord(
            step=int(step),
            n_results=int(n_results),
            join_seconds=float(self._epoch_counters.get("join_seconds", 0.0)),
            build_seconds=float(self._epoch_counters.get("build_seconds", 0.0)),
            overlap_tests=int(self._epoch_counters.get("overlap_tests", 0)),
            memory_bytes=int(memory),
            phase_seconds={},
            events=events,
            task_retries=retries,
            index_counters=self.metrics.snapshot(),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the shared executor if the ring owns it."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> ShardRing:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for shard in self._shards if shard.alive)
        return (
            f"ShardRing(n_shards={self.n_shards}, epoch={self.epoch}, "
            f"alive={alive}/{self.n_shards})"
        )
