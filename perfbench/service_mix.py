"""The ``service-mix`` workload: a closed loop of two clients against ``JoinService``.

``JoinService(n_shards=4, executor="serial")`` serves ``scaled_uniform(4000)``.
Clients move in lock-step epochs.  The simulation client commits one motion
step with ``update()`` and then joins; once the update has landed, the
analyst client runs :data:`ANALYST_SCRIPT`.  Requests therefore go through
queueing and batch dedup, shard updates, per-shard joins, the cross-shard
band join and the result cache.  Repeat reads within an epoch share work,
and the first read after an update does not.

A request's latency falls in one of a few clusters: a cache hit or dedup
(~ms), ``neighbors`` (the cached join plus its CSR conversion), the first
join after an update, and the first distance join.  The script fixes how
many of each an epoch issues, so the median sits in the middle of the
``neighbors`` cluster, never on a gap between two clusters.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import time
from collections.abc import Awaitable, Callable
from typing import Any

import numpy as np
from repro.core import ThermalJoin
from repro.datasets import SpatialDataset
from repro.experiments.workloads import scaled_uniform
from repro.geometry import pairs_to_adjacency
from repro.service import JoinService

from perfbench import host
from perfbench.common import (
    HEAP_OPS,
    REFERENCE_HOST_S,
    SETUPS,
    Outcome,
    is_traced_op,
    median,
    percentile,
    share,
)
from perfbench.spans import ENGINE_STAGES, SpanLog, render_table

N = 4_000
SMOKE_N = 600
N_SHARDS = 4
DISTANCE = 2.0
MIN_EPOCHS = 8

#: The analyst's reads per epoch.  With the simulation client's update
#: and join, an epoch issues 13 requests: 3 fast ones (the update, a cached
#: join and a cached distance join), 7 ``neighbors`` and 3 slow ones (the
#: two first joins, deduplicated in one batch, and the first distance
#: join).  As many requests are faster than ``neighbors`` as slower, so
#: the median falls in the middle of the ``neighbors`` cluster, and 8
#: epochs give the 100 requests that put 10 beyond p90.
ANALYST_SCRIPT = (
    "join",
    "neighbors",
    "distance",
    "neighbors",
    "neighbors",
    "join",
    "neighbors",
    "neighbors",
    "distance",
    "neighbors",
    "neighbors",
)

#: The ring's public calls, wrapped in the traced run, and their span names.
_RING_CALLS = {
    "apply_update": "service.update",
    "join_pairs": "service.join_pairs",
    "distance_pairs": "service.distance_pairs",
}


async def _epoch(
    service: JoinService, centers: np.ndarray, outcome: Outcome
) -> tuple[list[tuple[str, float, float]], list[tuple[str, Any]], int]:
    """One lock-step epoch; returns ``(latencies, answers, committed epoch)``.

    Each latency is ``(kind, start, seconds)`` from submission to answer.
    A request that raises ends the run; it was counted as attempted.
    """
    latencies: list[tuple[str, float, float]] = []
    answers: list[tuple[str, Any]] = []
    updated = asyncio.Event()
    calls: dict[str, Callable[[], Awaitable[Any]]] = {
        "join": service.join,
        "neighbors": service.neighbors,
        "distance": lambda: service.distance(DISTANCE),
    }
    committed = -1

    async def request(kind: str, call: Awaitable[Any]) -> Any:
        outcome.attempted += 1
        started = time.perf_counter()
        result = await call
        latencies.append((kind, started, time.perf_counter() - started))
        return result

    async def simulation() -> None:
        nonlocal committed
        try:
            committed = await request("update", service.update(centers))
        finally:
            updated.set()
        answers.append(("join", await request("join", service.join())))

    async def analyst() -> None:
        await updated.wait()
        for kind in ANALYST_SCRIPT:
            answers.append((kind, await request(kind, calls[kind]())))

    await asyncio.gather(simulation(), analyst())
    return latencies, answers, committed


def _digest(arrays: tuple[np.ndarray, ...]) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _answer_digest(kind: str, answer: Any) -> tuple[str, str, int, bool]:
    """``(kind, digest, epoch, degraded)`` of one answer, kept instead of its arrays."""
    arrays = answer.adjacency if kind == "neighbors" else answer.pairs
    return kind, _digest(arrays), answer.epoch, answer.degraded or answer.stale


def _check(
    dataset: SpatialDataset,
    answers: list[tuple[str, str, int, bool]],
    epoch: int,
    outcome: Outcome,
) -> tuple[int, int]:
    """Compare every answer with direct joins; returns ``(direct tests, direct pairs)``."""
    direct = ThermalJoin(executor="serial")
    join_pairs = direct.join_pairs(dataset)
    tests = direct.stats.overlap_tests
    distance = ThermalJoin(executor="serial")
    distance_pairs = distance.join_pairs(dataset.with_enlarged_extent(DISTANCE))
    tests += distance.stats.overlap_tests
    expected = {
        "join": _digest(join_pairs),
        "distance": _digest(distance_pairs),
        "neighbors": _digest(pairs_to_adjacency(*join_pairs, len(dataset))),
    }
    for kind, digest, answer_epoch, degraded in answers:
        if digest != expected[kind] or answer_epoch != epoch or degraded:
            outcome.mismatch(f"service-mix epoch {epoch}: {kind} answer differs")
    return tests, len(join_pairs[0]) + len(distance_pairs[0])


def _counters(service: JoinService) -> dict[str, float]:
    """Cumulative ring counters read between epochs (the service is idle)."""
    snap = service.ring.metrics.snapshot()
    shards = [values for key, values in snap.items() if key.startswith("shard")]
    recovery = snap.get("recovery", {})  # only if the ring ever registers a checkpoint writer
    return {
        "checkpoint_seconds": recovery.get("checkpoint_seconds", 0.0),
        "checkpoint_bytes": recovery.get("checkpoint_bytes", 0),
        "checkpoints_written": recovery.get("checkpoints_written", 0),
        "hits": snap["cache"]["hits"],
        "misses": snap["cache"]["misses"],
        "batched": snap["frontend"]["batched"],
        "answered": snap["frontend"]["answered"],
        "boundary_tests": snap["ring"]["boundary_tests"],
        "shard_tests": sum(values["overlap_tests"] for values in shards),
        "shard_seconds": sum(values["seconds"] for values in shards),
    }


def run(
    seed: int, seconds: float, traced: bool, smoke: bool, outcome: Outcome, log: SpanLog
) -> None:
    """Run the workload, filling ``outcome`` (and ``log`` when ``traced``)."""
    asyncio.run(_run(seed, seconds, traced, SMOKE_N if smoke else N, outcome, log))


async def _set_up(
    n: int, seed: int, ref: host.ReferenceKernel, outcome: Outcome
) -> tuple[JoinService, Any, SpatialDataset, float, float]:
    """Construct and start the service and answer its first join.

    Returns the service, the motion model, the dataset, the set-up's
    seconds and the reference kernel's seconds around the set-up.
    """
    ref.sample()
    started = time.perf_counter()
    dataset, motion = scaled_uniform(n, seed=seed)
    service = JoinService(dataset, n_shards=N_SHARDS, executor="serial")
    await service.start()
    outcome.attempted += 1
    await service.join()
    ended = time.perf_counter()
    ref.sample()
    return service, motion, dataset, ended - started, ref.scale(started, ended)


async def _run(
    seed: int, seconds: float, traced: bool, n: int, outcome: Outcome, log: SpanLog
) -> None:
    # Epochs are few and long, so each reference sample takes more runs
    # than the simulations' per-step samples to be as steady.
    ref = host.ReferenceKernel(repeats=5)
    trim = host.HeapTrimmer()
    setup_times: list[float] = []
    setup_refs: list[float] = []
    service: JoinService | None = None
    for _ in range(1 if traced else SETUPS):
        if service is not None:
            await service.stop()
        service = None
        gc.collect()
        trim()
        service, motion, dataset, setup_s, setup_ref = await _set_up(n, seed, ref, outcome)
        setup_times.append(setup_s)
        setup_refs.append(setup_ref)
    assert service is not None
    setup_rss = host.peak_rss_mib()
    moved: list[float] = []
    log.wrap(motion, "step", "datasets.motion", lambda delta: moved.append(delta.moved_fraction))
    for method, layer in _RING_CALLS.items():
        log.wrap(service.ring, method, layer)

    epochs: list[dict[str, Any]] = []
    #: ``(centers, committed epoch, answer digests)`` of every epoch, timed or not.
    checked: list[tuple[np.ndarray, int, list[tuple[str, str, int, bool]]]] = []
    heap_mb = 0.0
    before = _counters(service)
    ticks = host.cpu_ticks()
    ref.sample()
    started = time.perf_counter()
    try:
        while time.perf_counter() - started < seconds or len(epochs) < MIN_EPOCHS:
            index = log.op = len(epochs)
            on = traced and is_traced_op(index)
            with log.traced(on):
                motion.step(dataset)
                centers = dataset.centers.copy()
                t0 = time.perf_counter()
                latencies, answers, committed = await _epoch(service, centers, outcome)
                wall = time.perf_counter() - t0
            if on:
                # Added after adoption, so engine spans nest under ring calls only.
                for kind, start, latency in latencies:
                    log.record(f"service.request.{kind}", start, latency)
            trim()
            ref.sample()
            after = _counters(service)
            record = service.ring.epoch_record(index, 0)
            epochs.append(
                {
                    "start": t0,
                    "wall": wall,
                    "traced": on,
                    "latencies": [latency for _, _, latency in latencies],
                    "delta": {key: after[key] - before[key] for key in after},
                    "boundary_tests": after["boundary_tests"],
                    "retries": record.task_retries,
                    "incremental": record.incremental,
                    "index_bytes": record.memory_bytes,
                }
            )
            checked.append((centers, committed, [_answer_digest(*answer) for answer in answers]))
            del answers
            before = after
        peak_rss = host.peak_rss_mib()
        for _ in range(0 if traced else HEAP_OPS["service-mix"]):
            motion.step(dataset)
            centers = dataset.centers.copy()
            with host.HeapPeak() as heap:
                _, answers, committed = await _epoch(service, centers, outcome)
            heap_mb = max(heap_mb, heap.mib)
            checked.append((centers, committed, [_answer_digest(*answer) for answer in answers]))
            del answers
    finally:
        await service.stop()
    # Untimed, after the memory readings: every answer against direct joins
    # on the same geometry.
    for index, (centers, committed, digests) in enumerate(checked):
        geometry = SpatialDataset(centers, dataset.widths, bounds=dataset.bounds)
        tests, pairs = _check(geometry, digests, committed, outcome)
        if index < len(epochs):
            epochs[index].update(direct_tests=tests, direct_pairs=pairs)
    outcome.host.update(
        ref_s=ref.median_seconds(),
        steal_share=host.steal_share(ticks, host.cpu_ticks()),
        setup_raw_s=median(setup_times),
    )

    scale = [ref.scale(e["start"], e["start"] + e["wall"]) for e in epochs]
    epoch_norm = [e["wall"] / scale[i] for i, e in enumerate(epochs)]
    request_norm = [lat / scale[i] for i, e in enumerate(epochs) for lat in e["latencies"]]
    requests = sum(len(e["latencies"]) for e in epochs)
    if not traced:
        outcome.metrics.update(
            setup_s=REFERENCE_HOST_S
            * median(s / r for s, r in zip(setup_times, setup_refs, strict=True)),
            op_p50_ref=median(request_norm),
            ops_per_kref=1000.0 * requests / sum(epoch_norm),
            setup_peak_rss_mb=setup_rss,
            op_peak_heap_mb=heap_mb,
        )
        return
    outcome.metrics["host.setup_s"] = median(setup_times)
    _traced_metrics(epochs, scale, moved, peak_rss, log, outcome)


def _traced_metrics(
    epochs: list[dict[str, Any]],
    scale: list[float],
    moved: list[float],
    peak_rss: float,
    log: SpanLog,
    outcome: Outcome,
) -> None:
    traced_ops = {i for i, e in enumerate(epochs) if e["traced"]}
    untraced = [i for i, e in enumerate(epochs) if not e["traced"]]

    def med(layer: str) -> float:
        return median(log.wall_per_op(layer, traced_ops).values())

    def norm_latencies(ops: list[int] | set[int]) -> list[float]:
        return [lat / scale[i] for i in ops for lat in epochs[i]["latencies"]]

    raw = [lat for i in untraced for lat in epochs[i]["latencies"]]
    ring_tests = [e["delta"]["shard_tests"] + e["boundary_tests"] for e in epochs]
    shard_s = {i: epochs[i]["delta"]["shard_seconds"] for i in traced_ops}
    queries = log.per_op(
        traced_ops, lambda s: s.name in ("service.join_pairs", "service.distance_pairs")
    )
    stages = log.per_op(traced_ops, lambda s: s.name in ENGINE_STAGES)
    ring_busy = log.per_op(traced_ops, lambda s: s.name in _RING_CALLS.values())
    totals = {key: sum(e["delta"][key] for e in epochs) for key in epochs[0]["delta"]}
    incremental = [
        e["incremental"] for e in epochs if e["incremental"].get("mode") == "incremental"
    ]
    # The service runs no simulation and has no warm-up steps.
    zero = ("simulation.unexplained_share", "core.warmup_steps", "core.warmup_prepare_s")
    outcome.metrics.update(dict.fromkeys(zero, 0.0))
    outcome.metrics.update(
        {
            "host.ref_s": outcome.host["ref_s"],
            "host.steal_share": outcome.host["steal_share"],
            "host.step_p50_s": median(epochs[i]["wall"] for i in untraced),
            "host.request_p50_s": median(raw),
            "host.request_p90_s": percentile(raw, 90),
            "host.ops_per_s": len(raw) / sum(epochs[i]["wall"] for i in untraced),
            "host.peak_rss_mb": peak_rss,
            "datasets.motion_s": med("datasets.motion"),
            "datasets.moved_share": median(moved),
            "core.prepare_s": med("core.prepare"),
            "core.internal_s": med("core.internal"),
            "core.index_mb": epochs[-1]["index_bytes"] / 2**20,
            "engine.partition_s": med("engine.partition"),
            "engine.verify_s": med("engine.verify"),
            "engine.merge_s": med("engine.merge"),
            "engine.tasks": median(log.tasks[i] for i in traced_ops),
            "engine.unstaged_share": 1.0 - share(sum(stages.values()), sum(shard_s.values())),
            "engine.reverify_s": med("engine.reverify"),
            "engine.pairs_reused_share": median(
                share(c["pairs_reused"], c["maintained_pairs"]) for c in incremental
            ),
            "engine.fallbacks": int(epochs[-1]["incremental"].get("fallbacks", 0))
            - int(epochs[0]["incremental"].get("fallbacks", 0)),
            "engine.task_retries": sum(e["retries"] for e in epochs),
            "kernels.overlap_tests": median(ring_tests),
            "kernels.hit_ratio": share(sum(e["direct_pairs"] for e in epochs), sum(ring_tests)),
            "kernels.external_s": med("kernels.external"),
            "recovery.checkpoint_s": share(
                totals["checkpoint_seconds"], totals["checkpoints_written"]
            ),
            "recovery.checkpoint_mb": share(
                totals["checkpoint_bytes"], totals["checkpoints_written"]
            )
            / 2**20,
            "service.update_s": med("service.update"),
            "service.shard_join_s": median(shard_s.values()),
            "service.cross_shard_s": median(queries[i] - shard_s[i] for i in traced_ops),
            "service.boundary_tests": median(e["boundary_tests"] for e in epochs),
            "service.tests_vs_direct": median(
                t / e["direct_tests"] for t, e in zip(ring_tests, epochs, strict=True)
            ),
            "service.cache_hit_ratio": share(totals["hits"], totals["hits"] + totals["misses"]),
            "service.dedup_share": share(totals["batched"], totals["answered"]),
            "service.ring_busy_share": share(
                sum(ring_busy.values()), sum(epochs[i]["wall"] for i in traced_ops)
            ),
            "service.request_p90_ref": percentile(norm_latencies(untraced), 90),
            "obs.tracing_overhead": median(norm_latencies(traced_ops))
            / median(norm_latencies(untraced))
            - 1.0,
        }
    )
    outcome.report.append(render_table("service-mix", log.self_times(), len(traced_ops)))
