"""Simulation workloads: ``uniform-rejoin`` and ``lowmotion-maintain``.

Both drive :class:`repro.simulation.SimulationRunner` one step per call
from one process with the serial executor, as a simulation would: move
every object, join, consume the pairs.

* ``uniform-rejoin`` is the paper's uniform benchmark (paper density,
  width 15, every object moves every step) with a full re-join each
  step, so the P-Grid refresh and the verify kernels do the work.
* ``lowmotion-maintain`` moves 2% of the objects a short distance per
  step with pair maintenance on and a checkpoint every 10 steps, so the
  incremental delta plan, the maintained-set merge and the checkpoint
  writes do the work while the full verify kernels idle.

Set-up ends at the first step the program itself reports as steady: the
tuner has converged (``uniform-rejoin``) or the step ran in incremental
mode (``lowmotion-maintain``).  The reference kernel is sampled between
warm-up steps too, so set-up time is normalised like the steps.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from repro.core import ThermalJoin
from repro.datasets import IntermittentTranslation, SpatialDataset
from repro.experiments.workloads import scaled_uniform
from repro.geometry import brute_force_pairs
from repro.joins import PlaneSweepJoin
from repro.simulation import SimulationRunner, StepRecord

from perfbench import host
from perfbench.common import (
    HEAP_OPS,
    REFERENCE_HOST_S,
    SETUPS,
    Outcome,
    is_traced_op,
    median,
    pair_keys,
    share,
)
from perfbench.spans import ENGINE_STAGES, SpanLog, render_table


@dataclass(frozen=True)
class SimSpec:
    n: int
    maintained: bool
    checkpoint_every: int | None


SPECS = {
    "uniform-rejoin": SimSpec(n=10_000, maintained=False, checkpoint_every=None),
    "lowmotion-maintain": SimSpec(n=10_000, maintained=True, checkpoint_every=10),
}

#: Object count of the smoke scale the benchmark's own tests run.
SMOKE_N = 600
#: A run whose program never reports a steady step fails instead of hanging.
MAX_WARMUP_STEPS = 40
MIN_STEPS = 8
#: Above this size the exhaustive oracle costs several seconds per check,
#: so the plane-sweep join serves as the independent implementation.
BRUTE_FORCE_MAX_N = 4_000


#: Per-layer metrics of the service path, which these workloads never enter.
_SERVICE_ONLY = (
    "host.request_p50_s",
    "host.request_p90_s",
    "service.update_s",
    "service.shard_join_s",
    "service.cross_shard_s",
    "service.boundary_tests",
    "service.tests_vs_direct",
    "service.cache_hit_ratio",
    "service.dedup_share",
    "service.ring_busy_share",
    "service.request_p90_ref",
)


class StepFailed(RuntimeError):
    """The runner stopped on a step that failed past all of its recovery."""


class Sim:
    """One set-up simulation and the observations the benchmark takes of it."""

    def __init__(
        self, spec: SimSpec, n: int, seed: int, workdir: Path | None, log: SpanLog
    ) -> None:
        self.spec = spec
        self.dataset, motion = scaled_uniform(n, seed=seed)
        if spec.maintained:
            motion = IntermittentTranslation(
                self.dataset, distance=3.0, move_fraction=0.02, seed=seed + 1
            )
        self.join = ThermalJoin(
            count_only=False, pair_maintenance=spec.maintained, executor="serial"
        )
        self.runner = SimulationRunner(
            self.dataset,
            motion,
            self.join,
            checkpoint_dir=workdir,
            checkpoint_every=spec.checkpoint_every or 10,
        )
        self.last_result: Any = None
        self.moved_share = 0.0
        log.wrap(motion, "step", "datasets.motion", self._on_delta)
        log.wrap(self.join, "step_delta", "core.step_delta", self._on_result)
        log.wrap(self.runner, "run", "simulation.run")

    def _on_delta(self, delta: Any) -> None:
        self.moved_share = delta.moved_fraction

    def _on_result(self, result: Any) -> None:
        self.last_result = result

    def advance(self) -> StepRecord:
        """Run the next step of the trajectory; raises :class:`StepFailed`."""
        done = len(self.runner.records)
        self.runner.run(done + 1)
        if self.runner.failed_step is not None or len(self.runner.records) == done:
            raise StepFailed(f"step {done} failed: {self.runner.failure!r}")
        return self.runner.records[-1]

    def steady(self, record: StepRecord) -> bool:
        if self.spec.maintained:
            return record.incremental.get("mode") == "incremental"
        return bool(record.index_counters.get("tuner", {}).get("converged"))

    def checkpoint_totals(self) -> tuple[float, int, int]:
        """``(seconds, bytes, count)`` of the checkpoints written so far."""
        if self.runner.recovery is None:
            return 0.0, 0, 0
        snap = self.runner.recovery.snapshot()
        return (
            float(snap["checkpoint_seconds"]),
            int(snap["checkpoint_bytes"]),
            int(snap["checkpoints_written"]),
        )

    def result_keys(self) -> np.ndarray:
        return pair_keys(self.last_result.pairs, len(self.dataset))


def _oracle_keys(dataset: SpatialDataset) -> np.ndarray:
    if len(dataset) <= BRUTE_FORCE_MAX_N:
        pairs = brute_force_pairs(*dataset.boxes())
    else:
        pairs = PlaneSweepJoin(executor="serial").join_pairs(dataset)
    return pair_keys(pairs, len(dataset))


def _set_up(
    spec: SimSpec,
    n: int,
    seed: int,
    workdir: Path | None,
    log: SpanLog,
    ref: host.ReferenceKernel,
    outcome: Outcome,
) -> tuple[Sim, float, float]:
    """Build a simulation and step it to steady state.

    Returns ``(sim, seconds, reference seconds)``: the program's seconds,
    without the kernel samples taken after every warm-up step, and the
    reference kernel's seconds around the set-up.
    """
    ref.sample()
    started = time.perf_counter()
    sim = Sim(spec, n, seed, workdir, log)
    program_s = time.perf_counter() - started
    while True:
        outcome.attempted += 1
        t0 = time.perf_counter()
        record = sim.advance()
        program_s += time.perf_counter() - t0
        ref.sample()
        if sim.steady(record):
            break
        if len(sim.runner.records) >= MAX_WARMUP_STEPS:
            raise StepFailed(f"no steady step within {MAX_WARMUP_STEPS} steps")
    return sim, program_s, ref.scale(started, time.perf_counter())


@dataclass
class Measurement:
    """The measured steps of one run."""

    ops: list[tuple[float, float]] = field(default_factory=list)  # (start, wall)
    records: list[StepRecord] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    checkpoint: tuple[float, ...] = (0.0, 0, 0)
    sample: tuple[str, SpatialDataset, np.ndarray] | None = None

    @property
    def walls(self) -> list[float]:
        return [wall for _, wall in self.ops]


def _measure(
    sim: Sim,
    seconds: float,
    traced: bool,
    ref: host.ReferenceKernel,
    trim: host.HeapTrimmer,
    log: SpanLog,
    outcome: Outcome,
) -> Measurement:
    """Step the simulation for ``seconds``, sampling the reference kernel between steps."""
    out = Measurement()
    ckpt_start = sim.checkpoint_totals()
    ref.sample()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(out.ops) < MIN_STEPS:
        index = log.op = len(out.ops)
        on = traced and is_traced_op(index)
        ckpt_before = sim.checkpoint_totals()[0]
        outcome.attempted += 1
        with log.traced(on):
            t0 = time.perf_counter()
            record = sim.advance()
            wall = time.perf_counter() - t0
        ckpt_s = sim.checkpoint_totals()[0] - ckpt_before
        if on and ckpt_s > 0:
            # Checkpoint writes happen inside SimulationRunner.run and the
            # recovery provider times them, so they enter as a child span.
            log.record("recovery.checkpoint", t0, ckpt_s, parent=log.last("simulation.run"))
        trim()
        ref.sample()
        out.ops.append((t0, wall))
        out.records.append(record)
        out.traced.append(on)
        if index == 0:
            out.sample = ("first measured step", sim.dataset.copy(), sim.result_keys())
    out.checkpoint = tuple(
        end - start for end, start in zip(sim.checkpoint_totals(), ckpt_start, strict=True)
    )
    return out


def run(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    workdir: Path,
    outcome: Outcome,
    log: SpanLog,
) -> None:
    """Run workload ``name``, filling ``outcome`` (and ``log`` when ``traced``)."""
    spec = SPECS[name]
    n = SMOKE_N if smoke else spec.n
    ref = host.ReferenceKernel()
    trim = host.HeapTrimmer()
    setup_times: list[float] = []
    setup_refs: list[float] = []
    sim: Sim | None = None
    try:
        for index in range(1 if traced else SETUPS):
            # Free the previous set-up first, so peak RSS is one simulation's.
            sim = None
            gc.collect()
            trim()
            ckpt_dir = workdir / f"setup{index}" if spec.checkpoint_every else None
            sim, setup_s, setup_ref = _set_up(spec, n, seed, ckpt_dir, log, ref, outcome)
            setup_times.append(setup_s)
            setup_refs.append(setup_ref)
        assert sim is not None
        warmup_steps = len(sim.runner.records) - 1
        setup_rss = host.peak_rss_mib()
        ticks = host.cpu_ticks()
        measured = _measure(sim, seconds, traced, ref, trim, log, outcome)
        peak_rss = host.peak_rss_mib()  # before the oracle joins below
        heap_mb = 0.0
        for _ in range(0 if traced else HEAP_OPS[name]):
            outcome.attempted += 1
            with host.HeapPeak() as heap:
                sim.advance()
            heap_mb = max(heap_mb, heap.mib)
        outcome.host.update(
            ref_s=ref.median_seconds(),
            steal_share=host.steal_share(ticks, host.cpu_ticks()),
            setup_raw_s=median(setup_times),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Correctness, untimed: sampled steps against an independent join of
    # the same geometry (uniform-rejoin: the first measured and the final
    # step; lowmotion-maintain: the final maintained pair set).
    checks = [("final step", sim.dataset, sim.result_keys())]
    if not spec.maintained and measured.sample is not None:
        checks.insert(0, measured.sample)
    for label, dataset, keys in checks:
        if not np.array_equal(keys, _oracle_keys(dataset)):
            outcome.mismatch(f"{name}: {label} pairs differ from the oracle")

    walls = measured.walls
    norm = ref.normalised(measured.ops)
    if not traced:
        outcome.metrics.update(
            setup_s=REFERENCE_HOST_S
            * median(s / r for s, r in zip(setup_times, setup_refs, strict=True)),
            op_p50_ref=median(norm),
            ops_per_kref=1000.0 * len(norm) / sum(norm),
            setup_peak_rss_mb=setup_rss,
            op_peak_heap_mb=heap_mb,
        )
        return

    records = measured.records
    traced_ops = {i for i, on in enumerate(measured.traced) if on}
    untraced = [i for i, on in enumerate(measured.traced) if not on]

    def med(layer: str) -> float:
        return median(log.wall_per_op(layer, traced_ops).values())

    def total(layer: str) -> float:
        return sum(log.wall_per_op(layer, traced_ops).values())

    incremental = [r.incremental for r in records if r.incremental.get("mode") == "incremental"]
    useful = sum(
        int(r.incremental.get("pairs_reverified", 0))
        if r.incremental.get("mode") == "incremental"
        else r.n_results
        for r in records
    )
    ckpt_s, ckpt_bytes, ckpt_count = measured.checkpoint
    stages = sum(total(layer) for layer in ENGINE_STAGES)
    outcome.metrics.update(dict.fromkeys(_SERVICE_ONLY, 0.0))
    outcome.metrics.update(
        {
            "host.ref_s": outcome.host["ref_s"],
            "host.steal_share": outcome.host["steal_share"],
            "host.step_p50_s": median(walls[i] for i in untraced),
            "host.setup_s": median(setup_times),
            "host.ops_per_s": len(untraced) / sum(walls[i] for i in untraced),
            "host.peak_rss_mb": peak_rss,
            "simulation.unexplained_share": 1.0
            - share(
                total("datasets.motion") + total("core.step_delta") + total("recovery.checkpoint"),
                total("simulation.run"),
            ),
            "datasets.motion_s": med("datasets.motion"),
            "datasets.moved_share": sim.moved_share,
            "core.warmup_steps": warmup_steps,
            "core.warmup_prepare_s": sum(
                r.stage_seconds.get("prepare", 0.0) for r in sim.runner.records[:warmup_steps]
            ),
            "core.prepare_s": med("core.prepare"),
            "core.internal_s": med("core.internal"),
            "core.index_mb": records[-1].memory_bytes / 2**20,
            "engine.partition_s": med("engine.partition"),
            "engine.verify_s": med("engine.verify"),
            "engine.merge_s": med("engine.merge"),
            "engine.tasks": median(log.tasks[i] for i in traced_ops),
            "engine.unstaged_share": 1.0 - share(stages, total("core.step_delta")),
            "engine.reverify_s": med("engine.reverify"),
            "engine.pairs_reused_share": median(
                share(c["pairs_reused"], c["maintained_pairs"]) for c in incremental
            ),
            "engine.fallbacks": int(records[-1].incremental.get("fallbacks", 0))
            - int(records[0].incremental.get("fallbacks", 0)),
            "engine.task_retries": sum(r.task_retries for r in records),
            "kernels.overlap_tests": median(r.overlap_tests for r in records),
            "kernels.hit_ratio": share(useful, sum(r.overlap_tests for r in records)),
            "kernels.external_s": med("kernels.external"),
            "recovery.checkpoint_s": share(ckpt_s, ckpt_count),
            "recovery.checkpoint_mb": share(ckpt_bytes, ckpt_count) / 2**20,
            "obs.tracing_overhead": median(norm[i] for i in traced_ops)
            / median(norm[i] for i in untraced)
            - 1.0,
        }
    )
    outcome.report.append(render_table(name, log.self_times(), len(traced_ops)))
