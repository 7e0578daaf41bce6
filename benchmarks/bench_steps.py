"""Step-trajectory bench driver: BENCH_steps.json producer.

Runs a small matrix of (workload, algorithm, executor) simulations
through :class:`~repro.simulation.SimulationRunner` and writes the
per-step series — the Figure-7 quantities plus engine stage times,
robustness events and the metrics-registry snapshots — as the
schema-versioned ``BENCH_steps.json`` document defined in
:mod:`repro.obs.bench`.

Two entry points:

* under pytest (``pytest benchmarks/bench_steps.py``) a smoke-scale
  matrix runs, the document is validated against the schema, and the
  tracing-on/off bit-identity invariant is asserted;
* as a script::

      PYTHONPATH=src python benchmarks/bench_steps.py            # default scale
      PYTHONPATH=src python benchmarks/bench_steps.py --smoke    # CI scale
      PYTHONPATH=src python benchmarks/bench_steps.py --scale 4000 50000 500000
      PYTHONPATH=src python benchmarks/bench_steps.py --trace results/trace.jsonl

  writing ``results/BENCH_steps.json`` (and, with ``--trace``, the span
  stream of every step).  The document is validated *before* it is
  written; a schema violation fails the run.

Schema v3 adds the scaling section: the ``uniform-scale`` runs sweep
object count at fixed paper density, recording the
step-time-versus-object-count curve.  ``--scale`` overrides the size
list — the manual ``bench-scale`` CI job uses it to push the sweep to
500k objects.

Schema v4 adds the checkpoint section: the ``uniform-checkpoint``
scenario runs the same trajectory with durable checkpointing off and on
(``checkpoint_every=10`` at default scale), asserts the two series are
identical (checkpointing is purely observational), and records both
runs so the document carries the measured checkpoint overhead.

Schema v5 adds the service section: the ``uniform-service`` scenario
drives the sharded async :class:`~repro.service.JoinService` over the
uniform trajectory with a burst of concurrent clients per epoch,
asserts every answer is bit-identical to a direct library join on the
same geometry (including across an injected mid-run shard kill, which
must degrade — never corrupt — the answers), and records the per-epoch
series plus the front-end throughput/latency counters in the run-level
``service`` block.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core import ThermalJoin  # noqa: E402
from repro.datasets import IntermittentTranslation  # noqa: E402
from repro.experiments.workloads import scaled_neural, scaled_uniform  # noqa: E402
from repro.joins import PBSMJoin, PlaneSweepJoin  # noqa: E402
from repro.geometry import pack_pairs  # noqa: E402
from repro.obs import (  # noqa: E402
    BENCH_SCHEMA_VERSION,
    JsonlWriter,
    Tracer,
    bench_run,
    environment_info,
    set_tracer,
    validate_bench,
)
from repro.service import JoinService  # noqa: E402
from repro.simulation import SimulationRunner  # noqa: E402

#: serial plus one parallel backend; every backend must reproduce the
#: serial counts exactly (the engine's interchangeability guarantee).
EXECUTORS = ("serial", "thread:2")

#: ``incremental_steps`` is longer than ``n_steps`` because the
#: pair-maintenance runs need the tuner to converge (a few full steps)
#: before the incremental regime shows up in the series at all.
SMOKE = {
    "uniform_n": 500,
    "neural_n": 500,
    "n_steps": 3,
    "incremental_steps": 6,
    "scale_sizes": (500, 1_000),
    "scale_steps": 2,
    "checkpoint_steps": 4,
    "checkpoint_every": 2,
    "service_steps": 3,
    "service_shards": 3,
    "service_clients": 4,
}
DEFAULT = {
    "uniform_n": 4_000,
    "neural_n": 4_000,
    "n_steps": 6,
    "incremental_steps": 10,
    "scale_sizes": (4_000, 50_000),
    "scale_steps": 3,
    "checkpoint_steps": 12,
    "checkpoint_every": 10,
    "service_steps": 6,
    "service_shards": 4,
    "service_clients": 8,
}

#: Pair-maintenance scenarios (schema v2): each is
#: ``(workload name, IntermittentTranslation kwargs, churn_threshold)``.
#: ``uniform-low-motion`` moves a tiny fraction of objects a short
#: distance each step — the regime where the incremental path should
#: beat the full re-join by a wide margin — while ``uniform-high-churn``
#: pins ``churn_threshold=0.0`` so every delta step *forces* a fallback,
#: exercising the degradation path and its counters end to end.
INCREMENTAL_SCENARIOS = (
    ("uniform-low-motion", {"move_fraction": 0.02, "distance": 3.0}, None),
    ("uniform-high-churn", {"move_fraction": 0.50, "distance": 10.0}, 0.0),
)


def _simulate(workload, label, dataset, motion, algorithm, n_steps, executor="serial", **kwargs):
    """Run one simulation to ``n_steps`` and return its run entry.

    ``kwargs`` go to :class:`~repro.simulation.SimulationRunner`.  A step
    that failed past all recovery fails the bench.
    """
    runner = SimulationRunner(dataset, motion, algorithm, **kwargs)
    records = runner.run(n_steps)
    algorithm.executor.close()
    if runner.failure is not None:
        raise runner.failure
    return bench_run(
        workload,
        label,
        records,
        n_objects=len(dataset),
        executor=executor,
        checkpoint_every=kwargs.get("checkpoint_every", 0),
        checkpoint_seconds=runner.recovery.checkpoint_seconds if runner.recovery else None,
    )


def _series(run):
    """The ``(n_results, overlap_tests)`` series of a run entry."""
    return [(step["n_results"], step["overlap_tests"]) for step in run["steps"]]


def _algorithms(executor):
    """The bench matrix's algorithm column: THERMAL-JOIN + 2 baselines."""
    return (
        ThermalJoin(count_only=True, executor=executor),
        PBSMJoin(count_only=True, executor=executor),
        PlaneSweepJoin(count_only=True, executor=executor),
    )


def _workloads(config, seed=7):
    """(name, factory) pairs; factories rebuild the workload from the
    same seed so every run sees an identical, fresh trajectory (motion
    models are stateful and must not be shared across runs)."""

    def uniform():
        dataset, motion = scaled_uniform(config["uniform_n"], seed=seed)
        return dataset, motion

    def neural():
        dataset, motion, _labels = scaled_neural(config["neural_n"], seed=seed)
        return dataset, motion

    return (("uniform", uniform), ("neural", neural))


def run_matrix(config, trace_path=None):
    """Run the bench matrix; returns the (validated) bench document.

    Every (workload, algorithm) pair runs once per executor backend on a
    fresh copy of the workload, so the series are directly comparable;
    a mismatch in result or overlap-test counts across backends is a
    correctness bug and fails the run immediately.
    """
    previous = None
    writer = None
    if trace_path is not None:
        writer = JsonlWriter(trace_path)
        previous = set_tracer(Tracer(sink=writer))
    try:
        runs = (
            _run_matrix_inner(config)
            + _incremental_runs(config)
            + _scaling_runs(config)
            + _checkpoint_runs(config)
            + _service_runs(config)
        )
    finally:
        if trace_path is not None:
            set_tracer(previous)
            writer.close()
    document = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "bench_steps",
        "environment": environment_info(),
        "config": dict(config),
        "runs": runs,
    }
    return validate_bench(document)


def _run_matrix_inner(config):
    runs = []
    reference = {}
    for executor in EXECUTORS:
        for workload, factory in _workloads(config):
            for algorithm in _algorithms(executor):
                run = _simulate(
                    workload, algorithm.name, *factory(), algorithm, config["n_steps"], executor
                )
                key = (workload, algorithm.name)
                reference.setdefault(key, _series(run))
                if reference[key] != _series(run):
                    raise AssertionError(
                        f"executor {executor!r} changed the {key} series"
                    )
                runs.append(run)
    return runs


def _incremental_runs(config):
    """Pair-maintenance section of the bench matrix.

    Each scenario runs THERMAL-JOIN twice on a fresh copy of the same
    trajectory — once recomputing from scratch every step
    (``thermal-join``) and once maintaining the pair set through motion
    deltas (``thermal-join-incremental``) — and asserts that maintenance
    never changes the result series.  The maintained run's per-step
    ``incremental`` block carries the mode, the moved fraction and the
    reuse/fallback counters.
    """
    runs = []
    n_steps = config.get("incremental_steps", config["n_steps"])
    for workload, motion_kwargs, churn_threshold in INCREMENTAL_SCENARIOS:
        series = {}
        for label, maintain in (("thermal-join", False), ("thermal-join-incremental", True)):
            algorithm_kwargs = {"pair_maintenance": maintain}
            if maintain and churn_threshold is not None:
                algorithm_kwargs["churn_threshold"] = churn_threshold
            dataset, _ = scaled_uniform(config["uniform_n"], seed=7)
            motion = IntermittentTranslation(dataset, seed=8, **motion_kwargs)
            algorithm = ThermalJoin(count_only=True, executor="serial", **algorithm_kwargs)
            run = _simulate(workload, label, dataset, motion, algorithm, n_steps)
            series[label] = [n for n, _ in _series(run)]
            runs.append(run)
        if series["thermal-join"] != series["thermal-join-incremental"]:
            raise AssertionError(
                f"pair maintenance changed the {workload} result series"
            )
    return runs


def _scaling_runs(config):
    """Scaling section (schema v3): step time versus object count.

    THERMAL-JOIN runs the same uniform trajectory at paper density for
    every size in ``config["scale_sizes"]``, recording the
    step-time-versus-object-count curve.
    """
    n_steps = config.get("scale_steps", config["n_steps"])
    return [
        _simulate(
            "uniform-scale",
            "thermal-join",
            *scaled_uniform(size, seed=7),
            ThermalJoin(count_only=True, executor="serial"),
            n_steps,
        )
        for size in config.get("scale_sizes", ())
    ]


def _checkpoint_runs(config):
    """Checkpoint section (schema v4): durable-checkpoint overhead.

    THERMAL-JOIN runs the same uniform trajectory twice — once with
    checkpointing off and once writing a durable checkpoint every
    ``config["checkpoint_every"]`` steps into a scratch directory — and
    asserts the two series are identical: checkpointing is purely
    observational and must never perturb the join.  Both runs land in
    the document; the overhead itself is read from the checkpointed
    run's ``recovery`` counters (see :func:`checkpoint_overhead`), not
    by differencing the two aggregates blocks.
    """
    n_steps = config.get("checkpoint_steps", config["n_steps"])
    cadence = config.get("checkpoint_every", 10)
    plain = _simulate(
        "uniform-checkpoint",
        "thermal-join",
        *scaled_uniform(config["uniform_n"], seed=7),
        ThermalJoin(count_only=True, executor="serial"),
        n_steps,
    )
    with tempfile.TemporaryDirectory() as scratch:
        checkpointed = _simulate(
            "uniform-checkpoint",
            "thermal-join-checkpointed",
            *scaled_uniform(config["uniform_n"], seed=7),
            ThermalJoin(count_only=True, executor="serial"),
            n_steps,
            checkpoint_dir=scratch,
            checkpoint_every=cadence,
        )
    written = sum(
        event["kind"] == "checkpoint"
        for step in checkpointed["steps"]
        for event in step["events"]
    )
    assert written == n_steps // cadence, "checkpoint cadence not honoured"
    if _series(plain) != _series(checkpointed):
        raise AssertionError("checkpointing changed the uniform result series")
    return [plain, checkpointed]


def _service_runs(config):
    """Service section (schema v5): the sharded async front-end.

    Drives a :class:`~repro.service.JoinService` over the uniform
    trajectory: each epoch a burst of concurrent clients issues the
    same join query (exercising batch dedup), the answers are checked
    bit-identical to a direct library join on the same geometry, and
    the next motion step streams in as an update.  A one-shot shard
    kill is injected at the middle epoch — the ring must re-home and
    keep answering exactly (``degraded``, never wrong).  The per-epoch
    series comes from :meth:`~repro.service.ShardRing.epoch_record`;
    the run's ``degraded_steps`` are the epochs with a degraded answer,
    and the run-level ``service`` block carries the front-end
    throughput/latency counters.
    """
    n_steps = config.get("service_steps", config["n_steps"])
    n_shards = config.get("service_shards", 4)
    clients = config.get("service_clients", 8)
    kill_at = n_steps // 2
    dataset, motion = scaled_uniform(config["uniform_n"], seed=7)
    n_objects = len(dataset)
    service = JoinService(dataset, n_shards=n_shards, executor="serial")

    async def drive():
        records = []
        degraded_steps = []
        async with service:
            started = time.perf_counter()
            for step in range(n_steps):
                if step:
                    motion.step(dataset)
                    await service.update(dataset.centers.copy())
                if step == kill_at:
                    await service.kill_shard(0)
                answers = await asyncio.gather(
                    *(service.join() for _ in range(clients))
                )
                expected = pack_pairs(
                    *ThermalJoin().join_pairs(dataset), n_objects
                )
                for answer in answers:
                    if not np.array_equal(
                        pack_pairs(*answer.pairs, n_objects), expected
                    ):
                        raise AssertionError(
                            f"service answer diverged from the library "
                            f"at epoch {step}"
                        )
                if any(answer.degraded for answer in answers):
                    degraded_steps.append(step)
                records.append(
                    service.ring.epoch_record(step, answers[0].n_results)
                )
            wall = time.perf_counter() - started
            frontend = service.ring.metrics.snapshot()["frontend"]
        return records, degraded_steps, wall, frontend

    records, degraded_steps, wall, frontend = asyncio.run(drive())
    if not degraded_steps:
        raise AssertionError("the injected shard kill left no degraded epoch")
    run = bench_run(
        "uniform-service",
        "thermal-join-service",
        records,
        n_objects=n_objects,
        degraded_steps=degraded_steps,
    )
    run["service"] = {
        "n_shards": n_shards,
        "clients": clients,
        "accepted": frontend["accepted"],
        "rejected": frontend["rejected"],
        "batched": frontend["batched"],
        "answered": frontend["answered"],
        "wall_seconds": wall,
        "throughput_qps": frontend["answered"] / wall if wall else 0.0,
        "latency_mean_seconds": frontend["latency_mean_seconds"],
        "latency_max_seconds": frontend["latency_max_seconds"],
    }
    return [run]


def checkpoint_overhead(document):
    """Fractional step-time overhead of checkpointing on the
    ``uniform-checkpoint`` scenario (``None`` when the section is absent
    or the run measured zero join time).

    Measured *inside* the checkpointed run: the ``recovery`` counters
    accumulate wall seconds spent in checkpoint writes
    (``aggregates.checkpoint_seconds``), so the overhead is checkpoint
    time over the same run's join time.  Differencing the off/on runs'
    totals instead would drown a few-percent effect in run-to-run noise
    at bench trajectory lengths.
    """
    for run in document["runs"]:
        if (
            run["workload"] == "uniform-checkpoint"
            and run["algorithm"] == "thermal-join-checkpointed"
        ):
            aggregates = run["aggregates"]
            if not aggregates["total_seconds"]:
                return None
            return aggregates["checkpoint_seconds"] / aggregates["total_seconds"]
    return None


def incremental_speedup(document):
    """Mean full-step time / mean incremental-step time on the
    low-motion scenario (``None`` when no incremental steps ran).

    Compared over the steps in which the maintained run actually took
    the incremental path, so the tuner warm-up steps (identical in both
    runs by construction) don't dilute the ratio.
    """
    by_label = {
        run["algorithm"]: run["steps"]
        for run in document["runs"]
        if run["workload"] == "uniform-low-motion"
    }
    full = by_label.get("thermal-join")
    maintained = by_label.get("thermal-join-incremental")
    if not full or not maintained:
        return None
    incremental_steps = [
        (f, m)
        for f, m in zip(full, maintained, strict=True)
        if m["incremental"].get("mode") == "incremental"
    ]
    if not incremental_steps:
        return None
    full_mean = sum(f["join_seconds"] for f, _ in incremental_steps)
    incr_mean = sum(m["join_seconds"] for _, m in incremental_steps)
    if incr_mean <= 0:
        return None
    return full_mean / incr_mean


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI scale: tiny workloads, 3 steps (seconds, not minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "results"
        / "BENCH_steps.json",
        help="output document path (default results/BENCH_steps.json)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="override the scaling-section object counts "
        "(e.g. --scale 4000 50000 500000 for the manual bench-scale job)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="OUT.JSONL",
        help="also stream engine trace spans to this JSONL file",
    )
    args = parser.parse_args(argv)

    config = dict(SMOKE if args.smoke else DEFAULT)
    if args.scale is not None:
        config["scale_sizes"] = tuple(args.scale)
    document = run_matrix(config, trace_path=args.trace)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    speedup = incremental_speedup(document)
    overhead = checkpoint_overhead(document)
    print(
        f"wrote {args.out}: {len(document['runs'])} runs, "
        f"schema v{document['schema_version']}"
        + (
            f", low-motion incremental speedup {speedup:.1f}x"
            if speedup is not None
            else ""
        )
        + (
            f", checkpoint overhead {overhead * 100:+.1f}%"
            if overhead is not None
            else ""
        )
        + (f", trace at {args.trace}" if args.trace else "")
    )
    return document


# ----------------------------------------------------------------------
# pytest entry point: smoke matrix + schema + bit-identity
# ----------------------------------------------------------------------
def test_smoke_matrix_is_schema_valid(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    traced = run_matrix(dict(SMOKE), trace_path=trace_path)
    plain = run_matrix(dict(SMOKE))
    # Tracing must be purely observational: identical series either way.
    for run_traced, run_plain in zip(traced["runs"], plain["runs"], strict=True):
        for step_traced, step_plain in zip(
        run_traced["steps"], run_plain["steps"], strict=True
    ):
            assert step_traced["n_results"] == step_plain["n_results"]
            assert step_traced["overlap_tests"] == step_plain["overlap_tests"]
            assert step_traced["memory_bytes"] == step_plain["memory_bytes"]
    assert trace_path.exists()
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert spans and all(span["kind"] == "span" for span in spans)

    # Pair-maintenance section: modes and counters must be present, the
    # low-motion run must actually take the incremental path and the
    # forced-fallback run must never take it.
    modes = {}
    for run in plain["runs"]:
        if run["algorithm"] != "thermal-join-incremental":
            continue
        blocks = [step["incremental"] for step in run["steps"]]
        assert all(block for block in blocks), "incremental counters missing"
        modes[run["workload"]] = [block["mode"] for block in blocks]
        assert all(
            "pairs_reused" in block and "fallbacks" in block for block in blocks
        )
    assert "incremental" in modes["uniform-low-motion"]
    assert "incremental" not in modes["uniform-high-churn"]
    assert "fallback" in modes["uniform-high-churn"]

    # Schema v4: the checkpoint section holds the off/on pair with
    # identical series lengths, the checkpointed run carries checkpoint
    # events and the recovery counters, and the off runs say so.
    checkpoint_runs = {
        run["algorithm"]: run
        for run in plain["runs"]
        if run["workload"] == "uniform-checkpoint"
    }
    assert set(checkpoint_runs) == {"thermal-join", "thermal-join-checkpointed"}
    assert checkpoint_runs["thermal-join"]["checkpoint_every"] == 0
    checkpointed = checkpoint_runs["thermal-join-checkpointed"]
    assert checkpointed["checkpoint_every"] == SMOKE["checkpoint_every"]
    checkpoint_events = [
        event
        for step in checkpointed["steps"]
        for event in step["events"]
        if event.get("kind") == "checkpoint"
    ]
    assert len(checkpoint_events) == (
        SMOKE["checkpoint_steps"] // SMOKE["checkpoint_every"]
    )
    assert checkpoint_overhead(plain) is not None

    # Schema v5: the service section holds the uniform-service run —
    # its front-end block carries real throughput/latency, the burst
    # dedup actually batched something, and the injected shard kill
    # shows up as degraded epochs and shard events without ever
    # breaking the (already asserted) bit-identity.
    service_runs = [
        run for run in plain["runs"] if run["workload"] == "uniform-service"
    ]
    assert len(service_runs) == 1, "service run missing from the bench"
    service_run = service_runs[0]
    block = service_run["service"]
    assert block["n_shards"] == SMOKE["service_shards"]
    assert block["clients"] == SMOKE["service_clients"]
    assert block["answered"] == block["accepted"] and block["rejected"] == 0
    assert block["batched"] > 0, "client burst never hit batch dedup"
    assert block["throughput_qps"] > 0 and block["latency_mean_seconds"] > 0
    degraded = service_run["aggregates"]["degraded_steps"]
    assert isinstance(degraded, list) and degraded, degraded
    shard_events = [
        event["kind"]
        for step in service_run["steps"]
        for event in step["events"]
        if str(event.get("kind", "")).startswith("shard_")
    ]
    assert "shard_failed" in shard_events and "shard_rehomed" in shard_events

    # Schema v3: the scaling section covers every size.
    scale_runs = [run for run in plain["runs"] if run["workload"] == "uniform-scale"]
    assert sorted(run["n_objects"] for run in scale_runs) == sorted(SMOKE["scale_sizes"])
    assert all(
        step["join_seconds"] >= 0 for run in scale_runs for step in run["steps"]
    )


if __name__ == "__main__":
    main()
