"""Bench-trajectory document: schema, builders and validation.

``BENCH_steps.json`` is the repo's machine-readable perf record: every
claim of the paper is a *per-time-step* quantity (join time, overlap
tests, footprint, tuner convergence), so the document stores one
per-step series per (workload, algorithm, executor) run plus aggregates
and the environment that produced them.  The schema is versioned;
:func:`validate_bench` is what CI runs against the freshly produced
document and what the test suite runs against a smoke run.

Document shape (``BENCH_SCHEMA_VERSION`` 5)::

    {
      "schema_version": 5,
      "kind": "bench_steps",
      "environment": {"python": ..., "numpy": ..., "platform": ...,
                       "cpu_count": ...},
      "config": {...},                    # driver knobs (free-form)
      "runs": [
        {
          "workload": "uniform", "algorithm": "thermal-join",
          "executor": "serial", "checkpoint_every": 0,
          "n_objects": 5000, "n_steps": 6,
          "steps": [ {step record}, ... ],   # one per simulated step
          "aggregates": {"total_seconds": ..., "total_overlap_tests": ...,
                          "peak_memory_bytes": ..., "total_results": ...,
                          "task_retries": ..., "degraded_steps": ...}
        }, ...
      ]
    }

Each step record is :meth:`~repro.simulation.StepRecord.to_json`: one
key per :class:`~repro.simulation.StepRecord` field — the Figure-7
series (``n_results``, ``join_seconds``, ``build_seconds``,
``overlap_tests``, ``memory_bytes``) plus the phase and engine stage
breakdowns, the robustness record (``events``, ``task_retries``) and
the metrics-registry snapshot (``index_counters`` — tuner resolution,
P-Grid cell accounting, ...).  ``degraded_steps`` lists the indices of
the steps that ran degraded.

Schema version 2 adds the ``incremental`` step key: the pair-maintenance
counters (mode, moved fraction, pairs reused/re-verified, fallback
count) surfaced by algorithms that maintain their result across steps;
``{}`` for algorithms without the provider.

Schema version 3 adds the scaling section: ``uniform-scale`` runs that
record step time versus object count.  Version 3 documents also carried
a run-level ``kernel_backend`` key; there is one kernel implementation
now, so runs no longer write it, and a document that still has it
validates (extra keys are allowed).

Schema version 4 adds the run-level ``checkpoint_every`` key: the
durable-checkpoint cadence the run executed with (``0`` when
checkpointing was off).  The ``uniform-checkpoint`` scenario runs the
same trajectory with checkpointing off and on, so the document records
the measured checkpoint overhead alongside the bit-identical series.

Schema version 5 adds the optional run-level ``service`` block: the
front-end counters of a :class:`~repro.service.JoinService` run —
shard count, concurrent clients, accepted/rejected/batched request
counts, and the measured throughput (queries per second) and latency
(mean/max seconds).  The ``uniform-service`` scenario drives the
sharded async service over the uniform trajectory, asserts its answers
are bit-identical to direct library calls (including across an
injected shard kill), and records the per-epoch series through
:meth:`~repro.service.ShardRing.epoch_record`.
"""

from __future__ import annotations

import os
import platform
import sys
from collections.abc import Sequence
from dataclasses import fields
from typing import Any

from repro.obs.jsonl import to_jsonable
from repro.simulation.runner import StepRecord

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_run",
    "environment_info",
    "validate_bench",
]

BENCH_SCHEMA_VERSION = 5

#: Required keys of one run entry.
RUN_FIELDS = (
    "workload",
    "algorithm",
    "executor",
    "checkpoint_every",
    "n_objects",
    "n_steps",
    "steps",
    "aggregates",
)

#: Required keys of the optional run-level ``service`` block (schema
#: v5): present on runs produced through the sharded async front-end.
SERVICE_FIELDS = (
    "n_shards",
    "clients",
    "accepted",
    "rejected",
    "batched",
    "answered",
    "wall_seconds",
    "throughput_qps",
    "latency_mean_seconds",
    "latency_max_seconds",
)

#: Required keys of the aggregates block.
AGGREGATE_FIELDS = (
    "total_seconds",
    "total_overlap_tests",
    "peak_memory_bytes",
    "total_results",
    "task_retries",
    "degraded_steps",
)


def environment_info() -> dict[str, Any]:
    """The environment block: interpreter, numpy, platform, cores."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def bench_run(
    workload: str,
    algorithm: str,
    records: Sequence[StepRecord],
    *,
    n_objects: int,
    executor: str = "serial",
    checkpoint_every: int = 0,
    degraded_steps: Sequence[int] | None = None,
    checkpoint_seconds: float | None = None,
) -> dict[str, Any]:
    """One run entry: the step series of ``records`` and its aggregates.

    ``degraded_steps`` defaults to the steps whose records carry a
    degradation event (:attr:`~repro.simulation.StepRecord.degraded`).
    Checkpointing runs pass ``checkpoint_seconds``, the run-final
    recovery counter (not the last step's snapshot — a checkpoint
    written after the final step's metrics snapshot would otherwise be
    missed).
    """
    if degraded_steps is None:
        degraded_steps = [record.step for record in records if record.degraded]
    aggregates: dict[str, Any] = {
        "total_seconds": sum(record.total_seconds for record in records),
        "total_overlap_tests": sum(record.overlap_tests for record in records),
        "peak_memory_bytes": max((record.memory_bytes for record in records), default=0),
        "total_results": sum(record.n_results for record in records),
        "task_retries": sum(record.task_retries for record in records),
        "degraded_steps": list(degraded_steps),
    }
    if checkpoint_seconds is not None:
        aggregates["checkpoint_seconds"] = checkpoint_seconds
    return {
        "workload": workload,
        "algorithm": algorithm,
        "executor": executor,
        "checkpoint_every": checkpoint_every,
        "n_objects": n_objects,
        "n_steps": len(records),
        "steps": to_jsonable([record.to_json() for record in records]),
        "aggregates": aggregates,
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid bench document: {message}")


def validate_bench(doc: dict[str, Any]) -> dict[str, Any]:
    """Validate a bench document against the schema; returns ``doc``.

    Raises :class:`ValueError` naming the first violated constraint.
    Checked: versioned top level, environment block, non-empty runs,
    required run/step/aggregate fields, per-step series consistency
    (monotone step indices, aggregate totals equal to the series sums).
    """
    _require(isinstance(doc, dict), "top level must be an object")
    _require(
        doc.get("schema_version") == BENCH_SCHEMA_VERSION,
        f"schema_version must be {BENCH_SCHEMA_VERSION}",
    )
    _require(doc.get("kind") == "bench_steps", "kind must be 'bench_steps'")
    environment = doc.get("environment")
    _require(isinstance(environment, dict), "environment block missing")
    for key in ("python", "numpy", "platform", "cpu_count"):
        _require(key in environment, f"environment.{key} missing")
    runs = doc.get("runs")
    _require(isinstance(runs, list) and runs, "runs must be a non-empty list")
    step_keys = [spec.name for spec in fields(StepRecord)]
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        _require(isinstance(run, dict), f"{where} must be an object")
        for key in RUN_FIELDS:
            _require(key in run, f"{where}.{key} missing")
        steps = run["steps"]
        _require(isinstance(steps, list) and steps, f"{where}.steps empty")
        _require(
            len(steps) == run["n_steps"],
            f"{where}: n_steps={run['n_steps']} but {len(steps)} step records",
        )
        for k, step in enumerate(steps):
            for key in step_keys:
                _require(key in step, f"{where}.steps[{k}].{key} missing")
            _require(
                step["step"] == k, f"{where}.steps[{k}] has step index {step['step']}"
            )
        aggregates = run["aggregates"]
        for key in AGGREGATE_FIELDS:
            _require(key in aggregates, f"{where}.aggregates.{key} missing")
        if "service" in run:
            service = run["service"]
            _require(
                isinstance(service, dict), f"{where}.service must be an object"
            )
            for key in SERVICE_FIELDS:
                _require(key in service, f"{where}.service.{key} missing")
            _require(
                service["answered"] <= service["accepted"],
                f"{where}.service: answered exceeds accepted",
            )
        _require(
            aggregates["total_overlap_tests"]
            == sum(step["overlap_tests"] for step in steps),
            f"{where}: total_overlap_tests does not equal the series sum",
        )
        _require(
            aggregates["total_results"]
            == sum(step["n_results"] for step in steps),
            f"{where}: total_results does not equal the series sum",
        )
        _require(
            aggregates["peak_memory_bytes"]
            == max(step["memory_bytes"] for step in steps),
            f"{where}: peak_memory_bytes does not equal the series max",
        )
    return doc
