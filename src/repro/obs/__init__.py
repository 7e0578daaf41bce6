"""Step-level observability: trace spans, metrics registry, JSONL.

Three small, dependency-free pieces threaded through the whole stack:

:mod:`repro.obs.trace`
    Lightweight spans (name, phase, wall/CPU time, counters, parent)
    opened by the engine around the prepare/partition/verify/merge
    stages and recorded for every executed task — including tasks that
    ran in worker processes, whose measurements travel back through the
    existing result channel.  A process-wide active tracer defaults to
    a no-op; install one with :func:`set_tracer` or the ``REPRO_TRACE``
    environment variable.
:mod:`repro.obs.metrics`
    A registry of read-only providers snapshotting the index-internal
    counters each component already maintains (P-Grid cell accounting,
    T-Grid fallbacks, tuner state, executor degradation) into
    ``JoinStatistics.index_counters`` / ``StepRecord.index_counters``.
:mod:`repro.obs.jsonl` / :mod:`repro.obs.bench`
    JSON Lines emission and the schema-versioned ``BENCH_steps.json``
    bench-trajectory document (built by ``benchmarks/bench_steps.py``,
    validated in CI).

Hard invariant, enforced by the test suite: pair sets, overlap-test
totals and tuner decisions are bit-identical with observability on or
off; with everything off the overhead is a few attribute checks per
step.
"""

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    bench_run,
    environment_info,
    validate_bench,
)
from repro.obs.jsonl import JsonlWriter, json_default, to_jsonable
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Span,
    Tracer,
    emit_record,
    get_tracer,
    set_tracer,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "emit_record",
    "MetricsRegistry",
    "JsonlWriter",
    "json_default",
    "to_jsonable",
    "BENCH_SCHEMA_VERSION",
    "bench_run",
    "environment_info",
    "validate_bench",
]
