"""Metric catalogue, run outcome and the helpers every workload shares."""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics (``--trace 0``), by name and unit.  An op is a
#: simulation step on the simulation workloads and a service request on
#: ``service-mix``; ``ref`` is seconds divided by the reference kernel's
#: seconds timed next to the op.  ``setup_s`` is normalised the same way
#: and then scaled by :data:`REFERENCE_HOST_S`, so it reads in seconds of
#: the reference host.  ``op_peak_heap_mb`` is the most memory the program
#: allocates within one op, over :data:`HEAP_OPS` untimed ops after the
#: measured phase.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "ops_per_kref": "1/kref",
    "setup_peak_rss_mb": "MiB",
    "op_peak_heap_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``), by name and unit.  Every workload
#: reports all of them; a layer the workload does not use reads 0.
PER_LAYER = {
    "host.ref_s": "s",
    "host.steal_share": "ratio",
    "host.step_p50_s": "s",
    "host.request_p50_s": "s",
    "host.request_p90_s": "s",
    "host.setup_s": "s",
    "host.ops_per_s": "1/s",
    "host.peak_rss_mb": "MiB",
    "simulation.unexplained_share": "ratio",
    "datasets.motion_s": "s",
    "datasets.moved_share": "ratio",
    "core.warmup_steps": "count",
    "core.warmup_prepare_s": "s",
    "core.prepare_s": "s",
    "core.internal_s": "s",
    "core.index_mb": "MiB",
    "engine.partition_s": "s",
    "engine.verify_s": "s",
    "engine.merge_s": "s",
    "engine.tasks": "count",
    "engine.unstaged_share": "ratio",
    "engine.reverify_s": "s",
    "engine.pairs_reused_share": "ratio",
    "engine.fallbacks": "count",
    "engine.task_retries": "count",
    "kernels.overlap_tests": "count",
    "kernels.hit_ratio": "ratio",
    "kernels.external_s": "s",
    "recovery.checkpoint_s": "s",
    "recovery.checkpoint_mb": "MiB",
    "service.update_s": "s",
    "service.shard_join_s": "s",
    "service.cross_shard_s": "s",
    "service.boundary_tests": "count",
    "service.tests_vs_direct": "ratio",
    "service.cache_hit_ratio": "ratio",
    "service.dedup_share": "ratio",
    "service.ring_busy_share": "ratio",
    "service.request_p90_ref": "ref",
    "obs.tracing_overhead": "ratio",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds of one reference-kernel sample on the host the bounds were set
#: on (a 2-vCPU KVM guest, where samples read 10-14 ms).  ``setup_s`` is
#: set-up seconds divided by the kernel's seconds during that set-up,
#: times this constant: set-up time in seconds of that host, so host drift
#: cancels as it does in the ``*_ref`` metrics.
REFERENCE_HOST_S = 0.012

#: Untimed ops, per workload, whose allocations ``op_peak_heap_mb`` traces:
#: a whole checkpoint cadence on ``lowmotion-maintain``, so the
#: checkpoint step is always among them.
HEAP_OPS = {"uniform-rejoin": 2, "lowmotion-maintain": 10, "service-mix": 2}


def is_traced_op(index: int) -> bool:
    """Whether op ``index`` of a traced run is traced.

    Traced and untraced ops alternate in ABBA blocks, so an op kind with
    a fixed cadence (every 10th step checkpoints) falls on both sides.
    """
    return index % 4 in (1, 2)


@dataclass
class Outcome:
    """What one run reports: correctness, operation counts and metrics."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Host conditions of the measured phase (``ref_s``, ``steal_share``) and
    #: the raw seconds of the median set-up (``setup_raw_s``).
    host: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def mismatch(self, what: str) -> None:
        """Record an operation whose output was wrong or that failed outright."""
        self.mismatches.append(what)
        self.failed += 1


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def pair_keys(pairs: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Sorted ``i * n + j`` keys of a pair set; a duplicated pair stays and fails the check."""
    i, j = (np.asarray(side, dtype=np.int64) for side in pairs)
    return np.sort(np.minimum(i, j) * n + np.maximum(i, j))
