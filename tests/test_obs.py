"""Tests for the observability layer: spans, metrics, JSONL, bench schema.

The load-bearing invariant is at the bottom: pair sets, overlap-test
totals and tuner decisions must be bit-identical with tracing on or off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.datasets import make_uniform_workload
from repro.joins import PBSMJoin
from repro.obs import (
    BENCH_SCHEMA_VERSION,
    JsonlWriter,
    MetricsRegistry,
    NullTracer,
    Tracer,
    bench_run,
    get_tracer,
    set_tracer,
    to_jsonable,
    validate_bench,
)
from repro.simulation import SimulationRunner


def small_workload(n=300, seed=3):
    return make_uniform_workload(
        n, width=10.0, bounds=(np.zeros(3), np.full(3, 80.0)), seed=seed
    )


@pytest.fixture
def active_tracer():
    """Install a fresh Tracer for the test; restore the previous after."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


class TestTracer:
    def test_span_tree_structure(self):
        tracer = Tracer()
        tracer.begin_step()
        with tracer.span("step") as root:
            with tracer.span("prepare", parent=root):
                pass
            with tracer.span("verify", parent=root) as verify:
                tracer.record("task:T", phase="internal", parent=verify,
                              wall_seconds=0.5, cpu_seconds=0.4,
                              counters={"task": 0})
        spans = tracer.drain()
        by_name = {span.name: span for span in spans}
        assert by_name["prepare"].parent_id == by_name["step"].span_id
        assert by_name["verify"].parent_id == by_name["step"].span_id
        assert by_name["task:T"].parent_id == by_name["verify"].span_id
        assert by_name["task:T"].wall_seconds == 0.5
        assert by_name["task:T"].cpu_seconds == 0.4
        assert by_name["task:T"].phase == "internal"
        assert all(span.step == 1 for span in spans)
        # Children close (and emit) before their parent.
        assert spans[-1].name == "step"

    def test_wall_and_cpu_time_measured(self):
        tracer = Tracer()
        with tracer.span("work"):
            sum(range(10_000))
        (span,) = tracer.drain()
        assert span.wall_seconds > 0.0
        assert span.cpu_seconds >= 0.0

    def test_drain_clears(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_sink_receives_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlWriter(path) as writer:
            tracer = Tracer(sink=writer)
            tracer.begin_step()
            with tracer.span("step", counters={"n": 3}):
                pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["kind"] == "span"
        assert lines[0]["name"] == "step"
        assert lines[0]["counters"] == {"n": 3}
        assert lines[0]["schema_version"] == 1

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("anything") as span:
            assert span is None
        assert tracer.record("x") is None
        assert tracer.drain() == []

    def test_set_tracer_installs_and_restores(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is not tracer


class TestMetricsRegistry:
    def test_snapshot_collects_providers(self):
        registry = MetricsRegistry()
        registry.register("grid", lambda: {"cells": np.int64(5), "width": 1.5})
        registry.register("empty", lambda: None)
        snapshot = registry.snapshot()
        assert snapshot == {"grid": {"cells": 5, "width": 1.5}}
        assert isinstance(snapshot["grid"]["cells"], int)  # numpy coerced

    def test_duplicate_and_invalid_providers_rejected(self):
        registry = MetricsRegistry()
        registry.register("a", dict)
        with pytest.raises(ValueError):
            registry.register("a", dict)
        with pytest.raises(TypeError):
            registry.register("b", 42)

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.register("a", dict)
        registry.unregister("a")
        assert registry.names() == []
        assert registry.snapshot() == {}


class TestStatisticsPlumbing:
    def test_thermal_step_snapshots_index_counters(self):
        dataset, _motion = small_workload()
        join = ThermalJoin(count_only=True, executor="serial")
        stats = join.step(dataset).stats
        assert set(stats.index_counters) >= {"executor", "pgrid", "tgrid", "tuner"}
        assert stats.index_counters["pgrid"]["cells"] > 0
        assert stats.index_counters["executor"]["name"] == "serial"
        assert "resolution" in stats.index_counters["tuner"]

    def test_step_records_carry_index_counters(self):
        dataset, motion = small_workload()
        runner = SimulationRunner(dataset, motion, ThermalJoin(count_only=True))
        records = runner.run(3)
        assert all("pgrid" in record.index_counters for record in records)


class TestBenchSchema:
    def _document(self):
        dataset, motion = small_workload()
        runner = SimulationRunner(dataset, motion, PBSMJoin(count_only=True))
        runner.run(2)
        from repro.obs import environment_info

        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "kind": "bench_steps",
            "environment": environment_info(),
            "config": {},
            "runs": [bench_run("uniform", "pbsm", runner.records, n_objects=len(dataset))],
        }

    def test_valid_document_passes_and_is_json(self):
        doc = self._document()
        assert validate_bench(doc) is doc
        json.dumps(doc)  # fully serialisable — no numpy leaks

    def test_violations_are_named(self):
        doc = self._document()
        doc["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench(doc)

        doc = self._document()
        del doc["runs"][0]["steps"][0]["overlap_tests"]
        with pytest.raises(ValueError, match="overlap_tests"):
            validate_bench(doc)

        doc = self._document()
        doc["runs"][0]["aggregates"]["total_results"] += 1
        with pytest.raises(ValueError, match="total_results"):
            validate_bench(doc)

        doc = self._document()
        doc["runs"][0]["steps"][1]["step"] = 7
        with pytest.raises(ValueError, match="step index"):
            validate_bench(doc)

    def test_to_jsonable_handles_numpy(self):
        value = to_jsonable({"a": np.float64(1.5), "b": np.arange(3), "c": {1, 2}})
        assert value == {"a": 1.5, "b": [0, 1, 2], "c": [1, 2]}


class TestBitIdentity:
    """Tracing and metrics must never change what the join computes."""

    def _run(self, tracer):
        previous = set_tracer(tracer)
        try:
            dataset, motion = small_workload(n=400, seed=11)
            join = ThermalJoin()
            outcomes = []
            for _ in range(4):
                result = join.step(dataset)
                i_idx, j_idx = result.pairs
                outcomes.append(
                    (
                        result.n_results,
                        result.stats.overlap_tests,
                        i_idx.tobytes(),
                        j_idx.tobytes(),
                        join.current_resolution,
                    )
                )
                motion.step(dataset)
            return outcomes, list(join.tuner.history)
        finally:
            set_tracer(previous)

    def test_traced_and_untraced_runs_identical(self):
        traced_outcomes, traced_history = self._run(Tracer())
        plain_outcomes, plain_history = self._run(NullTracer())
        assert traced_outcomes == plain_outcomes
        assert traced_history == plain_history

    def test_engine_emits_expected_span_tree(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            dataset, _motion = small_workload()
            stats = ThermalJoin(count_only=True).step(dataset).stats
        finally:
            set_tracer(previous)
        spans = tracer.drain()
        names = [span.name for span in spans]
        for stage in ("prepare", "partition", "verify", "merge", "step"):
            assert stage in names
        assert any(name.startswith("task:") for name in names)
        root = next(span for span in spans if span.name == "step")
        assert root.parent_id is None
        assert root.counters["algorithm"] == "thermal-join"
        task_spans = [span for span in spans if span.name.startswith("task:")]
        verify = next(span for span in spans if span.name == "verify")
        assert all(span.parent_id == verify.span_id for span in task_spans)
        # Task-span counters sum to the step's statistics totals.
        assert (
            sum(span.counters.get("overlap_tests", 0) for span in task_spans)
            == stats.overlap_tests
        )
