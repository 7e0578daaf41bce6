"""Tests for the simulation runner and metric aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.datasets import IntermittentTranslation, make_uniform_workload
from repro.joins import PlaneSweepJoin
from repro.simulation import (
    SimulationRunner,
    converged_at,
    series,
    speedup,
    speedup_table,
)


def small_workload(seed=0):
    return make_uniform_workload(
        300, width=15.0, bounds=(np.zeros(3), np.full(3, 110.0)), seed=seed
    )


class TestRunner:
    def test_records_one_entry_per_step(self):
        dataset, motion = small_workload()
        runner = SimulationRunner(dataset, motion, PlaneSweepJoin())
        records = runner.run(5)
        assert len(records) == 5
        assert [r.step for r in records] == list(range(5))

    def test_static_run_without_motion(self):
        dataset, _motion = small_workload()
        runner = SimulationRunner(dataset, None, PlaneSweepJoin())
        records = runner.run(3)
        # No motion: every step joins the identical configuration.
        assert len({r.n_results for r in records}) == 1

    def test_motion_changes_results(self):
        dataset, motion = small_workload(seed=3)
        runner = SimulationRunner(dataset, motion, PlaneSweepJoin())
        records = runner.run(6)
        assert len({r.n_results for r in records}) > 1

    def test_joins_current_state_before_moving(self):
        # Step 0 must measure the initial configuration.
        dataset, motion = small_workload(seed=5)
        expected = PlaneSweepJoin().step(dataset).n_results
        dataset2, motion2 = small_workload(seed=5)
        runner = SimulationRunner(dataset2, motion2, PlaneSweepJoin())
        records = runner.run(2)
        assert records[0].n_results == expected

    def test_aggregates(self):
        dataset, motion = small_workload()
        runner = SimulationRunner(dataset, motion, PlaneSweepJoin())
        runner.run(4)
        assert runner.total_join_seconds() == pytest.approx(
            sum(r.total_seconds for r in runner.records)
        )
        assert runner.total_overlap_tests() == sum(
            r.overlap_tests for r in runner.records
        )
        assert runner.peak_memory_bytes() == max(
            r.memory_bytes for r in runner.records
        )

    def test_time_budget_stops_early(self):
        dataset, motion = small_workload()
        runner = SimulationRunner(
            dataset, motion, PlaneSweepJoin(), time_budget=1e-9
        )
        records = runner.run(50)
        assert runner.timed_out
        assert len(records) < 50

    def test_time_budget_checked_before_motion_advances(self):
        # A timed-out run must not burn one extra motion step: the budget
        # check happens after recording the step but before motion.step.
        class CountingMotion:
            calls = 0

            def step(self, dataset):
                type(self).calls += 1

        dataset, _motion = small_workload()
        runner = SimulationRunner(
            dataset, CountingMotion(), PlaneSweepJoin(), time_budget=1e-9
        )
        records = runner.run(50)
        assert runner.timed_out
        assert len(records) == 1
        assert CountingMotion.calls == 0

    def test_stage_seconds_recorded(self):
        dataset, motion = small_workload()
        runner = SimulationRunner(dataset, motion, PlaneSweepJoin())
        records = runner.run(2)
        assert set(records[0].stage_seconds) == {
            "prepare",
            "partition",
            "verify",
            "merge",
        }

    def test_invalid_parameters(self):
        dataset, motion = small_workload()
        with pytest.raises(ValueError):
            SimulationRunner(dataset, motion, PlaneSweepJoin(), time_budget=0)
        runner = SimulationRunner(dataset, motion, PlaneSweepJoin())
        with pytest.raises(ValueError):
            runner.run(0)

    def test_phase_seconds_recorded_for_thermal(self):
        dataset, motion = small_workload()
        runner = SimulationRunner(dataset, motion, ThermalJoin(resolution=1.0))
        records = runner.run(2)
        assert set(records[0].phase_seconds) == {"building", "internal", "external"}

    def test_building_phase_is_the_prepare_stage(self):
        # One clock: the engine's prepare stage is THERMAL-JOIN's
        # building phase, on full and incremental steps alike.
        dataset, _ = small_workload()
        motion = IntermittentTranslation(dataset, distance=4.0, move_fraction=0.05, seed=3)
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(resolution=1.0, pair_maintenance=True)
        )
        records = runner.run(4)
        assert {r.incremental["mode"] for r in records} == {"full", "incremental"}
        for record in records:
            assert record.phase_seconds["building"] == record.stage_seconds["prepare"]


class TestMetrics:
    def _records(self, values):
        class FakeRecord:
            def __init__(self, t):
                self.build_seconds = t / 2
                self.join_seconds = t / 2
                self.n_results = int(t * 10)

            @property
            def total_seconds(self):
                return self.build_seconds + self.join_seconds

        return [FakeRecord(v) for v in values]

    def test_series_extraction(self):
        records = self._records([1.0, 2.0, 3.0])
        assert series(records, "total_seconds") == [1.0, 2.0, 3.0]
        assert series(records, "n_results") == [10, 20, 30]

    def test_speedup_ratio(self):
        slow = self._records([4.0, 4.0])
        fast = self._records([1.0, 1.0])
        assert speedup(slow, fast) == pytest.approx(4.0)

    def test_speedup_rejects_zero_candidate(self):
        with pytest.raises(ValueError):
            speedup(self._records([1.0]), self._records([0.0]))

    def test_speedup_table(self):
        table = speedup_table(
            {
                "fast": self._records([1.0]),
                "slow": self._records([8.0]),
                "mid": self._records([2.0]),
            },
            "fast",
        )
        assert set(table) == {"slow", "mid"}
        assert table["slow"] == pytest.approx(8.0)

    def test_speedup_table_unknown_reference(self):
        with pytest.raises(KeyError):
            speedup_table({"a": self._records([1.0])}, "missing")

    def test_converged_at_finds_plateau(self):
        values = [100, 60, 30, 29, 28.5, 28.4]
        assert converged_at(values, threshold=0.1, window=2) == 3

    def test_converged_at_never_settles(self):
        values = [100, 10, 100, 10, 100]
        assert converged_at(values, threshold=0.1) is None

    def test_converged_at_validates_window(self):
        with pytest.raises(ValueError):
            converged_at([1.0, 1.0], window=0)
