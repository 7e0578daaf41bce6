"""Incremental pair-set maintenance: bit-identity with the full re-join.

The tentpole contract of the motion-delta pipeline (ROADMAP item 2):
whatever the motion model, the executor backend or the churn regime,
the maintained pair set after every step is *bit-identical* to what a
from-scratch re-join of the current positions produces, and the
overlap-test accounting stays deterministic.  These tests drive the
whole pipeline — ``MotionModel.step`` deltas, ``SpatialDataset.commit_motion``
versioning, ``MaintainedPairSet`` set algebra, ``ChurnPolicy`` mode
decisions, ``ThermalJoin.step_delta`` and the runner's delta threading —
against the brute-force oracle and a clean full-join reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PGrid, ThermalJoin
from repro.datasets import (
    IntermittentTranslation,
    MotionDelta,
    RandomTranslation,
    make_uniform_dataset,
)
from repro.datasets.motion import BranchJitter, ClusterDrift
from repro.engine import ChurnPolicy, SerialExecutor, install_fault_plan, parse_faults
from repro.engine import faults as faults_module
from repro.engine.faults import InjectedFault
from repro.engine.incremental import CHURN_CEILING, CHURN_FLOOR
from repro.geometry import MaintainedPairSet, brute_force_pairs, pack_pairs
from repro.geometry.pairs import KeySnapshot, canonicalize_pairs
from repro.joins import PlaneSweepJoin
from repro.simulation import SimulationRunner

BOUNDS = (np.zeros(3), np.full(3, 140.0))


def small_dataset(n=350, seed=7):
    return make_uniform_dataset(n, width=15.0, bounds=BOUNDS, seed=seed)


def oracle_keys(dataset):
    lo, hi = dataset.boxes()
    i_idx, j_idx = brute_force_pairs(lo, hi)
    return pack_pairs(i_idx, j_idx, len(dataset))


def result_keys(result, n):
    lo, hi = canonicalize_pairs(
        np.asarray(result.pairs[0]), np.asarray(result.pairs[1])
    )
    return np.unique(pack_pairs(lo, hi, n))


MOTIONS = {
    "intermittent-low": lambda ds: IntermittentTranslation(
        ds, distance=4.0, move_fraction=0.05, seed=3
    ),
    "intermittent-high": lambda ds: IntermittentTranslation(
        ds, distance=20.0, move_fraction=0.4, seed=3
    ),
    "random-translation": lambda ds: RandomTranslation(ds, distance=6.0, seed=3),
    "cluster-drift": lambda ds: ClusterDrift(
        ds, np.arange(len(ds)) % 7, distance=5.0, seed=3
    ),
    "branch-jitter": lambda ds: BranchJitter(
        ds, np.arange(len(ds)) % 7, drift=2.0, jitter=0.5, seed=3
    ),
}


def run_maintained(motion_name, n_steps=6, executor="serial", **algo_kwargs):
    """Drive a maintained ThermalJoin through ``n_steps`` of motion.

    Returns ``(per-step packed keys, per-step (n_results, overlap_tests),
    per-step modes)`` with every step's keys checked against the oracle.
    """
    dataset = small_dataset()
    motion = MOTIONS[motion_name](dataset)
    algorithm = ThermalJoin(
        pair_maintenance=True, executor=executor, **algo_kwargs
    )
    delta = None
    keys, series, modes = [], [], []
    for _ in range(n_steps):
        result = algorithm.step_delta(dataset, delta)
        got = result_keys(result, len(dataset))
        assert np.array_equal(got, oracle_keys(dataset))
        keys.append(got)
        series.append((result.n_results, result.stats.overlap_tests))
        modes.append(algorithm._incr["mode"])
        delta = motion.step(dataset)
    algorithm.executor.close()
    return keys, series, modes


# ----------------------------------------------------------------------
# The bit-identity property: every motion model, every executor
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("motion_name", sorted(MOTIONS))
    def test_serial_matches_oracle_every_step(self, motion_name):
        _, _, modes = run_maintained(motion_name)
        assert modes[0] == "full"

    @pytest.mark.parametrize("motion_name", ["intermittent-low", "random-translation"])
    def test_thread_backend_matches_serial_series(self, motion_name):
        keys_serial, series_serial, modes_serial = run_maintained(motion_name)
        keys_thread, series_thread, modes_thread = run_maintained(
            motion_name, executor="thread:2"
        )
        assert series_thread == series_serial
        assert modes_thread == modes_serial
        for a, b in zip(keys_serial, keys_thread, strict=True):
            assert np.array_equal(a, b)

    def test_process_backend_matches_serial_series(self):
        keys_serial, series_serial, modes_serial = run_maintained(
            "intermittent-low"
        )
        keys_process, series_process, modes_process = run_maintained(
            "intermittent-low", executor="process:2"
        )
        assert series_process == series_serial
        assert modes_process == modes_serial
        for a, b in zip(keys_serial, keys_process, strict=True):
            assert np.array_equal(a, b)

    def test_incremental_path_actually_runs(self):
        _, _, modes = run_maintained("intermittent-low", n_steps=8)
        assert "incremental" in modes

    def test_repeat_run_is_deterministic(self):
        first = run_maintained("intermittent-low")
        second = run_maintained("intermittent-low")
        assert first[1] == second[1]
        assert first[2] == second[2]


class TestSeeding:
    """The maintained set is seeded only once the tuner has converged:
    incremental steps need a converged tuner, so a set seeded on a step
    that leaves the climb running would never be read."""

    def test_warm_up_builds_the_maintained_set_once(self, monkeypatch):
        built = []

        class CountingPairSet(MaintainedPairSet):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("repro.core.thermal.MaintainedPairSet", CountingPairSet)
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True)
        delta = None
        built_before_step, modes = [], []
        for _ in range(8):
            built_before_step.append(len(built))
            result = algorithm.step_delta(dataset, delta)
            assert np.array_equal(
                result_keys(result, len(dataset)), oracle_keys(dataset)
            )
            modes.append(algorithm._incr["mode"])
            if not algorithm.tuner.converged:
                assert algorithm._maintained is None
                assert algorithm._incr["maintained_pairs"] == 0
            delta = motion.step(dataset)
        first_incremental = modes.index("incremental")
        assert modes[:first_incremental] == ["full"] * first_incremental
        assert first_incremental > 1  # the warm-up explored at least once
        assert built_before_step[first_incremental] == 1

    def test_unconverged_steps_record_no_maintained_pairs(self):
        dataset = small_dataset()
        runner = SimulationRunner(
            dataset,
            MOTIONS["intermittent-low"](dataset),
            ThermalJoin(pair_maintenance=True),
        )
        records = runner.run(8)
        tuner = runner.algorithm.tuner
        assert tuner.converged and tuner.retunes == 0
        # Step k fed the tuner its k-th observation: the last one of the
        # climb converged it, and that step seeded the set.
        settled = tuner.tuning_steps - 1
        assert settled >= 1
        for record in records[:settled]:
            assert record.incremental["mode"] == "full"
            assert record.incremental["maintained_pairs"] == 0
        seeded = records[settled]
        assert seeded.incremental["maintained_pairs"] == seeded.n_results


# ----------------------------------------------------------------------
# Fallback semantics
# ----------------------------------------------------------------------
class TestFallback:
    def test_forced_fallback_matches_plain_full_join(self):
        """churn_threshold=0.0 must reproduce the plain re-join exactly —
        result keys, overlap tests and tuner resolution."""
        keys, series, modes = run_maintained(
            "intermittent-low", churn_threshold=0.0
        )
        assert "incremental" not in modes
        assert "fallback" in modes

        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        plain = ThermalJoin()
        for step_keys, (n_results, overlap_tests) in zip(keys, series, strict=True):
            result = plain.step(dataset)
            assert result.n_results == n_results
            assert result.stats.overlap_tests == overlap_tests
            assert np.array_equal(result_keys(result, len(dataset)), step_keys)
            motion.step(dataset)

    def test_fallback_counter_increments(self):
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True, churn_threshold=0.0)
        delta = None
        for _ in range(5):
            algorithm.step_delta(dataset, delta)
            delta = motion.step(dataset)
        counters = algorithm.metrics.snapshot()["incremental"]
        assert counters["fallbacks"] > 0
        assert counters["incremental_steps"] == 0

    def test_none_delta_runs_full(self):
        dataset = small_dataset()
        algorithm = ThermalJoin(pair_maintenance=True)
        algorithm.step_delta(dataset, None)
        assert algorithm._incr["mode"] == "full"

    def test_stale_delta_runs_full(self):
        """A delta that skipped a committed motion step is inapplicable."""
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True, resolution=4)
        algorithm.step_delta(dataset, None)
        motion.step(dataset)  # committed but never joined
        stale = motion.step(dataset)
        result = algorithm.step_delta(dataset, stale)
        assert algorithm._incr["mode"] == "full"
        assert np.array_equal(
            result_keys(result, len(dataset)), oracle_keys(dataset)
        )

    def test_foreign_dataset_delta_runs_full(self):
        dataset = small_dataset()
        other = small_dataset(seed=8)
        motion = MOTIONS["intermittent-low"](other)
        algorithm = ThermalJoin(pair_maintenance=True, resolution=4)
        algorithm.step_delta(dataset, None)
        foreign = motion.step(other)
        algorithm.step_delta(dataset, foreign)
        assert algorithm._incr["mode"] == "full"

    def test_one_shot_distance_join_keeps_maintenance_and_tuner(self):
        """A distance join runs over an enlarged copy: it must neither
        re-seed the maintained set over that copy nor feed its cost to
        the tuner."""
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True)
        delta = None
        for _ in range(10):
            algorithm.step_delta(dataset, delta)
            delta = motion.step(dataset)
        assert algorithm._incr["mode"] == "incremental"
        tuner = algorithm.tuner
        before = (tuner.retunes, tuner.current_r, len(tuner.history))
        algorithm.distance_join(dataset, 2.0)
        assert (tuner.retunes, tuner.current_r, len(tuner.history)) == before
        result = algorithm.step_delta(dataset, delta)
        assert algorithm._incr["mode"] == "incremental"
        assert (tuner.retunes, tuner.current_r) == before[:2]
        assert np.array_equal(
            result_keys(result, len(dataset)), oracle_keys(dataset)
        )


# ----------------------------------------------------------------------
# Fault injection: recovery must not perturb the maintained set
# ----------------------------------------------------------------------
class TestFaults:
    @pytest.fixture(autouse=True)
    def _clean_fault_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        install_fault_plan(None)
        faults_module._env_cache = (None, None)
        yield
        install_fault_plan(None)
        faults_module._env_cache = (None, None)

    def test_injected_raise_is_invisible_in_results(self, monkeypatch):
        reference = run_maintained("intermittent-low", executor="thread:2")
        monkeypatch.setenv("REPRO_FAULTS", "raise@1,raise@4")
        faults_module._env_cache = (None, None)
        faulted = run_maintained("intermittent-low", executor="thread:2")
        assert faulted[1] == reference[1]
        assert faulted[2] == reference[2]
        for a, b in zip(reference[0], faulted[0], strict=True):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# The P-Grid splice: only a delta that bridges the grid's last refresh
# ----------------------------------------------------------------------
@pytest.fixture
def grid_paths(monkeypatch):
    """Record, per P-Grid refresh, whether it spliced or assigned."""
    paths = []
    splice, assign = PGrid._splice, PGrid._assign

    def spliced(self, *args):
        paths.append("splice")
        return splice(self, *args)

    def assigned(self, *args):
        paths.append("assign")
        return assign(self, *args)

    monkeypatch.setattr(PGrid, "_splice", spliced)
    monkeypatch.setattr(PGrid, "_assign", assigned)
    return paths


def assert_grid_is_fresh(algorithm, dataset):
    """The grid's per-cell arrays equal a from-scratch assignment."""
    grid = algorithm.pgrid
    twin = PGrid(grid.cell_width, grid.origin, grid.gc_threshold)
    lo, _ = dataset.boxes()
    twin._assign(dataset.centers, lo[:, 0], dataset.widths)
    for name in (
        "cat",
        "cell_starts",
        "cell_stops",
        "cell_min_width",
        "cell_max_width",
        "cell_center_lo",
        "cell_center_hi",
    ):
        assert np.array_equal(getattr(grid, name), getattr(twin, name)), name


class TestGridSplice:
    def test_incremental_steps_splice(self, grid_paths):
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True, resolution=1.0)
        delta = None
        for _ in range(5):
            del grid_paths[:]
            result = algorithm.step_delta(dataset, delta)
            mode = algorithm._incr["mode"]
            assert grid_paths == ["splice" if mode == "incremental" else "assign"]
            assert_grid_is_fresh(algorithm, dataset)
            assert np.array_equal(result_keys(result, len(dataset)), oracle_keys(dataset))
            delta = motion.step(dataset)
        assert mode == "incremental"
        assert algorithm._refresh_delta is None

    def _assert_assigns_then_splices(self, algorithm, dataset, motion, paths):
        """The next step assigns in full; the one after splices again."""
        for expected in ("assign", "splice"):
            delta = motion.step(dataset)
            del paths[:]
            result = algorithm.step_delta(dataset, delta)
            assert paths == [expected]
            assert_grid_is_fresh(algorithm, dataset)
            assert np.array_equal(result_keys(result, len(dataset)), oracle_keys(dataset))

    def test_translate_between_steps_assigns(self, grid_paths):
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True, resolution=1.0)
        _steps_to_first_incremental(algorithm, dataset, motion)
        shift = np.zeros_like(dataset.centers)
        shift[::5] = 2.5
        dataset.translate(shift)  # moves objects with no delta
        self._assert_assigns_then_splices(algorithm, dataset, motion, grid_paths)

    def test_interleaved_join_of_another_dataset_assigns(self, grid_paths):
        dataset = small_dataset()
        other = small_dataset(seed=8)
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True, resolution=1.0)
        _steps_to_first_incremental(algorithm, dataset, motion)
        algorithm.step(other)
        assert algorithm.pgrid.source == (other.uid, other.version)
        self._assert_assigns_then_splices(algorithm, dataset, motion, grid_paths)

    def test_resumed_run_assigns_then_splices(self, grid_paths, tmp_path):
        def runner(**kwargs):
            dataset = small_dataset()
            return SimulationRunner(
                dataset,
                MOTIONS["intermittent-low"](dataset),
                ThermalJoin(pair_maintenance=True),
                **kwargs,
            )

        # The same checkpoint cadence: a checkpoint folds the pair set.
        baseline = runner(checkpoint_dir=tmp_path / "baseline", checkpoint_every=4)
        baseline.run(12)
        runner(checkpoint_dir=tmp_path / "cut", checkpoint_every=4).run(8)
        resumed = SimulationRunner.resume(
            tmp_path / "cut", ThermalJoin(pair_maintenance=True)
        )
        assert resumed.algorithm.pgrid.source is None
        step = resumed._next_step
        for expected in ("assign", "splice"):
            del grid_paths[:]
            resumed.run(step + 1)
            assert resumed.records[step].incremental["mode"] == "incremental"
            assert grid_paths == [expected]
            step += 1
        resumed.run(12)
        for a, b in zip(baseline.records, resumed.records, strict=True):
            assert (a.n_results, a.overlap_tests) == (b.n_results, b.overlap_tests)
            assert a.index_counters["pgrid"] == b.index_counters["pgrid"]
            assert a.incremental == b.incremental

    def test_failed_incremental_step_then_good_steps_match(self, grid_paths):
        """A step that raises past a zero retry budget leaves no stale
        delta behind: the next step assigns in full, later steps splice,
        and pairs and grid counters match an uninterrupted run."""

        def trajectory(fail_step=None):
            dataset = small_dataset()
            motion = MOTIONS["intermittent-low"](dataset)
            algorithm = ThermalJoin(
                pair_maintenance=True,
                resolution=1.0,
                executor=SerialExecutor(max_retries=0),
            )
            delta = None
            steps = []
            for step in range(8):
                if step == fail_step:
                    assert algorithm._incr["mode"] == "incremental"
                    install_fault_plan(parse_faults("raise@0"))
                    try:
                        with pytest.raises(InjectedFault):
                            algorithm.step_delta(dataset, delta)
                    finally:
                        install_fault_plan(None)
                    assert algorithm._refresh_delta is None
                    steps.append(None)
                else:
                    del grid_paths[:]
                    result = algorithm.step_delta(dataset, delta)
                    grid = algorithm.pgrid
                    steps.append(
                        (
                            result.n_results,
                            result_keys(result, len(dataset)),
                            (grid.cells_created, grid.cells_recycled, grid.gc_runs),
                            algorithm._incr["mode"],
                            list(grid_paths),
                        )
                    )
                delta = motion.step(dataset)
            return steps

        reference = trajectory()
        faulted = trajectory(fail_step=4)
        assert faulted[5][3:] == ("full", ["assign"])
        assert faulted[6][3:] == ("incremental", ["splice"])
        for step, (a, b) in enumerate(zip(reference, faulted, strict=True)):
            if b is None:
                continue
            assert a[0] == b[0], step
            assert np.array_equal(a[1], b[1]), step
            assert a[2] == b[2], step

    def test_reverify_tasks_are_sized_by_volume(self, monkeypatch):
        """Few candidates make one task per family; a smaller batch splits
        them up to the partition cap, with identical results."""
        tasks = []
        delta_plan = ThermalJoin.delta_plan

        def counting(self, dataset, delta):
            plan = delta_plan(self, dataset, delta)
            tasks.append(len(plan.tasks))
            return plan

        monkeypatch.setattr(ThermalJoin, "delta_plan", counting)
        _, series, modes = run_maintained("intermittent-low")
        assert "incremental" in modes and max(tasks) <= 3
        few = len(tasks)
        monkeypatch.setattr("repro.core.thermal.DEFAULT_CHUNK_CANDIDATES", 1)
        _, split_series, split_modes = run_maintained("intermittent-low")
        assert (split_series, split_modes) == (series, modes)
        assert max(tasks[few:]) > 3


# ----------------------------------------------------------------------
# Results keep packed keys: read-only, decoded only when read
# ----------------------------------------------------------------------
def _steps_to_first_incremental(algorithm, dataset, motion, limit=12):
    """Step until the first incremental step and return its result."""
    delta = None
    for _ in range(limit):
        result = algorithm.step_delta(dataset, delta)
        if algorithm._incr["mode"] == "incremental":
            return result
        delta = motion.step(dataset)
    raise AssertionError("no incremental step")


class TestPackedResults:
    def test_result_keys_are_read_only(self):
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True)
        full = ThermalJoin(pair_maintenance=False).step(dataset)
        maintained = _steps_to_first_incremental(algorithm, dataset, motion)
        for result in (full, maintained):
            assert result.keys.size
            with pytest.raises(ValueError, match="read-only"):
                result.keys[0] = 0
        # The incremental result folds the maintained set's parts, which
        # are read-only too.
        assert np.array_equal(maintained.keys, algorithm._maintained.packed_keys())
        snapshot = algorithm._maintained.snapshot()
        for part in (snapshot.base, snapshot.extra, algorithm._maintained.packed_keys()):
            with pytest.raises(ValueError, match="read-only"):
                part[:] = 0

    def test_kept_result_survives_later_steps(self):
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True)
        kept = _steps_to_first_incremental(algorithm, dataset, motion)
        expected = brute_force_pairs(*dataset.boxes())
        for _ in range(3):
            algorithm.step_delta(dataset, motion.step(dataset))
            assert algorithm._incr["mode"] == "incremental"
        assert not np.array_equal(algorithm._maintained.packed_keys(), kept.keys)
        for got, want in zip(kept.pairs, expected, strict=True):
            assert np.array_equal(got, want)

    def test_kept_results_survive_a_compaction_and_a_checkpoint(self):
        """Nine kept maintained results each decode to their own step."""
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True)
        kept = [_steps_to_first_incremental(algorithm, dataset, motion)]
        expected = [brute_force_pairs(*dataset.boxes())]
        pending_at_checkpoint = None
        compactions = []
        for step in range(8):
            if step == 4:
                pending_at_checkpoint = algorithm._maintained.extra_keys
                algorithm.snapshot_state()  # what a checkpoint stores: folds the set
                assert algorithm._maintained.extra_keys == 0
            kept.append(algorithm.step_delta(dataset, motion.step(dataset)))
            expected.append(brute_force_pairs(*dataset.boxes()))
            assert algorithm._incr["mode"] == "incremental"
            compactions.append(algorithm._incr["compactions"])
        assert pending_at_checkpoint > 0
        assert 1 in compactions
        for result, want in zip(kept, expected, strict=True):
            for got, reference in zip(result.pairs, want, strict=True):
                assert np.array_equal(got, reference)

    def test_count_only_maintained_steps_never_fold(self, monkeypatch):
        calls = []
        snapshot = MaintainedPairSet.snapshot
        monkeypatch.setattr(
            MaintainedPairSet, "snapshot", lambda self: calls.append("snapshot") or snapshot(self)
        )
        fold = KeySnapshot.fold
        monkeypatch.setattr(KeySnapshot, "fold", lambda self: calls.append("fold") or fold(self))
        dataset = small_dataset()
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = ThermalJoin(pair_maintenance=True, count_only=True)
        result = _steps_to_first_incremental(algorithm, dataset, motion)
        for _ in range(4):
            assert result.count_only
            assert result.keys is None and result.pairs is None
            assert result.n_results == len(algorithm._maintained)
            assert result.n_results == brute_force_pairs(*dataset.boxes())[0].size
            result = algorithm.step_delta(dataset, motion.step(dataset))
            assert algorithm._incr["mode"] == "incremental"
        assert calls == []

    def test_unread_maintained_steps_decode_nothing(self, monkeypatch, tmp_path):
        import repro.geometry
        import repro.geometry.pairs

        decoded = []
        unpack = repro.geometry.pairs.unpack_pairs

        def counting_unpack(keys, n):
            decoded.append(len(keys))
            return unpack(keys, n)

        monkeypatch.setattr(repro.geometry.pairs, "unpack_pairs", counting_unpack)
        monkeypatch.setattr(repro.geometry, "unpack_pairs", counting_unpack)
        dataset = small_dataset()
        runner = SimulationRunner(
            dataset,
            MOTIONS["intermittent-low"](dataset),
            ThermalJoin(pair_maintenance=True),
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
        )
        while runner.run(len(runner.records) + 1)[-1].incremental["mode"] != "incremental":
            assert len(runner.records) < 12, "no incremental step"
        decoded.clear()
        records = runner.run(len(runner.records) + 20)[-20:]
        assert [r.incremental["mode"] for r in records] == ["incremental"] * 20
        assert decoded == []


# ----------------------------------------------------------------------
# Runner integration: delta threading and the incremental record block
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_runner_series_matches_plain_run(self):
        def workload():
            dataset = small_dataset()
            return dataset, MOTIONS["intermittent-low"](dataset)

        dataset, motion = workload()
        maintained = SimulationRunner(
            dataset, motion, ThermalJoin(pair_maintenance=True, count_only=True)
        )
        records = maintained.run(8)

        dataset, motion = workload()
        plain = SimulationRunner(
            dataset, motion, ThermalJoin(count_only=True)
        )
        plain_records = plain.run(8)

        assert [r.n_results for r in records] == [
            r.n_results for r in plain_records
        ]
        # Tuner decisions must be unaffected by maintenance (incremental
        # steps are gated on convergence and never feed the tuner).
        assert [r.index_counters["tuner"]["resolution"] for r in records] == [
            r.index_counters["tuner"]["resolution"] for r in plain_records
        ]
        modes = [r.incremental["mode"] for r in records]
        assert modes[0] == "full"
        assert "incremental" in modes
        for record in records:
            assert "pairs_reused" in record.incremental
            assert "fallbacks" in record.incremental

    def test_incremental_block_empty_without_provider(self):
        dataset = small_dataset(n=120)
        motion = MOTIONS["intermittent-low"](dataset)
        runner = SimulationRunner(
            dataset, motion, PlaneSweepJoin(count_only=True)
        )
        records = runner.run(2)
        assert all(record.incremental == {} for record in records)

    def test_base_step_delta_ignores_the_delta(self):
        dataset = small_dataset(n=120)
        motion = MOTIONS["intermittent-low"](dataset)
        algorithm = PlaneSweepJoin()
        algorithm.step_delta(dataset, None)
        delta = motion.step(dataset)
        result = algorithm.step_delta(dataset, delta)
        assert np.array_equal(
            result_keys(result, len(dataset)), oracle_keys(dataset)
        )


# ----------------------------------------------------------------------
# Layer units: MotionDelta, commit_motion, MaintainedPairSet, ChurnPolicy
# ----------------------------------------------------------------------
class TestMotionDelta:
    def test_from_positions_diffs_changed_rows(self):
        before = np.zeros((5, 3))
        after = before.copy()
        after[1] += (1.0, 0.0, 0.0)
        after[4] += (0.0, -2.0, 0.0)
        delta = MotionDelta.from_positions(
            before, after, dataset_uid=1, base_version=0, version=1
        )
        assert delta.moved.tolist() == [1, 4]
        assert delta.n_moved == 2
        assert delta.moved_fraction == pytest.approx(0.4)
        assert delta.moved_mask().tolist() == [False, True, False, False, True]

    def test_validation(self):
        with pytest.raises(ValueError):
            MotionDelta(
                dataset_uid=0,
                base_version=0,
                version=1,
                n_objects=3,
                moved=np.array([2, 1]),  # not strictly increasing
            )
        with pytest.raises(ValueError):
            MotionDelta(
                dataset_uid=0,
                base_version=0,
                version=1,
                n_objects=3,
                moved=np.array([0, 5]),  # out of range
            )

    def test_commit_motion_bumps_version(self):
        dataset = small_dataset(n=50)
        before = dataset.centers.copy()
        dataset.centers[3] += 1.0
        version = dataset.version
        delta = dataset.commit_motion(before)
        assert dataset.version == version + 1
        assert delta.base_version == version
        assert delta.version == dataset.version
        assert delta.dataset_uid == dataset.uid
        assert delta.moved.tolist() == [3]

    def test_commit_motion_rejects_shape_mismatch(self):
        dataset = small_dataset(n=50)
        with pytest.raises(ValueError):
            dataset.commit_motion(np.zeros((3, 3)))

    def test_motion_models_report_exactly_the_moved_rows(self):
        for name, factory in MOTIONS.items():
            dataset = small_dataset(n=80)
            motion = factory(dataset)
            before = dataset.centers.copy()
            delta = motion.step(dataset)
            changed = np.flatnonzero((before != dataset.centers).any(axis=1))
            assert delta.moved.tolist() == changed.tolist(), name

    def test_intermittent_translation_is_deterministic(self):
        runs = []
        for _ in range(2):
            dataset = small_dataset(n=80)
            motion = IntermittentTranslation(
                dataset, distance=4.0, move_fraction=0.2, seed=5
            )
            motion.step(dataset)
            motion.step(dataset)
            runs.append(dataset.centers.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_intermittent_translation_validation(self):
        dataset = small_dataset(n=10)
        with pytest.raises(ValueError):
            IntermittentTranslation(dataset, distance=-1.0)
        with pytest.raises(ValueError):
            IntermittentTranslation(dataset, move_fraction=1.5)


class TestMaintainedPairSet:
    def test_matches_set_oracle(self):
        rng = np.random.default_rng(0)
        n = 60
        i_idx = rng.integers(0, n, 500)
        j_idx = rng.integers(0, n, 500)
        keep = i_idx != j_idx
        maintained = MaintainedPairSet(
            n, pack_pairs(*canonicalize_pairs(i_idx[keep], j_idx[keep]), n)
        )
        oracle = {
            (min(a, b), max(a, b))
            for a, b in zip(i_idx[keep].tolist(), j_idx[keep].tolist())
        }
        assert len(maintained) == len(oracle)

        moved = np.zeros(n, dtype=bool)
        moved[rng.choice(n, 10, replace=False)] = True
        survivors = {
            pair for pair in oracle if not (moved[pair[0]] or moved[pair[1]])
        }
        # Re-verified pairs have a moved endpoint; some were in the set.
        fresh_i = rng.integers(0, n, 120)
        fresh_j = rng.integers(0, n, 120)
        keep = (fresh_i != fresh_j) & (moved[fresh_i] | moved[fresh_j])
        dropped, added = maintained.patch(
            moved, pack_pairs(*canonicalize_pairs(fresh_i[keep], fresh_j[keep]), n)
        )
        assert dropped == len(oracle) - len(survivors)
        merged = survivors | {
            (min(a, b), max(a, b))
            for a, b in zip(fresh_i[keep].tolist(), fresh_j[keep].tolist())
        }
        assert len(maintained) == len(merged)
        assert added == len(merged) - len(survivors)
        got = set(zip(*(arr.tolist() for arr in maintained.as_arrays())))
        assert got == merged

    def test_keys_stay_sorted_unique(self):
        maintained = MaintainedPairSet(10, pack_pairs([1, 1], [3, 3], 10))
        assert len(maintained) == 1
        moved = np.zeros(10, dtype=bool)
        moved[[0, 4]] = True
        assert maintained.patch(moved, pack_pairs([0, 4, 0], [2, 5, 2], 10)) == (0, 2)
        keys = maintained.packed_keys()
        assert np.all(np.diff(keys) > 0)
        assert len(maintained) == keys.size == 3

    def test_merge_into_empty_set(self):
        maintained = MaintainedPairSet(5, np.array([], dtype=np.int64))
        assert len(maintained) == 0
        moved = np.array([True, False, False, False, False])
        assert maintained.patch(moved, pack_pairs([0], [1], 5)) == (0, 1)
        assert len(maintained) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MaintainedPairSet(0, np.array([1]))
        maintained = MaintainedPairSet(5, pack_pairs([0], [1], 5))
        with pytest.raises(ValueError):
            maintained.patch(np.zeros(4, dtype=bool), np.empty(0, dtype=np.int64))


class TestChurnPolicy:
    def test_admits_below_threshold(self):
        policy = ChurnPolicy(threshold=0.3, adaptive=False)
        assert policy.admits(0.3)
        assert not policy.admits(0.31)

    def test_forced_fallback_configuration(self):
        policy = ChurnPolicy(threshold=0.0, adaptive=False)
        assert policy.admits(0.0)
        assert not policy.admits(0.01)
        policy.observe_full(1e6)
        policy.observe_incremental(1.0, 0.5)
        assert policy.threshold == 0.0  # non-adaptive: observations ignored

    def test_adaptive_threshold_tracks_break_even(self):
        policy = ChurnPolicy()
        policy.observe_full(1000.0)
        policy.observe_incremental(100.0, 0.1)  # unit cost 1000 → break-even 1.0
        assert policy.threshold == CHURN_CEILING
        policy = ChurnPolicy()
        policy.observe_full(100.0)
        policy.observe_incremental(1000.0, 0.1)  # unit cost 10000 → 0.01
        assert policy.threshold == CHURN_FLOOR

    def test_no_motion_step_carries_no_signal(self):
        policy = ChurnPolicy()
        policy.observe_full(100.0)
        policy.observe_incremental(50.0, 0.0)
        assert policy._unit_cost is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnPolicy(threshold=1.5)


class TestEnvOptIn:
    def test_env_var_enables_maintenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "1")
        assert ThermalJoin().pair_maintenance
        monkeypatch.setenv("REPRO_INCREMENTAL", "off")
        assert not ThermalJoin().pair_maintenance
        monkeypatch.delenv("REPRO_INCREMENTAL")
        assert not ThermalJoin().pair_maintenance

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_INCREMENTAL", "1")
        assert not ThermalJoin(pair_maintenance=False).pair_maintenance
