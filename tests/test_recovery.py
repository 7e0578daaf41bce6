"""Durable checkpoint/restore: format, atomicity, resume bit-identity.

The contract under test (docs/robustness.md): a run that checkpoints,
crashes and resumes must produce *exactly* the trajectory an
uninterrupted run produces — same result counts, same overlap tests,
same footprint, same index counters — across motion models, executors
and the incremental pipeline; and a corrupted newest checkpoint must
degrade to the previous one, never to a wrong answer.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import ThermalJoin
from repro.datasets import (
    IntermittentTranslation,
    make_clustered_workload,
    make_neural_workload,
    make_uniform_workload,
)
from repro.engine.faults import (
    SimulatedCrash,
    corrupt_bitflip,
    corrupt_truncate,
    install_fault_plan,
    parse_faults,
)
from repro.recovery import (
    FORMAT_VERSION,
    CheckpointError,
    CheckpointManager,
    RecoveryMetrics,
    atomic_write_bytes,
    restore_dataset,
    restore_motion,
    snapshot_dataset,
    snapshot_motion,
    write_json,
    write_npz,
)
from repro.recovery.checkpoint import _sha256
from repro.simulation import SimulationRunner, StepRecord

N_STEPS = 8

#: Providers excluded from trajectory comparison: ``recovery`` counters
#: are runner-local (only the checkpointed run has them).
_RUN_LOCAL_PROVIDERS = ("recovery",)


def _make_workload(kind: str, seed: int = 11):
    if kind == "uniform":
        dataset, motion = make_uniform_workload(
            300, width=15.0, bounds=((0, 0, 0), (110, 110, 110)), seed=seed
        )
    elif kind == "clustered":
        dataset, motion, _labels = make_clustered_workload(
            300, n_clusters=3, seed=seed
        )
    elif kind == "neural":
        dataset, motion, _labels = make_neural_workload(300, seed=seed)
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(kind)
    return dataset, motion


def _low_motion_runner(directory, checkpoint_every=4, keep_last=3):
    """A maintained run that stays incremental (checkpoints every 4 steps by default)."""
    dataset, _ = _make_workload("uniform")
    motion = IntermittentTranslation(dataset, distance=3.0, move_fraction=0.05, seed=5)
    return SimulationRunner(
        dataset, motion, ThermalJoin(pair_maintenance=True),
        checkpoint_dir=directory, checkpoint_every=checkpoint_every,
        keep_last=keep_last,
    )


def _strip_checkpoint_events(events):
    return [event for event in events if event.get("kind") != "checkpoint"]


def assert_trajectories_identical(baseline, resumed):
    """Bit-for-bit comparison of two record lists.

    Checkpoint events are excluded (the uninterrupted baseline writes
    none) and so are the run-local metrics providers; everything else —
    including float step times' *presence* and all integer series —
    must match exactly.
    """
    assert len(baseline) == len(resumed)
    for a, b in zip(baseline, resumed):
        assert a.step == b.step
        assert a.n_results == b.n_results, f"step {a.step}"
        assert a.overlap_tests == b.overlap_tests, f"step {a.step}"
        assert a.memory_bytes == b.memory_bytes, f"step {a.step}"
        assert a.task_retries == b.task_retries, f"step {a.step}"
        assert _strip_checkpoint_events(a.events) == _strip_checkpoint_events(
            b.events
        ), f"step {a.step}"
        counters_a = {
            k: v
            for k, v in a.index_counters.items()
            if k not in _RUN_LOCAL_PROVIDERS
        }
        counters_b = {
            k: v
            for k, v in b.index_counters.items()
            if k not in _RUN_LOCAL_PROVIDERS
        }
        assert counters_a == counters_b, f"step {a.step}"
        assert a.incremental == b.incremental, f"step {a.step}"


# ----------------------------------------------------------------------
# Atomic writer
# ----------------------------------------------------------------------
class TestAtomicWriter:
    def test_write_bytes_commits_and_returns_size(self, tmp_path):
        path = tmp_path / "blob.bin"
        nbytes = atomic_write_bytes(path, b"abcdef")
        assert nbytes == 6
        assert path.read_bytes() == b"abcdef"
        # No temp file left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]

    def test_write_replaces_existing_atomically(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new content")
        assert path.read_bytes() == b"new content"

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "doc.json"
        document = {"b": 2, "a": [1, 2.5, "x"], "nested": {"k": None}}
        write_json(path, document)
        assert json.loads(path.read_text(encoding="utf-8")) == document

    def test_write_npz_round_trips(self, tmp_path):
        path = tmp_path / "arrays.npz"
        arrays = {
            "ints": np.arange(10, dtype=np.int64),
            "floats": np.linspace(0, 1, 7),
        }
        write_npz(path, arrays)
        with np.load(path, allow_pickle=False) as payload:
            assert np.array_equal(payload["ints"], arrays["ints"])
            assert np.array_equal(payload["floats"], arrays["floats"])

    def test_streamed_npz_bytes_equal_the_buffered_archive(self, tmp_path):
        arrays = {
            "keys": np.arange(0, 3000, 7, dtype=np.int64),
            "grid": np.linspace(0, 1, 24).reshape(4, 6)[:, ::2],  # non-contiguous
            "flags": np.array([True, False, True]),
            "empty": np.empty(0, dtype=np.int64),
        }
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        path = tmp_path / "arrays.npz"
        assert write_npz(path, arrays) == len(buffer.getvalue())
        assert path.read_bytes() == buffer.getvalue()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["arrays.npz"]

    def test_torn_temp_file_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"x": np.arange(5, dtype=np.int64)}, {"tag": "old"})

        def torn_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk yanked mid-write")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="mid-write"):
            manager.write(1, {"x": np.arange(6, dtype=np.int64)}, {"tag": "new"})
        assert (tmp_path / "step-000001.npz.tmp").exists()
        assert not (tmp_path / "step-000001.npz").exists()
        assert not (tmp_path / "step-000001.json").exists()
        checkpoint, skipped = manager.load_latest()
        assert (checkpoint.step, skipped, checkpoint.meta["tag"]) == (0, 0, "old")
        assert np.array_equal(checkpoint.arrays["x"], np.arange(5))


class TestChecksums:
    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.int64),
            np.arange(24, dtype=np.float64).reshape(4, 6),
            np.arange(24, dtype=np.float64).reshape(4, 6)[:, 1::2],
            np.arange(24, dtype=np.int32).reshape(4, 6).T,
            np.array([True, False, True]),
            np.empty((0, 3)),
            np.float64(2.5) * np.ones(()),
        ],
        ids=["int64", "2d", "strided", "transposed", "bool", "empty", "0-d"],
    )
    def test_digest_equals_sha256_of_tobytes(self, array):
        assert _sha256(array) == hashlib.sha256(array.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# Checkpoint format, verification, retention
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def _write_one(self, directory, step=0, value=1.0):
        manager = CheckpointManager(directory)
        manager.write(
            step,
            {"data": np.full(8, value)},
            {"note": f"step {step}"},
        )
        return manager

    def test_write_then_load_verifies(self, tmp_path):
        manager = self._write_one(tmp_path, step=3, value=2.0)
        checkpoint, skipped = manager.load_latest()
        assert skipped == 0
        assert checkpoint.step == 3
        assert np.array_equal(checkpoint.arrays["data"], np.full(8, 2.0))
        assert checkpoint.meta == {"note": "step 3"}

    def test_manifest_carries_format_and_checksums(self, tmp_path):
        self._write_one(tmp_path, step=1)
        manifest = json.loads((tmp_path / "step-000001.json").read_text())
        assert manifest["format"] == "repro-checkpoint"
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["payload"] == "step-000001.npz"
        entry = manifest["arrays"]["data"]
        assert set(entry) == {"sha256", "shape", "dtype"}
        assert entry["shape"] == [8]

    def test_retention_keeps_last_k(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        for step in range(5):
            manager.write(step, {"data": np.arange(step + 1)}, {})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "records.jsonl",
            "step-000003.json",
            "step-000003.npz",
            "step-000004.json",
            "step-000004.npz",
        ]

    def test_truncated_newest_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        manager.write(1, {"data": np.arange(5)}, {})
        corrupt_truncate(tmp_path / "step-000001.json")
        checkpoint, skipped = manager.load_latest()
        assert checkpoint.step == 0
        assert skipped == 1

    def test_bitflipped_payload_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(64, dtype=np.float64)}, {})
        manager.write(1, {"data": np.arange(64, dtype=np.float64)}, {})
        corrupt_bitflip(tmp_path / "step-000001.npz")
        checkpoint, skipped = manager.load_latest()
        assert checkpoint.step == 0
        assert skipped == 1

    def test_missing_payload_falls_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        manager.write(1, {"data": np.arange(4)}, {})
        (tmp_path / "step-000001.npz").unlink()
        checkpoint, skipped = manager.load_latest()
        assert checkpoint.step == 0
        assert skipped == 1

    def test_all_corrupt_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        corrupt_truncate(tmp_path / "step-000000.json", keep_fraction=0.1)
        with pytest.raises(CheckpointError, match="corrupt"):
            manager.load_latest()

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointManager(tmp_path).load_latest()

    def test_foreign_manifest_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        (tmp_path / "step-000000.json").write_text('{"foo": 1}')
        with pytest.raises(CheckpointError):
            manager.load(tmp_path / "step-000000.json")

    def test_shape_mismatch_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {})
        # Rewrite the payload with a different shape behind the manifest.
        write_npz(tmp_path / "step-000000.npz", {"data": np.arange(6)})
        with pytest.raises(CheckpointError, match="shape/dtype"):
            manager.load(tmp_path / "step-000000.json")


# ----------------------------------------------------------------------
# State codecs
# ----------------------------------------------------------------------
class TestStateCodecs:
    def test_dataset_round_trip(self):
        dataset, _motion = _make_workload("uniform")
        dataset.attributes["mass"] = np.arange(len(dataset), dtype=np.float64)
        dataset.version = 17
        arrays, meta = snapshot_dataset(dataset)
        restored = restore_dataset(arrays, meta)
        assert np.array_equal(restored.centers, dataset.centers)
        assert np.array_equal(restored.widths, dataset.widths)
        assert restored.version == 17
        assert np.array_equal(
            restored.attributes["mass"], dataset.attributes["mass"]
        )
        assert restored.uid != dataset.uid  # uid is process-local

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "neural"])
    def test_motion_round_trip_preserves_random_stream(self, kind):
        dataset, motion = _make_workload(kind)
        dataset_copy, motion_reference = _make_workload(kind)
        # Advance both in lockstep, snapshot one, then compare streams.
        for _ in range(3):
            motion.step(dataset)
            motion_reference.step(dataset_copy)
        arrays, meta = snapshot_motion(motion)
        restored = restore_motion(arrays, meta)
        for _ in range(3):
            restored.step(dataset)
            motion_reference.step(dataset_copy)
        assert np.array_equal(dataset.centers, dataset_copy.centers)

    def test_motion_meta_is_json_safe(self):
        _dataset, motion = _make_workload("neural")
        _arrays, meta = snapshot_motion(motion)
        replayed = json.loads(json.dumps(meta))
        assert replayed == meta  # RNG state survives JSON exactly

    def test_unknown_bit_generator_rejected(self):
        # The neural motion model carries a live Generator.
        _dataset, motion = _make_workload("neural")
        arrays, meta = snapshot_motion(motion)
        rng_entries = [
            entry for entry in meta["attrs"].values() if entry["kind"] == "rng"
        ]
        assert rng_entries, "expected the motion model to carry an RNG"
        for entry in rng_entries:
            entry["state"]["bit_generator"] = "NotAGenerator"
        with pytest.raises(ValueError, match="bit generator"):
            restore_motion(arrays, meta)

    def test_step_record_round_trip(self, uniform_small):
        runner = SimulationRunner(uniform_small, None, ThermalJoin())
        runner.run(2)
        for record in runner.records:
            doc = json.loads(json.dumps(record.to_json()))
            assert StepRecord.from_json(doc) == record

    def test_step_record_refuses_missing_or_unknown_keys(self, uniform_small):
        runner = SimulationRunner(uniform_small, None, ThermalJoin())
        runner.run(1)
        doc = runner.records[0].to_json()
        with pytest.raises(ValueError, match="fields"):
            StepRecord.from_json({**doc, "extra": 1})
        del doc["incremental"]
        with pytest.raises(ValueError, match="fields"):
            StepRecord.from_json(doc)


# ----------------------------------------------------------------------
# Resume equals uninterrupted — the core property
# ----------------------------------------------------------------------
class TestResumeBitIdentity:
    @pytest.mark.parametrize("kind", ["uniform", "clustered", "neural"])
    def test_resume_matches_uninterrupted(self, kind, tmp_path):
        dataset, motion = _make_workload(kind)
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload(kind)
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(5)  # dies after step 4; checkpoints at 1 and 3

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        assert resumed._next_step == 4
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_resume_matches_with_incremental_maintenance(self, tmp_path):
        def algo():
            return ThermalJoin(incremental=True, pair_maintenance=True)

        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, algo())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, algo(), checkpoint_dir=tmp_path,
            checkpoint_every=3,
        )
        first.run(6)
        resumed = SimulationRunner.resume(tmp_path, algo())
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_resume_with_pending_extra_keys_is_bit_identical(self, tmp_path):
        """A checkpoint folds a set with pending extra keys; the resumed
        run continues from the folded keys exactly as the uninterrupted
        run (same checkpoint cadence) continues after its own fold."""
        steps = 16
        baseline = _low_motion_runner(tmp_path / "baseline")
        baseline.run(steps)
        pending = [
            r.step for r in baseline.records
            if r.step % 4 == 3 and r.incremental.get("extra_keys", 0) > 0
        ]
        assert pending, "no checkpoint was written with pending extra keys"
        checkpoint_step = pending[0]
        install_fault_plan(parse_faults(f"crashstep@{checkpoint_step + 2}"))
        try:
            with pytest.raises(SimulatedCrash):
                _low_motion_runner(tmp_path / "crashed").run(steps)
        finally:
            install_fault_plan(None)
        resumed = SimulationRunner.resume(
            tmp_path / "crashed", ThermalJoin(pair_maintenance=True)
        )
        assert resumed._next_step == checkpoint_step + 1
        resumed.run(steps)
        assert_trajectories_identical(baseline.records, resumed.records)
        assert np.array_equal(
            resumed.algorithm._maintained.packed_keys(),
            baseline.algorithm._maintained.packed_keys(),
        )

    def test_checkpoint_without_layout_counters_resumes(self, tmp_path):
        # Checkpoints written before the set kept its pending keys apart
        # (same format version) carry no compactions/extra_keys counters.
        baseline = _low_motion_runner(tmp_path / "baseline")
        baseline.run(12)
        first = _low_motion_runner(tmp_path / "old")
        first.run(8)  # checkpoints at steps 3 and 7
        manager = CheckpointManager(tmp_path / "old")
        newest = manager.load(tmp_path / "old" / "step-000007.json")
        incr = newest.meta["algorithm"]["incr"]
        assert incr["mode"] == "incremental"
        del incr["compactions"], incr["extra_keys"]
        manager.write(7, newest.arrays, newest.meta)
        resumed = SimulationRunner.resume(
            tmp_path / "old", ThermalJoin(pair_maintenance=True)
        )
        assert resumed._next_step == 8
        resumed.run(12)
        for a, b in zip(baseline.records[8:], resumed.records[8:], strict=True):
            assert (a.n_results, a.overlap_tests, a.incremental) == (
                b.n_results, b.overlap_tests, b.incremental
            )
        assert np.array_equal(
            resumed.algorithm._maintained.packed_keys(),
            baseline.algorithm._maintained.packed_keys(),
        )

    def test_resume_on_the_converging_step(self, tmp_path):
        """Checkpoint on the step where the tuner settled at its best
        probe and dropped the P-Grid: the resumed tuner must still know
        that the next step rebuilds the grid, or it seeds its drift
        reference from that step and retunes on the next one."""
        dataset, motion = _make_workload("uniform", seed=3)
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)
        # Each record snapshots the tuner as its step ran: the first
        # converged record is the first step at r'.
        tuner_series = [r.index_counters["tuner"] for r in baseline.records]
        settled = [t["converged"] for t in tuner_series].index(True)
        assert tuner_series[settled]["resolution"] != tuner_series[settled - 1]["resolution"]

        dataset2, motion2 = _make_workload("uniform", seed=3)
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=settled,
        )
        first.run(settled)  # the last step run is the converging one
        assert first.algorithm.pgrid is None  # dropped for the move to r'

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        assert resumed._next_step == settled
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)
        assert [r.index_counters["tuner"]["resolution"] for r in resumed.records] == [
            t["resolution"] for t in tuner_series
        ]
        # The drift reference is seeded on the first recycled step, and
        # the workload itself may drift past it later in the run: the
        # resumed run must retune exactly when the uninterrupted one does.
        assert resumed.algorithm.tuner.retunes == baseline.algorithm.tuner.retunes

    def test_resume_between_the_two_losing_probes(self, tmp_path):
        """Checkpoint after the first probe lost: the resumed tuner must
        remember that side, or the second loser does not bracket the
        best and the climb walks on."""
        dataset, motion = _make_workload("uniform", seed=3)
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform", seed=3)
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(2)
        tuner = first.algorithm.tuner
        assert not tuner.converged
        assert [r for r, _cost in tuner.history] == [1.0, 0.75]
        assert tuner.state_dict()["lost"] == [0.75, tuner.history[1][1]]

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        assert resumed._next_step == 2
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)
        assert resumed.algorithm.tuner.history == baseline.algorithm.tuner.history

    def test_version_3_checkpoint_with_maintained_keys_refused(self, tmp_path):
        # Version 3 stored the maintained set as an array of packed keys.
        # Rewrite the newest checkpoint in that form: resume must refuse
        # it as a skipped checkpoint and fall back, and with no older
        # checkpoint left nothing loads.
        def algo():
            return ThermalJoin(incremental=True, pair_maintenance=True)

        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, algo())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, algo(), checkpoint_dir=tmp_path / "run",
            checkpoint_every=2,
        )
        first.run(6)  # checkpoints at steps 1, 3, 5
        keys = first.algorithm._maintained.packed_keys()
        assert keys.size
        manager = CheckpointManager(tmp_path / "run")
        newest = manager.load(tmp_path / "run" / "step-000005.json")
        arrays = {**newest.arrays, "algorithm/maintained_keys": keys}
        lone = CheckpointManager(tmp_path / "lone")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.recovery.checkpoint.FORMAT_VERSION", 3)
            manager.write(5, arrays, newest.meta)
            lone.write(5, arrays, newest.meta, newest.records)
        manifest = json.loads((tmp_path / "run" / "step-000005.json").read_text())
        assert manifest["version"] == 3
        with pytest.raises(CheckpointError, match="format version 3"):
            manager.load(tmp_path / "run" / "step-000005.json")
        with pytest.raises(CheckpointError, match="corrupt"):
            lone.load_latest()

        resumed = SimulationRunner.resume(tmp_path / "run", algo())
        assert resumed._next_step == 4  # fell back to the step-3 checkpoint
        assert resumed.recovery.corrupt_skipped == 1
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_version_4_checkpoint_refused(self, tmp_path):
        # Version 4 kept the records in chained per-checkpoint segments
        # and has no record-log prefix to verify.
        manager = CheckpointManager(tmp_path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.recovery.checkpoint.FORMAT_VERSION", 4)
            manager.write(0, {"data": np.arange(4)}, {}, [{"step": 0}])
        with pytest.raises(CheckpointError, match="format version 4"):
            manager.load(tmp_path / "step-000000.json")
        with pytest.raises(CheckpointError, match="corrupt"):
            manager.load_latest()

    @pytest.mark.parametrize("executor", ["serial", "thread:2"])
    def test_resume_matches_across_executors(self, executor, tmp_path):
        def algo():
            return ThermalJoin(executor=executor)

        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, algo())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, algo(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(5)
        resumed = SimulationRunner.resume(tmp_path, algo())
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_resume_from_older_checkpoint_after_corruption(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(6)  # checkpoints at steps 1, 3, 5
        corrupt_truncate(tmp_path / "step-000005.json")
        corrupt_bitflip(tmp_path / "step-000005.npz")

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        assert resumed._next_step == 4  # fell back to the step-3 checkpoint
        assert resumed.recovery.corrupt_skipped == 1
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_resume_validates_algorithm_config(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        runner.run(3)
        with pytest.raises(ValueError, match="config"):
            SimulationRunner.resume(tmp_path, ThermalJoin(resolution=0.25))

    @pytest.mark.parametrize(
        "setting", [{"memory_quota_bytes": 10**6}, {"churn_threshold": 0.3}]
    )
    def test_resume_refuses_a_different_quota_or_churn_mode(self, setting, tmp_path):
        # Both change the trajectory, so a resume without them would
        # silently diverge from the checkpointed run.
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(**setting), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        runner.run(3)
        with pytest.raises(ValueError, match="config"):
            SimulationRunner.resume(tmp_path, ThermalJoin())

    def test_checkpoint_event_recorded_identically(self, tmp_path):
        # The checkpointed run and its resumed continuation must agree
        # on the checkpoint events too (they are part of the records).
        dataset, motion = _make_workload("uniform")
        full = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path / "a",
            checkpoint_every=2,
        )
        full.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path / "b",
            checkpoint_every=2,
        )
        first.run(5)
        resumed = SimulationRunner.resume(tmp_path / "b", ThermalJoin())
        resumed.run(N_STEPS)
        for a, b in zip(full.records, resumed.records):
            assert a.events == b.events, f"step {a.step}"


# ----------------------------------------------------------------------
# What a checkpoint stores: no pair keys, each record once
# ----------------------------------------------------------------------
class TestCheckpointContents:
    def _low_motion_checkpoints(self, directory):
        runner = _low_motion_runner(directory)
        runner.run(8)  # checkpoints at steps 3 and 7
        assert runner.algorithm._maintained is not None
        return runner

    def test_payload_holds_no_pair_keys(self, tmp_path):
        self._low_motion_checkpoints(tmp_path)
        checkpoint, _skipped = CheckpointManager(tmp_path).load_latest()
        algorithm = checkpoint.meta["algorithm"]
        assert algorithm["incr"]["mode"] == "incremental"
        assert algorithm["maintained"]["pairs"] > 0
        assert not [
            name for name in checkpoint.arrays
            if name.startswith("algorithm/") and "keys" in name
        ]

    def test_manifest_size_does_not_grow_with_the_step_count(self, tmp_path):
        _low_motion_runner(tmp_path, checkpoint_every=10, keep_last=6).run(60)
        first = (tmp_path / "step-000009.json").stat().st_size
        last = (tmp_path / "step-000059.json").stat().st_size
        assert abs(last - first) <= 0.1 * first, (first, last)

    def test_retained_checkpoints_share_one_record_log(self, tmp_path):
        _low_motion_runner(tmp_path, checkpoint_every=10, keep_last=3).run(60)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"] + [
            f"step-{step:06d}.{suffix}" for step in (39, 49, 59) for suffix in ("json", "npz")
        ]
        # Every record is stored once, as one line of the log.
        checkpoint, skipped = CheckpointManager(tmp_path).load_latest()
        assert skipped == 0
        assert [doc["step"] for doc in checkpoint.records] == list(range(60))
        assert len((tmp_path / "records.jsonl").read_bytes().splitlines()) == 60

    def test_bitflipped_record_log_falls_back(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        dataset2, motion2 = _make_workload("uniform")
        first = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        first.run(6)  # checkpoints at steps 1, 3, 5
        manifest = json.loads((tmp_path / "step-000003.json").read_text())
        corrupt_bitflip(tmp_path / "records.jsonl", offset=manifest["records"]["bytes"] + 5)
        with pytest.raises(CheckpointError, match="records.jsonl fail checksum"):
            CheckpointManager(tmp_path).load(tmp_path / "step-000005.json")

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        assert resumed._next_step == 4  # fell back to the step-3 checkpoint
        assert resumed.recovery.corrupt_skipped == 1
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)
        # The resumed run cut the log back to the step-3 prefix before
        # appending: the newest checkpoint loads in full.
        checkpoint, skipped = CheckpointManager(tmp_path).load_latest()
        assert (checkpoint.step, skipped) == (7, 0)
        assert [doc["step"] for doc in checkpoint.records] == list(range(N_STEPS))

    def test_torn_log_tail_is_ignored_then_dropped(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.write(0, {"data": np.arange(4)}, {}, [{"step": 0}])
        log = tmp_path / "records.jsonl"
        committed = log.read_bytes()
        # A crash between the append and the manifest leaves a tail no
        # manifest covers.
        with open(log, "ab") as handle:
            handle.write(b'{"step": 1, "torn')
        resumed = CheckpointManager(tmp_path)
        checkpoint, skipped = resumed.load_latest()
        assert (checkpoint.records, skipped) == ([{"step": 0}], 0)
        resumed.write(1, {"data": np.arange(4)}, {}, [{"step": 1}])
        assert log.read_bytes() == committed + b'{"step":1}\n'
        checkpoint, skipped = CheckpointManager(tmp_path).load_latest()
        assert (checkpoint.records, skipped) == ([{"step": 0}, {"step": 1}], 0)

    def test_restore_rederives_pairs_and_leaves_the_state_alone(self, tmp_path):
        runner = self._low_motion_checkpoints(tmp_path)
        expected_keys = runner.algorithm._maintained.packed_keys()
        checkpoint, _skipped = CheckpointManager(tmp_path).load_latest()
        assert checkpoint.step == 7
        meta = checkpoint.meta
        arrays = {
            key.split("/", 1)[1]: value
            for key, value in checkpoint.arrays.items()
            if key.startswith("algorithm/")
        }
        dataset = restore_dataset(
            {
                key.split("/", 1)[1]: value
                for key, value in checkpoint.arrays.items()
                if key.startswith("dataset/")
            },
            meta["dataset"],
        )
        algorithm = ThermalJoin(pair_maintenance=True)
        algorithm.restore_state(
            {key: value for key, value in arrays.items() if "keys" not in key},
            meta["algorithm"],
            dataset,
        )
        held = meta["algorithm"]
        assert len(algorithm._maintained) == held["maintained"]["pairs"]
        assert np.array_equal(algorithm._maintained.packed_keys(), expected_keys)
        assert algorithm.tuner.state_dict() == held["tuner"]
        assert algorithm.churn.state_dict() == held["churn"]
        assert algorithm._incr == held["incr"]
        pgrid_arrays, pgrid_meta = algorithm.pgrid.snapshot_state()
        assert pgrid_meta == held["pgrid"]
        assert set(pgrid_arrays) == {
            key.split("/", 1)[1] for key in arrays if key.startswith("pgrid/")
        }
        for key, value in pgrid_arrays.items():
            assert np.array_equal(value, arrays[f"pgrid/{key}"]), key

    def test_tampered_pair_count_raises(self, tmp_path):
        self._low_motion_checkpoints(tmp_path)
        checkpoint, _skipped = CheckpointManager(tmp_path).load_latest()
        checkpoint.meta["algorithm"]["maintained"]["pairs"] += 1
        manager = CheckpointManager(tmp_path)
        manager.load_latest()
        manager.write(checkpoint.step, checkpoint.arrays, checkpoint.meta)
        with pytest.raises(ValueError, match="re-derived"):
            SimulationRunner.resume(tmp_path, ThermalJoin(pair_maintenance=True))


# ----------------------------------------------------------------------
# Injected crashes end to end
# ----------------------------------------------------------------------
class TestCrashStep:
    def teardown_method(self):
        install_fault_plan(None)

    def test_crashstep_raises_out_of_run(self, tmp_path):
        install_fault_plan(parse_faults("crashstep@3"))
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        with pytest.raises(SimulatedCrash):
            runner.run(N_STEPS)
        # Completed records and the step-3 checkpoint survive the crash.
        assert [r.step for r in runner.records] == [0, 1, 2, 3]
        assert runner.failed_step is None
        assert (tmp_path / "step-000003.json").exists()

    def test_crash_then_resume_is_bit_identical(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(N_STEPS)

        install_fault_plan(parse_faults("crashstep@3"))
        dataset2, motion2 = _make_workload("uniform")
        crashed = SimulationRunner(
            dataset2, motion2, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        with pytest.raises(SimulatedCrash):
            crashed.run(N_STEPS)

        resumed = SimulationRunner.resume(tmp_path, ThermalJoin())
        resumed.run(N_STEPS)
        assert_trajectories_identical(baseline.records, resumed.records)

    def test_crashstep_without_checkpoints_loses_nothing_recorded(self):
        install_fault_plan(parse_faults("crashstep@1"))
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(dataset, motion, ThermalJoin())
        with pytest.raises(SimulatedCrash):
            runner.run(4)
        assert [r.step for r in runner.records] == [0, 1]


# ----------------------------------------------------------------------
# Step-level escalation
# ----------------------------------------------------------------------
class _FlakyJoin(ThermalJoin):
    """Raises on chosen step indices, once each, past executor recovery."""

    def __init__(self, fail_steps=(), always=False, **kwargs):
        super().__init__(**kwargs)
        self._fail_steps = set(fail_steps)
        self._always = always
        self._calls = 0

    def step_delta(self, dataset, delta):
        step = self._calls
        self._calls += 1
        if self._always or step in self._fail_steps:
            self._fail_steps.discard(step)
            raise RuntimeError(f"flaky failure at call {step}")
        return super().step_delta(dataset, delta)


class TestEscalation:
    def test_retry_succeeds_and_is_recorded(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, _FlakyJoin(fail_steps={2}),
            checkpoint_dir=tmp_path, checkpoint_every=100,
        )
        records = runner.run(5)
        assert runner.failed_step is None
        assert len(records) == 5
        retried = [
            e for e in records[2].events if e.get("kind") == "step_retry"
        ]
        assert len(retried) == 1
        assert runner.recovery.step_retries == 1
        assert runner.recovery.escalations == 0

    def test_second_failure_escalates(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, _FlakyJoin(always=True),
            checkpoint_dir=tmp_path, checkpoint_every=100,
        )
        records = runner.run(3)
        assert records == []
        assert runner.failed_step == 0
        assert isinstance(runner.failure, RuntimeError)
        assert "flaky failure" in runner.failure_traceback
        assert runner.recovery.escalations == 1

    def test_retry_result_matches_clean_run(self):
        dataset, motion = _make_workload("uniform")
        baseline = SimulationRunner(dataset, motion, ThermalJoin())
        baseline.run(5)

        dataset2, motion2 = _make_workload("uniform")
        runner = SimulationRunner(dataset2, motion2, _FlakyJoin(fail_steps={3}))
        runner.run(5)
        for a, b in zip(baseline.records, runner.records):
            assert a.n_results == b.n_results, f"step {a.step}"


# ----------------------------------------------------------------------
# Recovery metrics provider
# ----------------------------------------------------------------------
class TestRecoveryMetrics:
    def test_counters_accumulate(self):
        metrics = RecoveryMetrics()
        metrics.record_checkpoint(100, seconds=0.25)
        metrics.record_checkpoint(50, seconds=0.5)
        metrics.record_load(corrupt_skipped=2)
        metrics.record_step_retry()
        metrics.record_escalation()
        assert metrics.snapshot() == {
            "checkpoints_written": 2,
            "checkpoint_bytes": 150,
            "checkpoint_seconds": 0.75,
            "checkpoint_loads": 1,
            "corrupt_skipped": 2,
            "step_retries": 1,
            "escalations": 1,
        }

    def test_provider_surfaces_in_step_records(self, tmp_path):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(
            dataset, motion, ThermalJoin(), checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        runner.run(4)
        assert runner.recovery.checkpoints_written == 2
        assert runner.recovery.checkpoint_bytes > 0
        # The provider is live in the registry snapshot of later steps.
        assert "recovery" in runner.records[-1].index_counters
        snapshot = runner.records[-1].index_counters["recovery"]
        assert snapshot["checkpoints_written"] >= 1

    def test_no_provider_without_checkpointing(self):
        dataset, motion = _make_workload("uniform")
        runner = SimulationRunner(dataset, motion, ThermalJoin())
        runner.run(2)
        assert runner.recovery is None
        assert "recovery" not in runner.records[-1].index_counters


# ----------------------------------------------------------------------
# Corruption injection helpers
# ----------------------------------------------------------------------
class TestCorruptionHelpers:
    def test_truncate_shrinks_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        corrupt_truncate(path, keep_fraction=0.25)
        assert path.stat().st_size == 25

    def test_truncate_validates_fraction(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        with pytest.raises(ValueError):
            corrupt_truncate(path, keep_fraction=1.5)

    def test_bitflip_changes_exactly_one_bit(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(16)))
        corrupt_bitflip(path, offset=4)
        data = path.read_bytes()
        assert data[4] == 4 ^ 0x01
        assert len(data) == 16

    def test_bitflip_rejects_empty_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_bitflip(path)
