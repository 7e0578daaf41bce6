"""Smoke tests of the benchmark: every workload at a few hundred objects.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload: str, trace: str) -> None:
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--scale", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (ROOT / ".perfbench_out" / f"trace-{workload}-seed3.jsonl").is_file()


def _session_members(session: int) -> list[int]:
    """Pids of the live or zombie processes in ``session``, read from ``/proc``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text(encoding="ascii").rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[3]) == session:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
def test_service_run_leaves_no_process_behind() -> None:
    # The service's shared memory starts a resource-tracker process; the
    # run must stop it and wait for it, not leave it to outlive the run.
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "service-mix", "--seed", "3",
         "--seconds", "0.2", "--scale", "smoke"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []


def test_fails_without_program_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "service-mix", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def in_process(monkeypatch: pytest.MonkeyPatch) -> Iterator[None]:
    """Run ``run.main`` in this process; it pins the process to one CPU, undone here."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def _main_result(capsys: pytest.CaptureFixture[str], workload: str) -> tuple[int, dict]:
    from perfbench import run

    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--scale", "smoke"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return code, result


@pytest.mark.usefixtures("in_process")
def test_wrong_simulation_pairs_fail_the_run(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    from perfbench import sim

    monkeypatch.setattr(sim, "_oracle_keys", lambda dataset: np.zeros(1, dtype=np.int64))
    code, result = _main_result(capsys, "uniform-rejoin")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 2


@pytest.mark.usefixtures("in_process")
def test_wrong_service_answers_fail_the_run(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    from perfbench import service_mix

    def wrong_adjacency(i: np.ndarray, j: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
        return (np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    monkeypatch.setattr(service_mix, "pairs_to_adjacency", wrong_adjacency)
    code, result = _main_result(capsys, "service-mix")
    assert code == 1
    # Every neighbors answer of at least the minimum number of epochs.
    assert result["correct"] is False
    neighbors = service_mix.ANALYST_SCRIPT.count("neighbors")
    assert result["failed"] >= neighbors * service_mix.MIN_EPOCHS


@pytest.mark.usefixtures("in_process")
def test_failed_step_is_counted_and_reported(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    from perfbench import sim

    advance = sim.Sim.advance
    calls = []

    def failing_advance(self: sim.Sim) -> sim.StepRecord:
        calls.append(1)
        if len(calls) == 12:
            raise sim.StepFailed("injected")
        return advance(self)

    monkeypatch.setattr(sim.Sim, "advance", failing_advance)
    code, result = _main_result(capsys, "lowmotion-maintain")
    assert code == 1
    assert result == {"correct": False, "attempted": 12, "failed": 1, "metrics": {}}


@pytest.mark.usefixtures("in_process")
def test_failed_request_is_counted_and_reported(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    from perfbench import service_mix

    async def failing_distance(self: object, distance: float) -> None:
        raise RuntimeError("injected")

    monkeypatch.setattr(service_mix.JoinService, "distance", failing_distance)
    code, result = _main_result(capsys, "service-mix")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    # The set-ups' first joins, then the first epoch up to its first distance join.
    assert result["attempted"] == service_mix.SETUPS + 5
