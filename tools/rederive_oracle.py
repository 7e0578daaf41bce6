"""Re-derive the tuner-driven series of the recorded kernel oracle.

``tests/fixtures/kernel_refactor_oracle.json`` pins per-step results and
counters of several joins (``TestRecordedOracle`` in
``tests/test_kernels.py``).  Most runs use no tuner and stay as they were
recorded.  Three are driven by the resolution tuner, so a change to its
rules legitimately moves their ``overlap_tests``, ``resolution``, cell
and memory counters:

* ``thermal-join`` — the self-tuning random-walk series;
* ``thermal-join-incremental`` — the same under pair maintenance;
* ``thermal-join-index`` / ``tuned-dense`` — the index counters of a
  self-tuned dense workload.

This script replays those scenarios (the same workloads the tests
build) and rewrites their rows.  It refuses to write when any step's
``n_results`` differs from the committed fixture, or when any step's
pairs differ from :func:`repro.geometry.brute_force_pairs`: a tuner may
change what the join costs, never what it answers.

Run from the repository root::

    PYTHONPATH=src python -m tools.rederive_oracle          # rewrite the fixture
    PYTHONPATH=src python -m tools.rederive_oracle --check  # exit 1 if it differs
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core import ThermalJoin
from repro.datasets import IntermittentTranslation, make_uniform_workload
from repro.geometry import brute_force_pairs, pairs_equal

FIXTURE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests" / "fixtures" / "kernel_refactor_oracle.json"
)

#: Index counters recorded per step by the ``thermal-join-index`` runs.
INDEX_INFO_KEYS = (
    "cell_pair_joins",
    "cells_created",
    "occupied_cells",
    "total_cells",
    "vacant_cells",
    "tgrid_cells",
    "tgrid_fallbacks",
    "gc_runs",
    "layers",
)

Row = dict[str, Any]


def _replay(
    join: ThermalJoin,
    steps: int,
    side: float,
    workload: dict[str, Any],
    motion_factory: Callable[[Any], Any] | None,
    index_rows: bool,
) -> list[Row]:
    """Run ``steps`` steps as ``SimulationRunner`` does; one row per step."""
    dataset, motion = make_uniform_workload(
        900, bounds=(np.zeros(3), np.full(3, side)), seed=11, **workload
    )
    if motion_factory is not None:
        motion = motion_factory(dataset)
    rows: list[Row] = []
    delta = None
    for step in range(steps):
        if step:
            delta = motion.step(dataset)
        result = join.step_delta(dataset, delta)
        lo, hi = dataset.boxes()
        if result.pairs is None or not pairs_equal(
            result.pairs, brute_force_pairs(lo, hi), len(dataset)
        ):
            raise AssertionError(f"step {step}: pairs differ from brute_force_pairs")
        row: Row = {
            "n_results": result.n_results,
            "overlap_tests": result.stats.overlap_tests,
        }
        if index_rows:
            info = join.last_step_info
            row["memory_bytes"] = result.stats.memory_bytes
            row.update({key: info[key] for key in INDEX_INFO_KEYS})
            row["tgrid_peak_cells"] = result.stats.index_counters["tgrid"]["peak_cells"]
            row["resolution"] = info["resolution"]
        rows.append(row)
    return rows


def _intermittent(dataset: Any) -> IntermittentTranslation:
    return IntermittentTranslation(dataset, seed=5, move_fraction=0.05, distance=2.0)


def derive() -> dict[str, list[Row]]:
    """The tuner-driven runs, keyed by their fixture path (``run`` or ``run/scenario``)."""
    random_walk: dict[str, Any] = {"width": 10.0}
    return {
        "thermal-join": _replay(
            ThermalJoin(pair_maintenance=False), 4, 120.0, random_walk, None,
            index_rows=False,
        ),
        "thermal-join-incremental": _replay(
            ThermalJoin(pair_maintenance=True), 6, 120.0, random_walk,
            _intermittent, index_rows=False,
        ),
        "thermal-join-index/tuned-dense": _replay(
            ThermalJoin(pair_maintenance=False), 10, 40.0,
            {"width_range": (0.05, 10.0)}, None,
            index_rows=True,
        ),
    }


def _slot(runs: dict[str, Any], path: str) -> tuple[dict[str, Any], str]:
    """The container and key that ``path`` names inside ``runs``."""
    *parents, key = path.split("/")
    for parent in parents:
        runs = runs[parent]
    return runs, key


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed fixture instead of rewriting it",
    )
    args = parser.parse_args(argv)
    fixture = json.loads(FIXTURE_PATH.read_text())
    stale = []
    for path, rows in derive().items():
        container, key = _slot(fixture["runs"], path)
        recorded = container[key]
        got = [row["n_results"] for row in rows]
        if got != [row["n_results"] for row in recorded]:
            raise AssertionError(f"{path}: n_results moved: {got}")
        if rows != recorded:
            stale.append(path)
        container[key] = rows
    if args.check:
        for path in stale:
            print(f"{path}: the committed fixture differs from the code's series")
        print("oracle fixture is stale" if stale else "oracle fixture is current")
        return 1 if stale else 0
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"rewrote {', '.join(stale) or 'nothing (already current)'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
