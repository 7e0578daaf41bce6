"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload uniform-rejoin --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of that checkout.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` is the
separate traced run that reports per-layer metrics, prints a per-layer
self-time table and writes its spans as JSONL under ``.perfbench_out/``.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
outputs disagree with the independent check, or in which a step or a
request fails, still prints that line and exits with code 1.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from perfbench.common import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("uniform-rejoin", "lowmotion-maintain", "service-mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke: a few hundred objects, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import host

    # Registered before the program is imported, so it runs after the
    # program's own exit handlers, on every path out of the process.
    atexit.register(host.stop_child_processes)
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from repro.obs import environment_info

    from perfbench import service_mix, sim
    from perfbench.common import END_TO_END, PER_LAYER, Outcome
    from perfbench.spans import SpanLog

    # One CPU for the whole process: the service's worker thread and the
    # reference kernel then run where the program runs, so the kernel sees
    # the same co-tenant contention and no op pays for a cross-CPU hand-off.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    traced = bool(args.trace)
    smoke = args.scale == "smoke"
    out_dir = ROOT / ".perfbench_out"
    env = {**environment_info(), **host.environment(), "seed": args.seed}
    outcome = Outcome()
    log = SpanLog()
    try:
        if args.workload == "service-mix":
            service_mix.run(args.seed, args.seconds, traced, smoke, outcome, log)
        else:
            workdir = out_dir / f"{args.workload}-seed{args.seed}-checkpoints"
            sim.run(args.workload, args.seed, args.seconds, traced, smoke, workdir, outcome, log)
    except Exception as exc:  # a failed step or request: report it, then fail the run
        traceback.print_exc()
        outcome.mismatch(f"{args.workload}: {type(exc).__name__}: {exc}")
        print(json.dumps(_result(outcome, {})))
        return 1

    env.update(outcome.host)
    print(json.dumps({"environment": env}))
    catalogue = PER_LAYER if traced else END_TO_END
    if set(outcome.metrics) != set(catalogue):
        missing = sorted(set(catalogue) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(catalogue))
        raise RuntimeError(f"metric set mismatch: missing {missing}, extra {extra}")
    if traced:
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        log.write_jsonl(trace_path, {"workload": args.workload, "environment": env})
        print("\n\n".join(outcome.report))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    for problem in outcome.mismatches:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    print(json.dumps(_result(outcome, catalogue)))
    return 0 if outcome.correct else 1


def _result(outcome: Outcome, catalogue: dict[str, str]) -> dict[str, Any]:
    """The result line: correctness, operation counts and the catalogue's metrics."""
    return {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in catalogue.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
