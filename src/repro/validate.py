"""Cross-validation utility: compare join implementations pair-exactly.

A downstream user integrating this library (or modifying an algorithm)
can verify any set of join implementations against each other — and
against the brute-force oracle — on any of the built-in workload
families, over moving simulation steps:

    python -m repro.validate --workload neural --n 3000 --steps 3
    python -m repro.validate --algorithms thermal-join cr-tree --oracle

Exit status is non-zero on any mismatch, making it usable as a CI gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

from repro.experiments.figures import ALGORITHM_FACTORIES
from repro.experiments.workloads import scaled_clustered, scaled_neural, scaled_uniform
from repro.geometry import brute_force_pairs, pack_pairs, sorted_unique_keys

__all__ = ["validate", "main"]

WORKLOADS = {
    "uniform": lambda n, seed: scaled_uniform(n, seed=seed),
    "clustered": lambda n, seed: scaled_clustered(n, seed=seed)[:2],
    "neural": lambda n, seed: scaled_neural(n, seed=seed)[:2],
}


def validate(
    workload: str = "uniform",
    n: int = 2000,
    steps: int = 2,
    algorithms: Sequence[str] | None = None,
    use_oracle: bool = True,
    seed: int = 0,
    log: Callable[[str], None] = print,
) -> bool:
    """Run the requested joins over identical steps and compare pair sets.

    Returns True when every algorithm (and, optionally, the brute-force
    oracle) produced the identical result on every step.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    if algorithms is None:
        algorithms = sorted(ALGORITHM_FACTORIES)
    unknown = [name for name in algorithms if name not in ALGORITHM_FACTORIES]
    if unknown:
        raise ValueError(f"unknown algorithms: {unknown}")

    dataset, motion = WORKLOADS[workload](n, seed)
    instances = {name: ALGORITHM_FACTORIES[name](count_only=False) for name in algorithms}
    ok = True
    for step in range(steps):
        keys = {}
        for name, algorithm in instances.items():
            # The result's keys use the oracle's encoding: compare them
            # deduplicated, without decoding a pair.
            keys[name] = sorted_unique_keys(algorithm.step(dataset).keys)
        if use_oracle:
            keys["<oracle>"] = pack_pairs(*brute_force_pairs(*dataset.boxes()), n)
        reference_name = next(iter(keys))
        reference = keys[reference_name]
        for name, got in keys.items():
            if got.shape == reference.shape and np.array_equal(got, reference):
                continue
            ok = False
            missing = np.setdiff1d(reference, got).size
            spurious = np.setdiff1d(got, reference).size
            log(
                f"step {step}: MISMATCH {name} vs {reference_name}: "
                f"{got.size} vs {reference.size} pairs "
                f"({missing} missing, {spurious} spurious)"
            )
        log(
            f"step {step}: {reference.size:,} pairs, "
            f"{len(keys)} implementations {'agree' if ok else 'DISAGREE'}"
        )
        motion.step(dataset)
    return ok


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Cross-check join implementations pair-exactly.",
    )
    parser.add_argument("--workload", default="uniform", choices=sorted(WORKLOADS))
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--steps", type=int, default=2)
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        metavar="NAME",
        help=f"subset to compare (default: all of {sorted(ALGORITHM_FACTORIES)})",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        default=True,
        help="also compare against the brute-force oracle (default on)",
    )
    parser.add_argument(
        "--no-oracle", dest="oracle", action="store_false",
        help="skip the O(n^2) oracle (large n)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ok = validate(
        workload=args.workload,
        n=args.n,
        steps=args.steps,
        algorithms=args.algorithms,
        use_oracle=args.oracle,
        seed=args.seed,
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
