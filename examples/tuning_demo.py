"""Self-tuning walkthrough: hill climbing on the P-Grid resolution.

Shows §4.3.2 end to end: THERMAL-JOIN starts at r = 1, probes coarser
and finer grids while the simulation runs, converges within a few steps
(the paper observes 6–8), and — when the workload's distribution changes
mid-simulation — detects the cost drift (Equation 2) and re-tunes.

Run::

    python examples/tuning_demo.py
"""

import numpy as np

from repro import ThermalJoin, make_uniform_workload


def main():
    dataset, motion = make_uniform_workload(
        8_000, width=15.0, bounds=((0, 0, 0), (420, 420, 420)), seed=5
    )
    join = ThermalJoin()

    print("phase 1: tuning from scratch on the uniform workload")
    print(f"{'step':>4} {'r used':>7} {'cost (ops)':>12} {'state':>10}")
    for step in range(10):
        join.step(dataset)
        r_used, cost = join.tuner.history[-1]
        state = "converged" if join.tuner.converged else "exploring"
        print(f"{step:>4} {r_used:>7.3f} {cost:>12,.0f} {state:>10}")
        motion.step(dataset)

    print(
        f"\nconverged at r={join.current_resolution:.3f} after "
        f"{join.tuner.tuning_steps} tuning observations"
    )

    # Change the workload distribution drastically: collapse everything
    # into one dense cluster.  Equation 2 should notice the cost drift
    # and re-open the tuning.
    print("\nphase 2: distribution change (uniform -> single dense cluster)")
    rng = np.random.default_rng(17)
    clustered = 210.0 + rng.normal(scale=25.0, size=dataset.centers.shape)
    dataset.update_positions(np.clip(clustered, 0.0, 420.0))

    for step in range(12):
        join.step(dataset)
        r_used, cost = join.tuner.history[-1]
        state = "converged" if join.tuner.converged else "re-tuning"
        print(f"{step:>4} {r_used:>7.3f} {cost:>12,.0f} {state:>10}")
        motion.step(dataset)

    print(
        f"\nre-tunes triggered: {join.tuner.retunes}, "
        f"final r={join.current_resolution:.3f}, converged={join.tuner.converged}"
    )


if __name__ == "__main__":
    main()
