"""Neural-plasticity simulation: the paper's driving use case (§3.1).

Reproduces the structure of the Human Brain Project workload on the
synthetic tissue generator: at every time step the branches remodel
(all objects move), then a *distance join* with predicate ``d`` finds
every pair of segments within interaction range so the "electrical
attraction and repulsion forces" could be evaluated on them.

The distance join is executed exactly as the paper describes — by
enlarging every object's extent by ``d`` and running the overlap join —
and THERMAL-JOIN is compared against the CR-Tree on identical steps.

Run::

    python examples/neural_simulation.py
"""

import numpy as np

from repro import CRTreeJoin, ThermalJoin, make_neural_workload

N_OBJECTS = 8_000
N_STEPS = 6
INTERACTION_DISTANCE = 1.0


def main():
    dataset, motion, labels = make_neural_workload(N_OBJECTS, seed=7)
    n_neurons = int(labels.max()) + 1
    print(
        f"tissue: {N_OBJECTS} cylinder segments across {n_neurons} neurons, "
        f"extent {dataset.max_width:.2f} units, distance predicate d={INTERACTION_DISTANCE}"
    )

    # The distance join: a shared-center view with extents enlarged by d.
    interaction_view = dataset.with_enlarged_extent(INTERACTION_DISTANCE)

    thermal = ThermalJoin()
    crtree = CRTreeJoin()

    print(f"\n{'step':>4} {'pairs':>10} {'thermal [ms]':>13} {'cr-tree [ms]':>13} {'tests t/c':>16}")
    for step in range(N_STEPS):
        thermal_result = thermal.step(interaction_view)
        crtree_result = crtree.step(interaction_view)
        assert thermal_result.n_results == crtree_result.n_results
        print(
            f"{step:>4} {thermal_result.n_results:>10,} "
            f"{thermal_result.stats.total_seconds * 1e3:>13.1f} "
            f"{crtree_result.stats.total_seconds * 1e3:>13.1f} "
            f"{thermal_result.stats.overlap_tests:>7,}/{crtree_result.stats.overlap_tests:,}"
        )
        motion.step(dataset)  # plasticity: every segment moves

    # Use the final join's pairs the way the simulation would: compute a
    # toy pairwise interaction (inverse-square repulsion between segment
    # centers) accumulated per object.
    result = thermal.step(interaction_view)
    i_idx, j_idx = result.pairs
    delta = dataset.centers[j_idx] - dataset.centers[i_idx]
    dist_sq = np.maximum((delta * delta).sum(axis=1), 1e-6)
    force = delta / dist_sq[:, None]
    forces = np.zeros_like(dataset.centers)
    np.add.at(forces, i_idx, force)
    np.add.at(forces, j_idx, -force)
    magnitude = np.linalg.norm(forces, axis=1)
    print(
        f"\nper-segment interaction forces: mean={magnitude.mean():.3f}, "
        f"max={magnitude.max():.3f} (computed from {result.n_results:,} pairs)"
    )


if __name__ == "__main__":
    main()
