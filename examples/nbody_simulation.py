"""N-body simulation with a cut-off radius (the paper's cosmology case).

The paper's introduction motivates the self-join with n-body cosmology:
"to compute the gravitational force on a particular planet ... all other
cosmological objects in proximity are retrieved using a spatial
self-join".  This example closes that loop: a small cluster of bodies
evolves under softened short-range gravity, and at *every* leapfrog step
THERMAL-JOIN supplies the interacting pairs within the cut-off radius.

The join algorithm is not told anything about the physics — it sees
only in-place position updates, exactly the black-box contract of §3.2.

Run::

    python examples/nbody_simulation.py
"""

import numpy as np

from repro import SpatialDataset, ThermalJoin

N_BODIES = 5_000
CUTOFF_RADIUS = 8.0  # interaction range ("object extent" in join terms)
DT = 0.05
N_STEPS = 20
G = 0.5
SOFTENING = 0.5


def main():
    rng = np.random.default_rng(11)
    # A Plummer-ish clustered initial condition inside a 200-unit box.
    centers = 100.0 + rng.normal(scale=18.0, size=(N_BODIES, 3))
    velocities = rng.normal(scale=0.4, size=(N_BODIES, 3))
    masses = rng.uniform(0.5, 2.0, size=N_BODIES)

    # Each body's spatial extent is its interaction cut-off: two bodies
    # interact when their cut-off cubes overlap (§3.2: "the spatial
    # extent ... represents a region where an object might interact").
    dataset = SpatialDataset(
        centers,
        CUTOFF_RADIUS,
        bounds=(np.zeros(3), np.full(3, 200.0)),
        attributes={"mass": masses},
    )
    join = ThermalJoin()

    print(f"{'step':>4} {'pairs':>10} {'join [ms]':>10} {'kinetic E':>12} {'max |v|':>9}")
    for step in range(N_STEPS):
        result = join.step(dataset)
        i_idx, j_idx = result.pairs

        # Softened pairwise gravity over exactly the joined pairs.
        delta = dataset.centers[j_idx] - dataset.centers[i_idx]
        dist_sq = (delta * delta).sum(axis=1) + SOFTENING**2
        inv_r3 = dist_sq ** -1.5
        pull = G * delta * inv_r3[:, None]
        acceleration = np.zeros_like(dataset.centers)
        np.add.at(acceleration, i_idx, pull * masses[j_idx, None])
        np.add.at(acceleration, j_idx, -pull * masses[i_idx, None])

        # Leapfrog step with in-place position update (the simulation
        # side of the paper's contract).
        velocities += acceleration * DT
        dataset.translate(velocities * DT)

        kinetic = 0.5 * float((masses * (velocities**2).sum(axis=1)).sum())
        if step % 2 == 0:
            print(
                f"{step:>4} {result.n_results:>10,} "
                f"{result.stats.total_seconds * 1e3:>10.1f} "
                f"{kinetic:>12.1f} {np.linalg.norm(velocities, axis=1).max():>9.2f}"
            )

    info = join.last_step_info
    print(
        f"\ntuner: converged={join.tuner.converged}, final r={join.current_resolution:.2f}, "
        f"grid cells={info['total_cells']}, gc runs={info['gc_runs']}"
    )


if __name__ == "__main__":
    main()
