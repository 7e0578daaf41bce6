"""Multiplayer-game visibility: the paper's non-scientific use case (§6.2).

"In multi-player games a cut-off radius (region of visibility) is
defined for all characters that are changing their location at discrete
intervals of time."  Each game tick, the self-join yields every pair of
characters that can see each other; the example maintains a per-player
visible-set and reports enter/leave events — the bookkeeping a game
server performs to decide which state updates to send to whom.

Run::

    python examples/game_visibility.py
"""

import numpy as np

from repro import RandomTranslation, SpatialDataset, ThermalJoin

N_PLAYERS = 3_000
VISIBILITY_RADIUS = 40.0
WORLD_SIDE = 500.0
SPEED_PER_TICK = 12.0
N_TICKS = 12


def main():
    rng = np.random.default_rng(99)
    positions = rng.uniform(0.0, WORLD_SIDE, size=(N_PLAYERS, 3))
    world = SpatialDataset(
        positions,
        VISIBILITY_RADIUS,  # the visibility cut-off as the object extent
        bounds=(np.zeros(3), np.full(3, WORLD_SIDE)),
    )
    movement = RandomTranslation(world, distance=SPEED_PER_TICK, seed=100)
    join = ThermalJoin()

    previous = np.empty(0, dtype=np.int64)
    print(f"{'tick':>4} {'visible pairs':>13} {'entered':>8} {'left':>6} {'join [ms]':>10}")
    for tick in range(N_TICKS):
        result = join.step(world)
        current = np.sort(result.keys)  # one packed key per visible pair
        entered = np.setdiff1d(current, previous, assume_unique=True)
        left = np.setdiff1d(previous, current, assume_unique=True)
        print(
            f"{tick:>4} {current.size:>13,} {entered.size:>8,} {left.size:>6,} "
            f"{result.stats.total_seconds * 1e3:>10.1f}"
        )
        previous = current
        movement.step(world)  # every character moves, every tick

    # Per-player fan-out: how many others each character currently sees.
    i_idx, j_idx = result.pairs
    fanout = np.bincount(i_idx, minlength=N_PLAYERS) + np.bincount(
        j_idx, minlength=N_PLAYERS
    )
    print(
        f"\nvisibility fan-out: mean={fanout.mean():.1f}, "
        f"p95={int(np.percentile(fanout, 95))}, max={fanout.max()}"
    )


if __name__ == "__main__":
    main()
