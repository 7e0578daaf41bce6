"""THERMAL-JOIN core: P-Grid, T-Grid, hot spots, self-tuning."""

from repro.core.cells import (
    half_neighborhood_offsets,
    neighbor_pairs,
    pack_cell_ids,
    unpack_cell_ids,
)
from repro.core.pgrid import PGrid
from repro.core.tgrid import TGrid
from repro.core.thermal import ThermalJoin
from repro.core.tuning import HillClimbingTuner

__all__ = [
    "ThermalJoin",
    "PGrid",
    "TGrid",
    "HillClimbingTuner",
    "half_neighborhood_offsets",
    "neighbor_pairs",
    "pack_cell_ids",
    "unpack_cell_ids",
]
