"""Aggregated public API re-exports (loaded lazily by ``repro.__getattr__``).

Keeps ``import repro`` fast while letting users write
``from repro import ThermalJoin, SimulationRunner, CRTreeJoin``.
"""

from repro.analysis import (
    expected_cell_occupancy,
    expected_hot_spot_pair_fraction,
    expected_join_results,
    expected_partners_per_object,
    measured_selectivity,
)
from repro.datasets.io import load_dataset, save_dataset

from repro.core import (
    HillClimbingTuner,
    PGrid,
    TGrid,
    ThermalJoin,
)
from repro.engine import (
    Executor,
    JoinPlan,
    JoinTask,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    execute_step,
    resolve_executor,
)
from repro.index import BPlusTree
from repro.service import (
    JoinService,
    ServiceAnswer,
    ServiceOverloadedError,
    ShardRing,
)
from repro.joins import (
    CRTreeJoin,
    EGOJoin,
    IndexedNestedLoopRTreeJoin,
    JoinResult,
    JoinStatistics,
    LooseOctreeJoin,
    MXCIFOctreeJoin,
    NestedLoopJoin,
    PBSMJoin,
    PlaneSweepJoin,
    SpatialJoinAlgorithm,
    ST2BJoin,
    STRTree,
    SynchronousRTreeJoin,
    TouchJoin,
)
from repro.simulation import (
    SimulationRunner,
    StepRecord,
    converged_at,
    series,
    speedup,
    speedup_table,
)

__all__ = [
    "ThermalJoin",
    "PGrid",
    "TGrid",
    "HillClimbingTuner",
    "JoinResult",
    "JoinStatistics",
    "SpatialJoinAlgorithm",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "JoinPlan",
    "JoinTask",
    "execute_step",
    "NestedLoopJoin",
    "PlaneSweepJoin",
    "PBSMJoin",
    "EGOJoin",
    "MXCIFOctreeJoin",
    "LooseOctreeJoin",
    "STRTree",
    "SynchronousRTreeJoin",
    "CRTreeJoin",
    "TouchJoin",
    "IndexedNestedLoopRTreeJoin",
    "ST2BJoin",
    "BPlusTree",
    "JoinService",
    "ServiceAnswer",
    "ServiceOverloadedError",
    "ShardRing",
    "SimulationRunner",
    "StepRecord",
    "series",
    "speedup",
    "speedup_table",
    "converged_at",
    "expected_partners_per_object",
    "expected_join_results",
    "expected_cell_occupancy",
    "expected_hot_spot_pair_fraction",
    "measured_selectivity",
    "save_dataset",
    "load_dataset",
]
