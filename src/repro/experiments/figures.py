"""Per-figure experiment drivers: regenerate every figure of the paper.

Each ``figN`` function runs the corresponding experiment at a chosen
scale preset, prints the same series the paper plots, and returns the
structured results.  Results never aim to match the paper's absolute
wall-clock numbers (C++ at 10 M objects vs numpy-Python at 10 k–50 k);
the *shape* — who wins, by what factor, where trends bend — is the
reproduction target recorded in EXPERIMENTS.md.

Experiment index
----------------
======= ==========================================================
fig2    join time vs object volume, 8 static join methods (§3.3)
fig6    THERMAL-JOIN time vs P-Grid resolution r, 4 widths (§4.3.2)
fig7    full neural simulation: results/time/tests/memory per step
fig8    neural scalability vs dataset size and object extent
fig9    synthetic sensitivity sweeps (a–f)
fig10   THERMAL-JOIN phase breakdown and footprint vs r (§6.1)
speedups  headline speedup table (abstract's "8 to 12x")
tuning    hill-climbing convergence and drift re-tuning (§4.3.2)
ablations extension: design-choice ablations called out in DESIGN.md
======= ==========================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core import ThermalJoin
from repro.experiments.plots import render_chart
from repro.experiments.report import render_series_table, render_speedups, render_table
from repro.experiments.workloads import (
    SCALES,
    scaled_clustered,
    scaled_neural,
    scaled_uniform,
)
from repro.joins import (
    CRTreeJoin,
    EGOJoin,
    IndexedNestedLoopRTreeJoin,
    LooseOctreeJoin,
    MXCIFOctreeJoin,
    NestedLoopJoin,
    PBSMJoin,
    PlaneSweepJoin,
    ST2BJoin,
    SynchronousRTreeJoin,
    TouchJoin,
)
from repro.simulation import SimulationRunner, speedup_table

if TYPE_CHECKING:
    from collections.abc import Callable, Mapping, Sequence

    from repro.datasets import SpatialDataset
    from repro.datasets.motion import MotionModel
    from repro.engine import Executor

__all__ = [
    "ALGORITHM_FACTORIES",
    "FIG2_ALGORITHMS",
    "FIG7_ALGORITHMS",
    "FIG9_ALGORITHMS",
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "speedups",
    "tuning",
    "ablations",
]

#: name -> factory(count_only, executor) for every join algorithm in the
#: evaluation.  ``executor`` selects the engine's verify-stage executor
#: (None honours the ``REPRO_EXECUTOR`` environment default).
ALGORITHM_FACTORIES = {
    "nested-loop": lambda count_only=True, executor=None: NestedLoopJoin(
        count_only=count_only, executor=executor
    ),
    "plane-sweep": lambda count_only=True, executor=None: PlaneSweepJoin(
        count_only=count_only, executor=executor
    ),
    "pbsm": lambda count_only=True, executor=None: PBSMJoin(
        count_only=count_only, executor=executor
    ),
    "mxcif-octree": lambda count_only=True, executor=None: MXCIFOctreeJoin(
        count_only=count_only, executor=executor
    ),
    "loose-octree": lambda count_only=True, executor=None: LooseOctreeJoin(
        count_only=count_only, executor=executor
    ),
    "ego": lambda count_only=True, executor=None: EGOJoin(
        count_only=count_only, executor=executor
    ),
    "touch": lambda count_only=True, executor=None: TouchJoin(
        count_only=count_only, executor=executor
    ),
    "rtree-sync": lambda count_only=True, executor=None: SynchronousRTreeJoin(
        count_only=count_only, executor=executor
    ),
    "inl-rtree": lambda count_only=True, executor=None: IndexedNestedLoopRTreeJoin(
        count_only=count_only, executor=executor
    ),
    "st2b": lambda count_only=True, executor=None: ST2BJoin(
        count_only=count_only, executor=executor
    ),
    "cr-tree": lambda count_only=True, executor=None: CRTreeJoin(
        count_only=count_only, executor=executor
    ),
    # The tuner climbs on a deterministic operation count, so the chosen
    # resolution is the same on every run (the paper tunes on wall time
    # on a quiet dedicated box; the protocol is identical either way).
    "thermal-join": lambda count_only=True, executor=None: ThermalJoin(
        count_only=count_only, executor=executor
    ),
}

#: The eight existing methods of the motivation experiment (Figure 2).
FIG2_ALGORITHMS = [
    "cr-tree",
    "loose-octree",
    "ego",
    "touch",
    "pbsm",
    "mxcif-octree",
    "plane-sweep",
    "nested-loop",
]
#: Competitors of the full-simulation comparison (Figure 7).
FIG7_ALGORITHMS = ["ego", "touch", "cr-tree", "loose-octree", "thermal-join"]
#: Competitors of the synthetic sensitivity analysis (Figure 9).
FIG9_ALGORITHMS = ["loose-octree", "touch", "cr-tree", "thermal-join"]


def _simulate_matrix(
    workload_factory: Callable[[], tuple[SpatialDataset, MotionModel | None]],
    algorithms: Sequence[str],
    n_steps: int,
    time_budget: float | None,
    executor: Executor | str | None = None,
) -> dict[str, SimulationRunner]:
    """Run several algorithms over identical workload replays.

    ``workload_factory(seed_offset)`` must build a *fresh* (dataset,
    motion) pair so every algorithm sees the same motion sequence.
    ``executor`` is threaded into every algorithm factory, so one flag
    sweeps the whole comparison between serial and parallel execution.
    Returns ``{name: runner}``; runners that exhausted the budget carry
    ``timed_out=True`` and partial records, and runners whose step
    failed past executor recovery carry ``failed_step``/``failure``
    (both surfaced by :func:`_robustness_notes`).
    """
    runners = {}
    for name in algorithms:
        dataset, motion = workload_factory()
        runner = SimulationRunner(
            dataset,
            motion,
            ALGORITHM_FACTORIES[name](executor=executor),
            time_budget=time_budget,
        )
        runner.run(n_steps)
        runners[name] = runner
    return runners


def _total_or_none(runner: SimulationRunner) -> float | None:
    """Total join time, or None when the run timed out or failed (DNF)."""
    if runner.timed_out or runner.failed_step is not None:
        return None
    return runner.total_join_seconds()


def _robustness_notes(runners: Mapping[str, SimulationRunner]) -> list[str]:
    """Per-runner recovery/failure summary lines; empty when all clean.

    Degraded or retried steps still produce serial-identical results
    (the engine guarantees it), but a figure measured on a downgraded
    backend is not measuring the requested backend — so say so.
    """
    lines = []
    for name, runner in runners.items():
        if runner.failed_step is not None:
            line = (
                f"{name}: FAILED at step {runner.failed_step} "
                f"({runner.failure!r}); partial records"
            )
            if runner.failure_traceback:
                line += "\n" + runner.failure_traceback.rstrip()
            lines.append(line)
            continue
        retries = runner.total_task_retries()
        degraded = runner.degraded_steps()
        if retries or degraded:
            lines.append(
                f"{name}: {retries} task retries, "
                f"{len(degraded)} degraded steps {degraded}"
            )
    return lines


def _with_robustness(table: str, runners: Mapping[str, SimulationRunner]) -> str:
    """Append recovery notes to a rendered table when any occurred."""
    notes = _robustness_notes(runners)
    if notes:
        table += "\n\nRobustness: " + "; ".join(notes)
    return table


# ----------------------------------------------------------------------
# Figure 2 — motivation: join selectivity vs static join time
# ----------------------------------------------------------------------
def fig2(
    scale: str = "default",
    time_budget: float = 60.0,
    quiet: bool = False,
    executor: Executor | str | None = None,
) -> dict[str, Any]:
    """Self-join time of 8 existing methods vs object volume (Figure 2).

    One static time step over the neural dataset; the object volume
    sweeps 10–30 unit^3 as in the paper.
    """
    preset = SCALES[scale]
    volumes = [10.0, 15.0, 20.0, 25.0, 30.0]
    series = {name: [] for name in FIG2_ALGORITHMS}
    for volume in volumes:
        dataset, _motion, _labels = scaled_neural(
            preset["neural_n"], object_volume=volume, seed=2
        )
        for name in FIG2_ALGORITHMS:
            runner = SimulationRunner(
                dataset,
                None,
                ALGORITHM_FACTORIES[name](executor=executor),
                time_budget=time_budget,
            )
            runner.run(1)
            series[name].append(_total_or_none(runner))
    table = render_series_table(
        "volume", volumes, series,
        title=f"Figure 2 — static self-join time [s] vs object volume (n={preset['neural_n']})",
    )
    if not quiet:
        print(table)
    return {"x": volumes, "series": series, "table": table}


# ----------------------------------------------------------------------
# Figure 6 — convexity of F_t(r)
# ----------------------------------------------------------------------
def fig6(
    scale: str = "default", quiet: bool = False, executor: Executor | str | None = None
) -> dict[str, Any]:
    """THERMAL-JOIN join time vs P-Grid resolution r (Figure 6).

    Four uniform datasets with object widths 10/15/20/25; a static join
    at each fixed resolution exposes the convex cost function the hill
    climber descends.
    """
    preset = SCALES[scale]
    # 0.2 .. 1.2 (an r of 0.1 means ~1000 cells per largest object volume;
    # it is off the charts for every width, exactly as in the paper's plot).
    resolutions = [round(0.1 * k, 1) for k in range(2, 13)]
    widths = [10.0, 15.0, 20.0, 25.0]
    series = {}
    for width in widths:
        dataset, _motion = scaled_uniform(preset["uniform_n"], width=width, seed=3)
        label = f"width {width:g}"
        series[label] = []
        for r in resolutions:
            join = ThermalJoin(resolution=r, count_only=True, executor=executor)
            result = join.step(dataset)
            series[label].append(result.stats.total_seconds)
    table = render_series_table(
        "r", resolutions, series,
        title=f"Figure 6 — F_t(r): join time [s] vs resolution (n={preset['uniform_n']})",
    )
    chart = render_chart(
        resolutions, series, title="F_t(r) (chart)", y_label="join time [s]"
    )
    table = table + "\n\n" + chart
    if not quiet:
        print(table)
    return {"x": resolutions, "series": series, "table": table}


# ----------------------------------------------------------------------
# Figure 7 — full neural simulation
# ----------------------------------------------------------------------
def fig7(
    scale: str = "default",
    time_budget: float = 600.0,
    quiet: bool = False,
    executor: Executor | str | None = None,
) -> dict[str, Any]:
    """Full neural simulation over many steps (Figure 7a–d).

    Records per-step join results, join time, overlap tests and memory
    footprint for EGO, TOUCH, CR-Tree, Loose Octree and THERMAL-JOIN.
    """
    preset = SCALES[scale]
    n_steps = preset["fig7_steps"]

    def workload():
        dataset, motion, _labels = scaled_neural(preset["neural_n"], seed=7)
        return dataset, motion

    runners = _simulate_matrix(workload, FIG7_ALGORITHMS, n_steps, time_budget,
                               executor=executor)
    steps = list(range(n_steps))
    panels = {}
    for field, label in [
        ("n_results", "a) join results"),
        ("total_seconds", "b) join time [s]"),
        ("overlap_tests", "c) overlap tests"),
        ("memory_bytes", "d) memory [bytes]"),
    ]:
        panels[label] = {
            name: [getattr(rec, field) for rec in runner.records]
            for name, runner in runners.items()
        }
    tables = [
        render_series_table("step", steps, panel, title=f"Figure 7 {label} "
                            f"(neural, n={preset['neural_n']}, {n_steps} steps)")
        for label, panel in panels.items()
    ]
    tables.append(
        render_chart(
            steps,
            panels["b) join time [s]"],
            title="Figure 7b (chart)",
            y_label="join time per step [s]",
        )
    )
    table = _with_robustness("\n\n".join(tables), runners)
    if not quiet:
        print(table)
    totals = {name: _total_or_none(runner) for name, runner in runners.items()}
    # Per-step metrics-registry snapshots (tuner resolution, P-Grid cell
    # accounting, ...): the observability series external plots line up
    # against the cost panels; export.jsonable keeps them as-is.
    index_counters = {
        name: [rec.index_counters for rec in runner.records]
        for name, runner in runners.items()
    }
    return {"x": steps, "panels": panels, "totals": totals, "table": table,
            "index_counters": index_counters, "runners": runners}


# ----------------------------------------------------------------------
# Figure 8 — neural scalability
# ----------------------------------------------------------------------
def fig8(
    scale: str = "default",
    time_budget: float = 300.0,
    quiet: bool = False,
    executor: Executor | str | None = None,
) -> dict[str, Any]:
    """Neural scalability: join time vs dataset size and object extent
    (Figure 8a/b), short simulations as in the paper (10 steps there).

    Panel (a) grows the object count *inside a fixed tissue volume* —
    the paper adds neurons to the same space, raising density and
    selectivity together.  Panel (b) fixes the count and grows the
    object extent.
    """
    preset = SCALES[scale]
    n_steps = preset["fig8_steps"]
    sizes = list(preset["fig8_sizes"])
    # The tissue volume is fixed at the generator's default for the
    # *largest* dataset, so density (selectivity) grows with n toward the
    # calibrated neural regime exactly as the paper's panel (a)
    # prescribes (the paper adds neurons to the same space).
    fixed_side = max(20.0, 1.1 * max(sizes) ** (1.0 / 3.0))

    panel_a = {name: [] for name in FIG7_ALGORITHMS}
    for n in sizes:
        def workload(n=n):
            dataset, motion, _labels = scaled_neural(
                n, seed=8, domain_side=fixed_side
            )
            return dataset, motion

        runners = _simulate_matrix(workload, FIG7_ALGORITHMS, n_steps, time_budget,
                                   executor=executor)
        for name, runner in runners.items():
            panel_a[name].append(_total_or_none(runner))

    volumes = [10.0, 15.0, 20.0, 25.0]
    panel_b = {name: [] for name in FIG7_ALGORITHMS}
    for volume in volumes:
        def workload(volume=volume):
            dataset, motion, _labels = scaled_neural(
                preset["neural_n"], object_volume=volume, seed=9
            )
            return dataset, motion

        runners = _simulate_matrix(workload, FIG7_ALGORITHMS, n_steps, time_budget,
                                   executor=executor)
        for name, runner in runners.items():
            panel_b[name].append(_total_or_none(runner))

    table_a = render_series_table(
        "n", sizes, panel_a,
        title=f"Figure 8a — total join time [s] vs dataset size ({n_steps} steps, fixed volume)",
    )
    table_b = render_series_table(
        "volume", volumes, panel_b,
        title=f"Figure 8b — total join time [s] vs object extent (n={preset['neural_n']}, {n_steps} steps)",
    )
    chart_a = render_chart(
        sizes, panel_a, title="Figure 8a (chart)", y_label="total join time [s]"
    )
    table = table_a + "\n\n" + table_b + "\n\n" + chart_a
    if not quiet:
        print(table)
    return {
        "sizes": sizes,
        "volumes": volumes,
        "panel_a": panel_a,
        "panel_b": panel_b,
        "table": table,
    }


# ----------------------------------------------------------------------
# Figure 9 — synthetic sensitivity analysis
# ----------------------------------------------------------------------
def fig9(
    scale: str = "default",
    time_budget: float = 300.0,
    quiet: bool = False,
    executor: Executor | str | None = None,
) -> dict[str, Any]:
    """Synthetic sensitivity sweeps (Figure 9a–f).

    (a) dataset size, (b) object size, (c) object-width variation,
    (d) translation distance, (e) distribution skew, (f) cluster count.
    """
    preset = SCALES[scale]
    n_steps = preset["fig9_steps"]
    n_default = preset["uniform_n"]
    results = {}

    def run_panel(x_values, workload_for, label, x_label):
        panel = {name: [] for name in FIG9_ALGORITHMS}
        for x in x_values:
            runners = _simulate_matrix(
                lambda x=x: workload_for(x), FIG9_ALGORITHMS, n_steps, time_budget,
                executor=executor,
            )
            for name, runner in runners.items():
                panel[name].append(_total_or_none(runner))
        table = render_series_table(x_label, x_values, panel, title=label)
        results[label] = {"x": x_values, "series": panel, "table": table}
        return table

    tables = []
    tables.append(run_panel(
        list(preset["fig9_sizes"]),
        lambda n: scaled_uniform(n, seed=11),
        f"Figure 9a — total join time [s] vs dataset size ({n_steps} steps)",
        "n",
    ))
    tables.append(run_panel(
        [5.0, 10.0, 15.0, 20.0, 25.0],
        lambda w: scaled_uniform(n_default, width=w, seed=12),
        f"Figure 9b — vs object size (n={n_default})",
        "width",
    ))
    tables.append(run_panel(
        [0, 4, 8, 12, 16],
        lambda d: scaled_uniform(
            n_default,
            width_range=(15.0 - d / 2.0, 15.0 + d / 2.0) if d else None,
            width=15.0,
            seed=13,
        ),
        f"Figure 9c — vs object width difference (n={n_default})",
        "width diff",
    ))
    tables.append(run_panel(
        [5.0, 15.0, 25.0, 35.0, 45.0],
        lambda t: scaled_uniform(n_default, translation=t, seed=14),
        f"Figure 9d — vs translation per step (n={n_default})",
        "translation",
    ))
    n_clustered = preset["clustered_n"]
    tables.append(run_panel(
        [0.5, 0.75, 1.0, 1.25, 1.5],
        lambda sd: scaled_clustered(n_clustered, sd_factor=sd, seed=15)[:2],
        f"Figure 9e — vs distribution skew (n={n_clustered})",
        "sd factor",
    ))
    tables.append(run_panel(
        [1, 2, 3, 4, 5],
        lambda c: scaled_clustered(n_clustered, n_clusters=c, seed=16)[:2],
        f"Figure 9f — vs cluster count (n={n_clustered})",
        "clusters",
    ))
    table = "\n\n".join(tables)
    if not quiet:
        print(table)
    results["table"] = table
    return results


# ----------------------------------------------------------------------
# Figure 10 — THERMAL-JOIN internals
# ----------------------------------------------------------------------
def fig10(
    scale: str = "default", quiet: bool = False, executor: Executor | str | None = None
) -> dict[str, Any]:
    """Phase breakdown and footprint vs P-Grid resolution (Figure 10a/b)."""
    preset = SCALES[scale]
    dataset, _motion, _labels = scaled_neural(preset["neural_n"], seed=17)
    resolutions = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    breakdown = {"building": [], "internal": [], "external": []}
    footprint = []
    for r in resolutions:
        join = ThermalJoin(resolution=r, count_only=True, executor=executor)
        result = join.step(dataset)
        phases = result.stats.phase_seconds
        for phase in breakdown:
            breakdown[phase].append(phases.get(phase, 0.0))
        footprint.append(result.stats.memory_bytes)
    table_a = render_series_table(
        "r", resolutions, breakdown,
        title=f"Figure 10a — phase time [s] vs resolution (neural, n={preset['neural_n']})",
    )
    table_b = render_series_table(
        "r", resolutions, {"memory [bytes]": footprint},
        title="Figure 10b — P-Grid footprint vs resolution",
    )
    table = table_a + "\n\n" + table_b
    if not quiet:
        print(table)
    return {
        "x": resolutions,
        "breakdown": breakdown,
        "footprint": footprint,
        "table": table,
    }


# ----------------------------------------------------------------------
# Headline speedups
# ----------------------------------------------------------------------
def speedups(
    scale: str = "default",
    time_budget: float = 600.0,
    quiet: bool = False,
    executor: Executor | str | None = None,
) -> dict[str, Any]:
    """Total-time speedup of THERMAL-JOIN over each competitor (the
    abstract's 8–12x claim, measured on the neural simulation)."""
    preset = SCALES[scale]
    n_steps = preset["fig7_steps"]

    def workload():
        dataset, motion, _labels = scaled_neural(preset["neural_n"], seed=21)
        return dataset, motion

    runners = _simulate_matrix(workload, FIG7_ALGORITHMS, n_steps, time_budget,
                               executor=executor)
    records = {
        name: runner.records
        for name, runner in runners.items()
        if not runner.timed_out and runner.failed_step is None
    }
    table_data = speedup_table(records, "thermal-join")
    table = _with_robustness(
        render_speedups(
            table_data,
            title=f"Speedup of THERMAL-JOIN (neural, n={preset['neural_n']}, {n_steps} steps)",
        ),
        runners,
    )
    if not quiet:
        print(table)
    return {"speedups": table_data, "table": table}


# ----------------------------------------------------------------------
# Tuning behaviour
# ----------------------------------------------------------------------
def tuning(
    scale: str = "default", quiet: bool = False, executor: Executor | str | None = None
) -> dict[str, Any]:
    """Hill-climbing convergence on a live workload (§4.3.2 claims)."""
    preset = SCALES[scale]
    dataset, motion, _labels = scaled_neural(preset["neural_n"], seed=23)
    join = ThermalJoin(executor=executor)
    resolutions = []
    costs = []
    for _step in range(24):
        join.step(dataset)
        resolutions.append(join.tuner.history[-1][0])
        costs.append(join.tuner.history[-1][1])
        motion.step(dataset)
    rows = [
        (k, f"{resolutions[k]:.3f}", costs[k])
        for k in range(len(resolutions))
    ]
    table = render_table(
        ["step", "r", "cost (ops)"],
        rows,
        title="Tuning — hill-climbing trace (operations cost model)",
    )
    summary = (
        f"converged={join.tuner.converged} after {join.tuner.tuning_steps} tuning "
        f"steps, retunes={join.tuner.retunes}, final r={join.current_resolution:.3f}"
    )
    table = table + "\n" + summary
    if not quiet:
        print(table)
    return {
        "resolutions": resolutions,
        "costs": costs,
        "converged": join.tuner.converged,
        "tuning_steps": join.tuner.tuning_steps,
        "retunes": join.tuner.retunes,
        "table": table,
    }


# ----------------------------------------------------------------------
# Ablations (extensions beyond the paper's figures)
# ----------------------------------------------------------------------
def ablations(
    scale: str = "default", quiet: bool = False, executor: Executor | str | None = None
) -> dict[str, Any]:
    """Design-choice ablations: hot spots, enclosure shortcut,
    incremental maintenance, GC threshold (DESIGN.md §4).

    Each mechanism is measured on the workload — and by the metric — it
    targets: hot spots and the enclosure shortcut by the overlap tests
    they remove on a dense drifting cluster; incremental maintenance by
    the index-building time and cell churn it saves; garbage collection
    by the cell population it bounds.  Results are identical across all
    variants by construction (the oracle tests enforce it).
    """
    preset = SCALES[scale]
    n_steps = max(6, SCALES[scale]["fig8_steps"])
    n = preset["clustered_n"]
    variants = {
        "full": {},
        "no hot spots": {"hot_spots": False},
        "no enclosure shortcut": {"enclosure_shortcut": False},
        "rebuild each step": {"incremental": False},
        "gc off": {"gc_threshold": 1.0},
    }
    rows = []
    for label, kwargs in variants.items():
        dataset, motion, _labels = scaled_clustered(
            n, sd_factor=0.7, translation=25.0, seed=27
        )
        join = ThermalJoin(resolution=1.0, count_only=True, executor=executor, **kwargs)
        runner = SimulationRunner(dataset, motion, join)
        runner.run(n_steps)
        rows.append(
            (
                label,
                runner.total_join_seconds(),
                sum(record.build_seconds for record in runner.records),
                runner.total_overlap_tests(),
                join.pgrid.cells_created,
                join.pgrid.n_cells,
                runner.peak_memory_bytes(),
            )
        )
    table = render_table(
        [
            "variant",
            "total [s]",
            "build [s]",
            "overlap tests",
            "cells created",
            "cells end",
            "peak mem [B]",
        ],
        rows,
        title=(
            f"Ablations (drifting cluster, n={n}, {n_steps} steps, r=1): each "
            "mechanism vs the metric it targets"
        ),
    )
    if not quiet:
        print(table)
    return {"rows": rows, "table": table}
