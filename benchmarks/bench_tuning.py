"""Benchmark for the self-tuning behaviour (§4.3.2, §5.1.2).

Times the tuned steady state against a deliberately bad fixed resolution
and asserts the paper's tuning claims: quick convergence (6–8 steps at
the 10 % threshold) and no need for a parameter sweep.
"""

from __future__ import annotations

from repro.core import ThermalJoin
from repro.experiments.workloads import scaled_neural

from conftest import NEURAL_N


def test_tuned_steady_state_step(benchmark):
    """Per-step time after the tuner has converged."""
    dataset, motion, _labels = scaled_neural(NEURAL_N, seed=601)
    join = ThermalJoin()
    for _ in range(12):  # warm up: let the tuner converge
        join.step(dataset)
        motion.step(dataset)

    def step():
        result = join.step(dataset)
        motion.step(dataset)
        return result

    result = benchmark(step)
    assert result.n_results > 0


def test_convergence_within_paper_budget():
    """Hill climbing settles in a handful of steps (paper: 6–8)."""
    dataset, motion, _labels = scaled_neural(NEURAL_N, seed=602)
    join = ThermalJoin()
    for _ in range(15):
        join.step(dataset)
        motion.step(dataset)
        if join.tuner.converged:
            break
    assert join.tuner.converged
    assert join.tuner.tuning_steps <= 12


def test_tuned_beats_bad_fixed_resolution():
    """Self-tuning removes the configuration burden: the converged grid
    is no slower (in machine-independent operations) than a deliberately
    mis-configured fine grid."""
    dataset, motion, _labels = scaled_neural(NEURAL_N, seed=603)
    tuned = ThermalJoin()
    for _ in range(12):
        tuned_result = tuned.step(dataset)
        motion.step(dataset)
    tuned_cost = tuned._operations_cost(tuned_result)

    bad = ThermalJoin(resolution=0.25, count_only=True)
    bad_result = bad.step(dataset)
    bad_cost = bad._operations_cost(bad_result)
    assert tuned_cost < bad_cost
