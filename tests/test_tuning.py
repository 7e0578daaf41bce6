"""Unit tests for the hill-climbing resolution tuner."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HillClimbingTuner
from repro.core.tuning import R_MAX, R_MIN


def run_on_function(tuner, fn, n_steps=50):
    """Drive the tuner against a deterministic cost function."""
    for _ in range(n_steps):
        tuner.observe(fn(tuner.current_r))
        if tuner.converged:
            break
    return tuner


def run_with_rebuilds(tuner, fn, surcharge, n_steps=200):
    """Like :func:`run_on_function`, on a grid rebuilt at every new ``r``.

    The first observation after ``r`` moves costs ``surcharge`` more,
    as a THERMAL-JOIN step that creates every P-Grid cell does.
    Returns whether the last observation moved ``r``.
    """
    moved = True
    for _ in range(n_steps):
        moved = tuner.observe(fn(tuner.current_r) + (surcharge if moved else 0.0))
        if tuner.converged:
            break
    return moved


class TestValidation:
    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            HillClimbingTuner().observe(-1.0)


class TestClimbing:
    def test_starts_at_one(self):
        # The paper's protocol starts at r_1 = 1.
        assert HillClimbingTuner().current_r == 1.0

    def test_converges_on_convex_function(self):
        # Convex with minimum at 0.5 (the shape of the paper's Figure 6).
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.5) ** 2)
        assert tuner.converged
        assert tuner.current_r < 1.0  # moved toward the optimum

    def test_converges_quickly(self):
        # Paper: convergence typically within 6-8 time steps at 10%.
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.6) ** 2)
        assert tuner.tuning_steps <= 10

    def test_climbs_upward_when_optimum_above_one(self):
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 1.6) ** 2)
        assert tuner.converged
        assert tuner.current_r > 1.0

    def test_flat_function_converges_immediately(self):
        tuner = run_on_function(HillClimbingTuner(), lambda r: 42.0)
        assert tuner.converged
        assert tuner.tuning_steps <= 2

    def test_respects_bounds(self):
        tuner = HillClimbingTuner()
        run_on_function(tuner, lambda r: r)  # minimum at the lower bound
        assert all(R_MIN <= r <= R_MAX for r, _cost in tuner.history)

    def test_history_records_observations(self):
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + (r - 0.5) ** 2)
        assert len(tuner.history) == len(tuner.history)
        assert all(cost > 0 for _r, cost in tuner.history)

    def test_resolution_change_reported(self):
        tuner = HillClimbingTuner()
        changed = tuner.observe(100.0)  # first probe always moves
        assert changed
        assert tuner.current_r != 1.0


class TestDriftRetuning:
    def test_stable_cost_keeps_convergence(self):
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.8) ** 2)
        assert tuner.converged
        for _ in range(10):
            tuner.observe(10.0)
        assert tuner.converged
        assert tuner.retunes == 0

    def test_drift_triggers_retune(self):
        # Converge on one cost landscape...
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.8) ** 2)
        assert tuner.converged
        tuner.observe(10.0)  # the rebuild step at the best probe: no seed
        tuner.observe(10.0)
        # ...then the workload distribution changes: cost jumps > 10%.
        tuner.observe(25.0)
        assert not tuner.converged
        assert tuner.retunes == 1

    def test_retune_reconverges_on_new_landscape(self):
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.8) ** 2)
        tuner.observe(10.0)
        new_landscape = lambda r: 30 + 80 * (r - 1.2) ** 2  # noqa: E731
        tuner.observe(new_landscape(tuner.current_r))  # triggers retune
        run_on_function(tuner, new_landscape)
        assert tuner.converged

    def test_retune_returns_home_when_nothing_beats_it(self):
        """Regression: a drift-triggered exploration that finds nothing
        cheaper than the point it left must come back to it, not settle
        on a worse plateau (or the clamped boundary)."""
        # Converge at the optimum of a convex landscape...
        landscape = lambda r: 100 + 400 * (r - 1.0) ** 2  # noqa: E731
        tuner = run_on_function(HillClimbingTuner(), landscape)
        assert tuner.converged
        home = tuner.current_r
        tuner.observe(landscape(tuner.current_r))  # rebuild step: no seed
        tuner.observe(landscape(tuner.current_r))  # fresh reference
        # ...trigger a retune with a one-off 2x cost spike, then let the
        # (unchanged) landscape answer the exploration.
        tuner.observe(2.0 * landscape(tuner.current_r))
        assert tuner.retunes == 1
        for _ in range(40):
            tuner.observe(landscape(tuner.current_r))
            if tuner.converged:
                break
        assert tuner.converged
        assert landscape(tuner.current_r) <= 1.5 * landscape(home)

    def test_boundary_plateau_does_not_trap_the_climb(self):
        """Regression: a flat-looking stretch at the clamp must not be
        declared the optimum when a far better point was already seen."""
        # Cost rises steeply toward r_min: best is near the start.
        landscape = lambda r: 10.0 / r  # noqa: E731
        tuner = HillClimbingTuner()
        for _ in range(60):
            tuner.observe(landscape(tuner.current_r))
            if tuner.converged:
                break
        assert tuner.converged
        # 10/r: anything at the low clamp costs 50; the walk must settle
        # at least as cheap as its starting point (cost 10 at r = 1).
        assert landscape(tuner.current_r) <= 1.5 * landscape(1.0)

    def test_small_fluctuations_tolerated(self):
        # ±3% alternation keeps successive changes below the 10% threshold.
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.8) ** 2)
        base = 10.0
        for k in range(10):
            tuner.observe(base * (1.0 + 0.03 * (-1) ** k))
        assert tuner.retunes == 0

    def test_gradual_drift_triggers_retune(self):
        """Regression: Equation 2 compares against the *fixed* converged
        cost, not the previous step — a workload drifting 5% per step
        (always under the 10% threshold step-to-step) must still retune
        once the cumulative departure crosses the threshold."""
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.8) ** 2)
        assert tuner.converged
        cost = 10.0
        for _ in range(10):
            tuner.observe(cost)
            if tuner.retunes:
                break
            cost *= 1.05  # each step within threshold of the previous
        assert tuner.retunes >= 1
        # 1.05^2 = 1.1025 > 1.10: the third observation crosses Eq. 2.
        assert len(tuner.history) <= tuner.tuning_steps + 4

    def test_gradual_drift_downward_also_triggers(self):
        # Eq. 2 is two-sided: costs *improving* past the threshold also
        # signal a changed distribution worth re-tuning for.
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 50 * (r - 0.8) ** 2)
        cost = 10.0
        for _ in range(10):
            tuner.observe(cost)
            if tuner.retunes:
                break
            cost *= 0.94
        assert tuner.retunes >= 1

    def test_retune_after_drift_settles_no_worse(self):
        """After a gradual-drift retune the re-converged operating point
        must not be worse than the drifted landscape's value at the point
        the tuner left."""
        landscape = lambda r: 100 + 400 * (r - 1.0) ** 2  # noqa: E731
        tuner = run_on_function(HillClimbingTuner(), landscape)
        assert tuner.converged
        # The landscape inflates 5% per observation until the retune fires.
        scale = 1.0
        for _ in range(10):
            tuner.observe(scale * landscape(tuner.current_r))
            if tuner.retunes:
                break
            scale *= 1.05
        assert tuner.retunes == 1
        departure_cost = scale * landscape(tuner.current_r)
        # The inflation stops (new stable landscape); let it re-converge.
        for _ in range(40):
            tuner.observe(scale * landscape(tuner.current_r))
            if tuner.converged:
                break
        assert tuner.converged
        assert scale * landscape(tuner.current_r) <= departure_cost * 1.05

    def test_clamped_boundary_convergence_keeps_drift_watch(self):
        """Converging *on* a clamp bound must still arm Equation 2: the
        next big cost change at the boundary point re-triggers tuning."""
        landscape = lambda r: 10 + 50 * (r - 0.1) ** 2  # optimum below R_MIN  # noqa: E731
        tuner = HillClimbingTuner()
        for _ in range(60):
            tuner.observe(landscape(tuner.current_r))
            if tuner.converged:
                break
        assert tuner.converged
        assert R_MIN <= tuner.current_r <= R_MAX
        tuner.observe(landscape(tuner.current_r))  # seeds the reference
        tuner.observe(5.0 * landscape(tuner.current_r))
        assert tuner.retunes == 1


class TestSettlesAtBestProbe:
    """Equation 1 finalises at the cheapest probe, and the Equation 2
    reference is seeded only once the grid at ``r'`` is recycled."""

    def test_recorded_10k_probes_converge_at_the_best(self):
        # Operation costs of scaled_uniform(10_000, seed=1): r = 1.0 is
        # bracketed once 0.75 and 1.125 have both lost, and the vertex
        # of the parabola through the three predicts less than a 10%
        # gain, so the climb settles without probing 0.9375 or 1.03125.
        probes = {
            1.0: 2129203.5,
            0.75: 3340022.95,
            1.125: 2710549.2,
        }
        tuner = HillClimbingTuner()
        for _ in probes:
            tuner.observe(probes[tuner.current_r])
        assert [r for r, _cost in tuner.history] == list(probes)
        assert tuner.converged
        assert tuner.current_r == 1.0

    def test_rebuild_surcharge_does_not_seed_the_reference(self):
        # A V-shaped landscape converges by step underflow, moving back
        # to the best probe; the rebuild step there costs 20% more than
        # the recycled steps after it.
        landscape = lambda r: 100 + 1000 * abs(r - 0.5)  # noqa: E731
        tuner = HillClimbingTuner()
        moved = run_with_rebuilds(tuner, landscape, surcharge=20.0)
        assert tuner.converged
        for _ in range(20):
            moved = tuner.observe(landscape(tuner.current_r) + (20.0 if moved else 0.0))
        assert tuner.converged
        assert tuner.retunes == 0
        assert tuner.current_r == 0.5

    @pytest.mark.parametrize("optimum", [0.3, 0.5, 0.6, 0.8, 0.9, 1.0, 1.1, 1.4, 1.9])
    @pytest.mark.parametrize("curvature", [5, 50, 500, 2000])
    def test_settles_near_the_minimum_of_a_parabola(self, optimum, curvature):
        def landscape(r):
            return 10.0 + curvature * (r - optimum) ** 2

        tuner = run_on_function(HillClimbingTuner(), landscape)
        assert tuner.converged
        assert landscape(tuner.current_r) <= 1.05 * 10.0

    def test_vertex_probe_when_the_bracket_promises_a_gain(self):
        # 0.75 and 1.125 bracket r = 1.0; the parabola through the three
        # probes bottoms out at 0.9 with a cost more than 10% below the
        # best, so the climb probes 0.9 once and settles there.
        landscape = lambda r: 10 + 500 * (r - 0.9) ** 2  # noqa: E731
        tuner = run_on_function(HillClimbingTuner(), landscape)
        assert [r for r, _cost in tuner.history] == pytest.approx([1.0, 0.75, 1.125, 0.9])
        assert tuner.converged
        assert tuner.current_r == pytest.approx(0.9)

    def test_vertex_probe_that_loses_settles_at_the_best(self):
        # The bracket's parabola promises a gain the landscape does not
        # deliver: the climb returns to the best probe, without probing
        # anything after the vertex.
        costs = {1.0: 100.0, 0.75: 1000.0, 1.125: 111.0}
        tuner = HillClimbingTuner()
        for _ in range(3):
            tuner.observe(costs[tuner.current_r])
        vertex = tuner.current_r
        assert not tuner.converged and vertex not in costs
        assert tuner.observe(500.0)  # moves back to the best probe
        assert tuner.converged
        assert tuner.current_r == 1.0
        assert [r for r, _cost in tuner.history] == [1.0, 0.75, 1.125, vertex]

    @settings(max_examples=80, deadline=None)
    @given(
        base=st.floats(1.0, 1e6),
        curvature=st.floats(0.0, 1e6),
        slope=st.floats(0.0, 1e6),
        optimum=st.floats(0.0, 3.0),
        surcharge_share=st.floats(0.0, 1.0),
    )
    def test_converges_at_the_cheapest_probe_of_its_phase(
        self, base, curvature, slope, optimum, surcharge_share
    ):
        def landscape(r):
            return base + curvature * (r - optimum) ** 2 + slope * abs(r - optimum)

        surcharge = surcharge_share * base
        tuner = HillClimbingTuner()
        moved = run_with_rebuilds(tuner, landscape, surcharge)
        assert tuner.converged
        # Ties go to the first probe that reached the minimum.
        best_r, _best_cost = min(tuner.history, key=lambda probe: probe[1])
        assert tuner.current_r == best_r
        for _ in range(20):
            moved = tuner.observe(
                landscape(tuner.current_r) + (surcharge if moved else 0.0)
            )
        assert tuner.converged
        assert tuner.retunes == 0


class TestStateDict:
    def _mid_climb(self):
        # 0.75 lost against r = 1.0: the climb now walks up, with the
        # far side's loser remembered.
        tuner = HillClimbingTuner()
        tuner.observe(100.0)
        tuner.observe(150.0)
        return tuner

    def test_round_trips_the_far_side_loser(self):
        tuner = self._mid_climb()
        state = json.loads(json.dumps(tuner.state_dict()))
        assert state["lost"] == [0.75, 150.0]
        assert state["vertex_probe"] is False
        restored = HillClimbingTuner()
        restored.load_state_dict(state)
        assert restored.state_dict() == tuner.state_dict()

    def test_restored_climb_decides_like_the_original(self):
        landscape = lambda r: 10 + 500 * (r - 0.9) ** 2  # noqa: E731
        tuner = HillClimbingTuner()
        for _ in range(2):
            tuner.observe(landscape(tuner.current_r))
        restored = HillClimbingTuner()
        restored.load_state_dict(json.loads(json.dumps(tuner.state_dict())))
        for t in (tuner, restored):
            run_on_function(t, landscape)
        assert restored.history == tuner.history
        assert restored.current_r == tuner.current_r

    def test_converged_state_holds_no_climb(self):
        tuner = run_on_function(HillClimbingTuner(), lambda r: 10 + 500 * (r - 0.9) ** 2)
        assert tuner.converged
        state = tuner.state_dict()
        assert state["lost"] is None and state["vertex_probe"] is False
