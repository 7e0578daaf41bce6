"""Self-tuning of the P-Grid resolution (paper Section 4.3.2).

THERMAL-JOIN does not require the user to configure the grid: it tunes
the normalized resolution ``r`` (cell width as a fraction of the largest
object width) at runtime by hill climbing on the observed per-step join
cost ``F_t(r)``, which is convex in ``r`` with a workload-dependent
optimum (the paper's Figure 6).

The tuner follows the paper's protocol:

* start at ``r_1 = 1``;
* move ``r`` step-wise, keeping a move when the cost improved and
  reversing/halving the step otherwise;
* declare convergence when successive costs differ by no more than the
  threshold (Equation 1; the paper uses 10 % and observes convergence in
  6–8 time steps), and settle at the cheapest probe of the tuning
  phase — not at the last one, which Equation 1 only says is close;
* stop climbing as soon as the cheapest probe is bracketed — a probe on
  each side of it has lost — because on a convex cost no finer walk can
  find a point the bracket does not already enclose;
* before settling by either rule, probe once the vertex of the parabola
  through the last three probes, but only when it predicts a cost more
  than the threshold below the best: each probe is a full join step,
  and the probes on the fine side of ``r = 1`` cost the most;
* once converged, stop tuning but keep watching the cost at the chosen
  ``r'``; when it drifts by more than the threshold from the fixed
  converged-cost reference (Equation 2 — the workload's distribution
  changed), tuning restarts.  The reference is seeded by the first
  observation at ``r'`` whose grid was recycled, not rebuilt: every
  change of ``r`` rebuilds the P-Grid from scratch, and that step pays
  for creating every cell, so seeding from it would make the next
  recycled step read as a drift.  It is refreshed only on retune or
  re-convergence, so *cumulative* drift — e.g. 5 % per step, forever —
  re-triggers tuning once it passes the threshold, not just one-step
  jumps.

The cost signal is whatever the caller feeds :meth:`observe`.
:class:`~repro.core.thermal.ThermalJoin` feeds a deterministic,
machine-independent operation count, so the chosen ``r`` — and with it
every overlap-test count — is the same on every run and executor.  The
paper tunes on wall time; the protocol is the same either way.
"""

from __future__ import annotations

__all__ = ["HillClimbingTuner"]

#: Starting resolution (the paper starts at 1.0).
INITIAL = 1.0
#: First step size; halved on every direction reversal.
INITIAL_STEP = 0.25
#: Relative cost-change threshold for both convergence (Eq. 1) and
#: re-tune triggering (Eq. 2); the paper's 10 %.
THRESHOLD = 0.1
#: Hard bounds on the explored resolution.
R_MIN = 0.2
R_MAX = 2.0
#: Convergence is also declared when the step shrinks below this.
MIN_STEP = 0.02


class HillClimbingTuner:
    """Hill climber over the normalized P-Grid resolution ``r``.

    It takes no settings: the paper's point is that no parameter sweep
    is needed, so the climb's values are the module constants above.
    """

    def __init__(self) -> None:
        self.current_r = INITIAL
        self.converged = False
        #: (r, cost) pairs in observation order (diagnostics/Figure 6-style plots).
        self.history: list[tuple[float, float]] = []
        #: Number of observations consumed while actively tuning.
        self.tuning_steps = 0
        #: Number of times drift re-triggered tuning (Eq. 2).
        self.retunes = 0

        self._step = INITIAL_STEP
        self._direction = -1.0  # explore finer grids first (Fig. 6 optima sit below 1)
        self._prev_r: float | None = None
        self._prev_cost: float | None = None
        self._converged_cost: float | None = None
        self._best_r: float | None = None
        self._best_cost: float | None = None
        # Whether the last observation moved r: the next cost is then
        # measured on a grid rebuilt from scratch at the new r.
        self._moved = False
        # The nearest probe that lost on the far side of the best point
        # (opposite the climb's direction), as (r, cost); a loser on the
        # side the climb walks toward then brackets the best.
        self._lost: tuple[float, float] | None = None
        # Whether the current r is the vertex probe, after which the
        # climb settles.
        self._vertex_probe = False

    # ------------------------------------------------------------------
    def observe(self, cost: float) -> bool:
        """Feed the cost measured at :attr:`current_r`; may move ``r``.

        Returns True when the observation changed :attr:`current_r`
        (the caller must then rebuild the P-Grid from scratch, as the
        paper notes every resolution change requires).
        """
        if cost < 0:
            raise ValueError(f"cost must be non-negative, got {cost}")
        cost = float(cost)
        self.history.append((self.current_r, cost))
        if self.converged:
            self._moved = self._watch_for_drift(cost, rebuilt=self._moved)
        else:
            self._moved = self._climb(cost)
        return self._moved

    def _watch_for_drift(self, cost: float, rebuilt: bool) -> bool:
        """Equation 2: restart tuning on a significant cost change at r'.

        The reference is the first cost observed after (re)convergence
        on a recycled grid (``rebuilt`` is False: the previous observation
        left ``r`` where it was), and then stays **fixed** until the next
        retune or re-convergence refreshes it.  Comparing each step
        against the *previous* step instead would let a workload drifting
        just under the threshold per step drift forever without
        re-triggering tuning — Equation 2 measures departure from the
        converged operating point, not step-to-step noise.
        """
        reference = self._converged_cost
        if reference is None or reference == 0.0:
            # Fresh reference: the first recycled-grid observation at the
            # (newly) converged r seeds it — never a cost measured many
            # steps ago at a different r on a moving workload, and never
            # the rebuild step that moving to r' costs once.
            if not rebuilt:
                self._converged_cost = cost
            return False
        if abs(cost - reference) > THRESHOLD * reference:
            self.converged = False
            self.retunes += 1
            self._step = INITIAL_STEP
            self._prev_r = None
            self._prev_cost = None
            self._converged_cost = None
            # Seed the new phase's best with the point we are leaving:
            # if the exploration finds nothing cheaper than the drifted
            # cost here, the climb returns rather than settling worse.
            self._best_r = self.current_r
            self._best_cost = cost
            return self._propose(self.current_r + self._direction * self._step)
        return False

    def _climb(self, cost: float) -> bool:
        """One hill-climbing update (Equation 1 convergence test).

        The climb keeps the best ``(r, cost)`` seen in the current tuning
        phase; retreats aim at the best point rather than merely the
        previous one, so a walk that wandered into a bad region (or onto
        the clamped boundary) cannot settle there.  Once a probe on each
        side of the best has lost, the climb settles there, after at most
        one probe at the vertex of the parabola through the last three
        probes.
        """
        self.tuning_steps += 1
        if self._best_cost is None or cost < self._best_cost:
            self._best_r = self.current_r
            self._best_cost = cost
        assert self._best_r is not None and self._best_cost is not None

        if self._vertex_probe:
            # The vertex was the last probe of the phase.
            return self._finalize_at(self._best_r)

        if self._prev_r is None or self._prev_cost is None:
            # First probe: remember it and take the initial step.
            self._prev_r = self.current_r
            self._prev_cost = cost
            return self._propose(self.current_r + self._direction * self._step)

        relative_change = (
            abs(cost - self._prev_cost) / self._prev_cost
            if self._prev_cost > 0
            else 0.0
        )
        if relative_change <= THRESHOLD and cost <= 1.3 * self._best_cost:
            # Equation 1 — and the plateau is genuinely near the best
            # point seen, not a flat stretch of a bad region.  Settle at
            # the cheapest probe: the last one only came within the
            # threshold of its predecessor.
            return self._settle((self._prev_r, self._prev_cost), cost)

        if cost < self._prev_cost:
            # Improvement: keep walking the same direction.  The probe
            # just left behind is the nearest loser on the far side.
            self._lost = (self._prev_r, self._prev_cost)
            self._prev_r = self.current_r
            self._prev_cost = cost
            return self._propose(self.current_r + self._direction * self._step)

        # Worse: retreat toward the best point, reverse, halve the step.
        self._direction = -self._direction
        self._step /= 2.0
        if self._step < MIN_STEP:
            return self._finalize_at(self._best_r)
        if self._lost is not None:
            # A probe on each side of the best has lost: the best is
            # bracketed, and a finer walk would only re-probe inside it.
            return self._settle((self._prev_r, self._prev_cost), cost)
        self._lost = (self.current_r, cost)
        self._prev_r = self._best_r
        self._prev_cost = self._best_cost
        return self._propose(self._best_r + self._direction * self._step)

    def _settle(self, prev: tuple[float, float], cost: float) -> bool:
        """End the climb at the cheapest probe, or first probe the vertex.

        The vertex of the parabola through the last three probes (the
        far-side loser, ``prev`` and ``cost`` at the current ``r``) is
        probed once when it predicts a cost more than the threshold
        below the best; the observation after it settles.
        """
        assert self._best_r is not None and self._best_cost is not None
        if self._lost is not None:
            vertex = _parabola_vertex(self._lost, prev, (self.current_r, cost))
            if vertex is not None and vertex[1] < (1.0 - THRESHOLD) * self._best_cost:
                self._vertex_probe = True
                return self._propose(vertex[0])
        return self._finalize_at(self._best_r)

    def _finalize_at(self, r: float) -> bool:
        """Converge onto ``r``; the drift reference starts fresh."""
        # Mark converged *before* proposing: at a clamped boundary the
        # proposal is a no-op and must not re-enter the climbing logic.
        self.converged = True
        # The next observation (at the converged r) initialises the
        # Equation-2 reference; comparing against a cost measured at an
        # earlier time step of a moving workload triggers false drift.
        self._converged_cost = None
        self._lost = None
        self._vertex_probe = False
        return self._propose(r)

    def _propose(self, r: float) -> bool:
        """Clamp and adopt a new resolution; report whether it changed."""
        r = min(max(r, R_MIN), R_MAX)
        changed = abs(r - self.current_r) > 1e-12
        self.current_r = r
        if not changed and not self.converged:
            # Clamped onto the boundary we were already sitting on: the
            # climb cannot make progress in this direction.
            self._direction = -self._direction
            self._step /= 2.0
            if self._step < MIN_STEP:
                best = self._best_r if self._best_r is not None else self.current_r
                return self._finalize_at(best)
        return changed

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot of the full tuner state.

        Floats round-trip exactly through JSON (IEEE doubles), so a
        restored tuner makes bit-identical decisions from the same
        observation stream.
        """
        return {
            "current_r": self.current_r,
            "converged": self.converged,
            "history": [[r, cost] for r, cost in self.history],
            "tuning_steps": self.tuning_steps,
            "retunes": self.retunes,
            "step": self._step,
            "direction": self._direction,
            "prev_r": self._prev_r,
            "prev_cost": self._prev_cost,
            "converged_cost": self._converged_cost,
            "best_r": self._best_r,
            "best_cost": self._best_cost,
            "moved": self._moved,
            "lost": None if self._lost is None else list(self._lost),
            "vertex_probe": self._vertex_probe,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.current_r = float(state["current_r"])  # type: ignore[arg-type]
        self.converged = bool(state["converged"])
        self._moved = bool(state["moved"])
        self._vertex_probe = bool(state["vertex_probe"])
        lost = state["lost"]
        if lost is None:
            self._lost = None
        elif isinstance(lost, list) and len(lost) == 2:
            self._lost = (float(lost[0]), float(lost[1]))
        else:
            raise ValueError("tuner lost probe must be null or [r, cost]")
        history = state["history"]
        if not isinstance(history, list):
            raise ValueError("tuner history must be a list")
        self.history = [(float(r), float(cost)) for r, cost in history]
        self.tuning_steps = int(state["tuning_steps"])  # type: ignore[call-overload]
        self.retunes = int(state["retunes"])  # type: ignore[call-overload]
        self._step = float(state["step"])  # type: ignore[arg-type]
        self._direction = float(state["direction"])  # type: ignore[arg-type]
        for name in ("prev_r", "prev_cost", "converged_cost", "best_r", "best_cost"):
            value = state[name]
            setattr(self, f"_{name}", None if value is None else float(value))  # type: ignore[arg-type]

    def __repr__(self) -> str:
        state = "converged" if self.converged else "tuning"
        return f"HillClimbingTuner(r={self.current_r:.3f}, {state})"


def _parabola_vertex(*probes: tuple[float, float]) -> tuple[float, float] | None:
    """Vertex ``(r, cost)`` of the parabola through three ``(r, cost)``
    probes; ``None`` unless their ``r`` are distinct (a clamped probe
    repeats its ``r``) and the parabola is convex."""
    (a, fa), (b, fb), (c, fc) = sorted(probes)
    if not a < b < c:
        return None
    slope_left = (fb - fa) / (b - a)
    curvature = ((fc - fb) / (c - b) - slope_left) / (c - a)
    if curvature <= 0.0:
        return None
    slope = slope_left + curvature * (b - a)  # the parabola's slope at b
    return b - slope / (2.0 * curvature), fb - slope * slope / (4.0 * curvature)
