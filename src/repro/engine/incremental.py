"""Pair-set maintenance policy: when to patch instead of recompute.

An incremental step is :func:`repro.engine.engine.execute_step` run with
a :class:`~repro.datasets.delta.MotionDelta`: the algorithm's
``delta_plan`` emits re-verify tasks for the moved objects only and the
merge stage patches a :class:`~repro.geometry.pairs.MaintainedPairSet`
instead of materialising a from-scratch result.  This module holds the
policy around that step — the ``REPRO_INCREMENTAL`` opt-in and the
churn threshold.

:class:`ChurnPolicy` owns the incremental-versus-fallback decision.  In
the spirit of Kipf et al.'s adaptive geospatial joins (PAPERS.md), the
threshold is *observed*, not guessed: the policy watches the measured
cost of full joins and of incremental steps and moves the break-even
churn point toward ``full_cost / cost_per_unit_churn``.  Costs must be
deterministic signals (operation counts, not wall time) so the mode
decisions — and therefore the overlap-test accounting — replay
identically across executors and runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "INCREMENTAL_ENV_VAR",
    "incremental_from_env",
    "ChurnPolicy",
]

#: Environment variable that opts a run into pair-set maintenance when
#: the algorithm was constructed with ``pair_maintenance=None``.
INCREMENTAL_ENV_VAR = "REPRO_INCREMENTAL"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Bounds of the adaptive threshold and the weight of each new cost
#: observation in its exponential moving average.
CHURN_FLOOR = 0.02
CHURN_CEILING = 0.75
CHURN_EMA = 0.3


def incremental_from_env() -> bool:
    """Resolve the :data:`INCREMENTAL_ENV_VAR` opt-in (default off)."""
    return os.environ.get(INCREMENTAL_ENV_VAR, "").strip().lower() in _TRUTHY


@dataclass
class ChurnPolicy:
    """Observed, adaptive churn threshold for the fallback decision.

    A step is run incrementally when the delta's ``moved_fraction`` is
    at most :attr:`threshold`; otherwise the algorithm falls back to a
    full re-join.  With ``adaptive=True`` (default) the threshold is
    re-estimated from observed costs: if a full join costs ``C_full``
    and incremental steps cost ``C_incr(f) ≈ unit · f`` at moved
    fraction ``f``, the break-even point is ``C_full / unit``; the
    estimate is smoothed with an exponential moving average
    (:data:`CHURN_EMA`) and clipped to
    ``[CHURN_FLOOR, CHURN_CEILING]``.  Feed it deterministic cost signals
    (operation counts) — the decision sequence is then reproducible
    across executors, which the bit-identity tests rely on.

    ``ChurnPolicy(threshold=0.0, adaptive=False)`` forces a fallback on
    every step that moved anything — the forced-fallback configuration
    the bench and tests use.
    """

    threshold: float = 0.35
    adaptive: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        self._full_cost: float | None = None
        self._unit_cost: float | None = None

    def admits(self, moved_fraction: float) -> bool:
        """True when a step at ``moved_fraction`` should run incrementally."""
        return moved_fraction <= self.threshold

    def _smooth(self, old: float | None, value: float) -> float:
        if old is None:
            return value
        return (1.0 - CHURN_EMA) * old + CHURN_EMA * value

    def observe_full(self, cost: float) -> None:
        """Record the cost of one full re-join."""
        self._full_cost = self._smooth(self._full_cost, max(float(cost), 1.0))
        self._update()

    def observe_incremental(self, cost: float, moved_fraction: float) -> None:
        """Record the cost of one incremental step at ``moved_fraction``."""
        if moved_fraction <= 0.0:
            return  # a no-motion step carries no per-unit-churn signal
        unit = max(float(cost), 1.0) / moved_fraction
        self._unit_cost = self._smooth(self._unit_cost, unit)
        self._update()

    def _update(self) -> None:
        if not self.adaptive or self._full_cost is None or self._unit_cost is None:
            return
        break_even = self._full_cost / self._unit_cost
        self.threshold = float(min(max(break_even, CHURN_FLOOR), CHURN_CEILING))

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot of the adaptive state.

        ``adaptive`` comes back from the algorithm's configuration; only
        the observed estimates and the current threshold travel in the
        checkpoint.
        """
        return {
            "threshold": self.threshold,
            "full_cost": self._full_cost,
            "unit_cost": self._unit_cost,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.threshold = float(state["threshold"])  # type: ignore[arg-type]
        full_cost = state["full_cost"]
        unit_cost = state["unit_cost"]
        self._full_cost = None if full_cost is None else float(full_cost)  # type: ignore[arg-type]
        self._unit_cost = None if unit_cost is None else float(unit_cost)  # type: ignore[arg-type]

