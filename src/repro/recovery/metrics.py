"""Recovery counters, surfaced as the ``recovery`` metrics provider.

One :class:`RecoveryMetrics` instance lives on each checkpointing
:class:`~repro.simulation.SimulationRunner`; its :meth:`snapshot` is
registered with the algorithm's metrics registry so the counters land
in ``StepRecord.index_counters["recovery"]`` alongside the index and
executor counters.

The counters are deliberately *runner-local*, not process-global: a
resumed run legitimately differs from an uninterrupted one here
(``checkpoint_loads``), which is why the bit-identity test suite
compares trajectories with the ``recovery`` provider excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecoveryMetrics"]


@dataclass
class RecoveryMetrics:
    """Counters for the checkpoint/restore and escalation machinery."""

    #: Checkpoints durably committed by this runner.
    checkpoints_written: int = 0
    #: Total payload + record log + manifest bytes across those
    #: checkpoints.
    checkpoint_bytes: int = 0
    #: Wall seconds spent serializing + durably writing those checkpoints.
    checkpoint_seconds: float = 0.0
    #: Checkpoints successfully loaded (1 after a resume).
    checkpoint_loads: int = 0
    #: Corrupt/unreadable checkpoints skipped while falling back.
    corrupt_skipped: int = 0
    #: Steps retried from scratch after ``step_delta`` raised.
    step_retries: int = 0
    #: Steps that still failed after the from-scratch retry.
    escalations: int = 0

    def record_checkpoint(self, nbytes: int, seconds: float = 0.0) -> None:
        self.checkpoints_written += 1
        self.checkpoint_bytes += int(nbytes)
        self.checkpoint_seconds += float(seconds)

    def record_load(self, corrupt_skipped: int) -> None:
        self.checkpoint_loads += 1
        self.corrupt_skipped += int(corrupt_skipped)

    def record_step_retry(self) -> None:
        self.step_retries += 1

    def record_escalation(self) -> None:
        self.escalations += 1

    def snapshot(self) -> dict[str, int | float]:
        """Provider callable for the metrics registry."""
        return {
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_seconds": self.checkpoint_seconds,
            "checkpoint_loads": self.checkpoint_loads,
            "corrupt_skipped": self.corrupt_skipped,
            "step_retries": self.step_retries,
            "escalations": self.escalations,
        }
