"""Durable checkpoint/restore for long-running simulation runs.

The subsystem has three layers:

* :mod:`repro.recovery.atomic` — the sanctioned durable-write
  primitives (tmp + fsync + rename, and the record log's truncating
  append); repro-lint RPL501 forbids any other file write inside this
  package.
* :mod:`repro.recovery.checkpoint` — the versioned, checksummed
  manifest + ``.npz`` format over one append-only record log,
  keep-last-K retention and newest-valid-fallback loading.
* :mod:`repro.recovery.state` — codecs between live objects (dataset,
  motion model) and checkpoint (arrays, meta); the
  algorithm side of the protocol lives on
  :meth:`repro.joins.base.SpatialJoinAlgorithm.snapshot_state`.

The consumer is :class:`repro.simulation.SimulationRunner`
(``checkpoint_every=`` / ``checkpoint_dir=`` / ``resume()``); see
``docs/robustness.md``.
"""

from repro.recovery.atomic import atomic_write_bytes, write_json, write_npz
from repro.recovery.checkpoint import (
    FORMAT_VERSION,
    MANIFEST_FORMAT,
    Checkpoint,
    CheckpointError,
    CheckpointManager,
)
from repro.recovery.metrics import RecoveryMetrics
from repro.recovery.state import (
    restore_dataset,
    restore_motion,
    snapshot_dataset,
    snapshot_motion,
)

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_FORMAT",
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "RecoveryMetrics",
    "atomic_write_bytes",
    "restore_dataset",
    "restore_motion",
    "snapshot_dataset",
    "snapshot_motion",
    "write_json",
    "write_npz",
]
