"""Versioned, checksummed checkpoints: manifest JSON + ``.npz`` payload.

A checkpoint for step ``k`` is two files in the checkpoint directory;
all checkpoints share one record log:

* ``step-%06d.npz`` — the payload: every resumable array (dataset SoA
  arrays, motion state, P-Grid structure).
* ``records.jsonl`` — the record log: one JSON line per completed step
  record, oldest first.  Each checkpoint appends the records completed
  since the previous one, so each record is written once, and a
  checkpoint's record list is a prefix of the log.
* ``step-%06d.json`` — the manifest: format marker + version, the step,
  the payload file name, a per-array ``{sha256, shape, dtype}`` table
  (checksummed over the raw array bytes), the log prefix it covers as
  ``{count, bytes, sha256}`` and the JSON-able meta tree (tuner/churn
  state, RNG state, ...).  Its size does not grow with the step count.

The payload and the log are written first, the manifest last — the
payload and manifest atomically via tmp + fsync + rename, the log by
:func:`~repro.recovery.atomic.append_at` — so the manifest's existence
*is* the commit point: a manifest never references bytes that were not
fully durable when the manifest appeared.  Each write first cuts the
log back to the prefix this manager last committed (written or
loaded), dropping whatever tail a crash or an abandoned newer
checkpoint left behind.  The manager keeps a running sha256 of its
prefix, so a write hashes only the bytes it appends.

Loading walks manifests newest-first and verifies every declared array
checksum and the hash of the declared log prefix (bytes past it are
not read); anything unreadable, mis-shaped or mismatched counts as one
corrupt skip and falls back to the next older checkpoint.  Retention
keeps the newest ``keep_last`` checkpoints and deletes the rest —
deletion needs no atomicity, a half-deleted checkpoint is just a
corrupt one and skipped like any other.  The log is never deleted, so
a directory holds ``2 * keep_last + 1`` files.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.recovery.atomic import append_at, write_json, write_npz

__all__ = ["Checkpoint", "CheckpointError", "CheckpointManager"]

#: Format marker every manifest must carry.
MANIFEST_FORMAT = "repro-checkpoint"
#: Current checkpoint format version.  Version 2 packs maintained pair
#: keys as ``(i << b) | j`` (version 1: ``i * n + j``), so a version-1
#: key array would be misread; the version check refuses it instead.
#: Version 3 drops the tuner's constants from its state and records the
#: memory quota and churn mode in THERMAL-JOIN's configuration.
#: Version 4 stores no maintained pair keys (a restore re-derives them)
#: and moves the step records into chained per-checkpoint segments.
#: Version 5 replaces the segments with one append-only record log.
FORMAT_VERSION = 5

#: The record log every checkpoint of a directory takes a prefix of.
RECORD_LOG = "records.jsonl"

_MANIFEST_RE = re.compile(r"^step-(\d{6,})\.json$")


class CheckpointError(RuntimeError):
    """No usable checkpoint could be loaded."""


class Checkpoint:
    """One verified, loaded checkpoint."""

    def __init__(
        self,
        step: int,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        path: Path,
        records: list[dict[str, Any]],
    ) -> None:
        self.step = step
        self.arrays = arrays
        self.meta = meta
        #: The manifest path this checkpoint was loaded from.
        self.path = path
        #: Every record of the checkpoint's verified log prefix, oldest
        #: first.
        self.records = records

    def __repr__(self) -> str:
        return f"Checkpoint(step={self.step}, arrays={len(self.arrays)})"


def _sha256(array: np.ndarray) -> str:
    """SHA-256 of the array's C-order bytes, as ``array.tobytes()`` holds them.

    A contiguous array is hashed through its buffer, without a copy;
    only a non-contiguous one is copied first.
    """
    return hashlib.sha256(np.ascontiguousarray(array).reshape(-1).view(np.uint8)).hexdigest()


class CheckpointManager:
    """Writes, verifies, retains and loads checkpoints in one directory."""

    def __init__(self, directory: str | os.PathLike[str], keep_last: int = 3) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be at least 1, got {keep_last}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = int(keep_last)
        #: ``{count, bytes, sha256}`` of the record-log prefix this
        #: manager last committed or loaded, and the running hash of
        #: that prefix; the next write appends after it.
        self._hash = hashlib.sha256()
        self._prefix: dict[str, Any] = {"count": 0, "bytes": 0, "sha256": self._hash.hexdigest()}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(
        self,
        step: int,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        records: Sequence[dict[str, Any]] = (),
    ) -> int:
        """Durably commit a checkpoint for ``step``; returns bytes written.

        ``records`` are the JSON-able records completed since the last
        checkpoint this manager wrote or loaded.  They are appended to
        the record log after that checkpoint's prefix, and the manifest
        names the longer prefix.
        """
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        payload_name = f"step-{step:06d}.npz"
        checksums = {
            name: {
                "sha256": _sha256(array),
                "shape": list(array.shape),
                "dtype": str(array.dtype),
            }
            for name, array in arrays.items()
        }
        nbytes = write_npz(self.directory / payload_name, arrays)
        lines = b"".join(
            json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
            for record in records
        )
        nbytes += append_at(self.directory / RECORD_LOG, self._prefix["bytes"], lines)
        running = self._hash.copy()
        running.update(lines)
        prefix = {
            "count": self._prefix["count"] + len(records),
            "bytes": self._prefix["bytes"] + len(lines),
            "sha256": running.hexdigest(),
        }
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": FORMAT_VERSION,
            "step": int(step),
            "payload": payload_name,
            "arrays": checksums,
            "records": prefix,
            "meta": meta,
        }
        nbytes += write_json(self.directory / f"step-{step:06d}.json", manifest)
        self._prefix, self._hash = prefix, running
        self._retain()
        return nbytes

    def _retain(self) -> None:
        """Delete everything but the newest ``keep_last`` checkpoints."""
        manifests = self.manifests()
        for path in manifests[: max(0, len(manifests) - self.keep_last)]:
            payload = path.with_suffix(".npz")
            # Payload first: if deletion dies between the two, the
            # leftover manifest fails verification and is skipped.
            payload.unlink(missing_ok=True)
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def manifests(self) -> list[Path]:
        """Manifest paths sorted by step, oldest first."""
        found = []
        for path in self.directory.iterdir():
            match = _MANIFEST_RE.match(path.name)
            if match is not None:
                found.append((int(match.group(1)), path))
        return [path for _step, path in sorted(found)]

    def _read_records(self, prefix: dict[str, Any]) -> tuple[list[dict[str, Any]], Any]:
        """The verified records of the log ``prefix`` plus its running hash."""
        path = self.directory / RECORD_LOG
        try:
            with open(path, "rb") as handle:
                data = handle.read(prefix["bytes"])
        except OSError as exc:
            raise CheckpointError(f"unreadable record log {path}: {exc}") from exc
        running = hashlib.sha256(data)
        if len(data) != prefix["bytes"] or running.hexdigest() != prefix["sha256"]:
            raise CheckpointError(
                f"the first {prefix['bytes']} bytes of {path} fail checksum verification"
            )
        records = [json.loads(line) for line in data.splitlines()]
        if len(records) != prefix["count"]:
            raise CheckpointError(
                f"{path} holds {len(records)} records in the prefix declared "
                f"to hold {prefix['count']}"
            )
        return records, running

    def load(self, manifest_path: Path) -> Checkpoint:
        """Load and verify one checkpoint; :class:`CheckpointError` if bad.

        Later writes append after the loaded checkpoint's log prefix.
        """
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable manifest {manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
            raise CheckpointError(f"{manifest_path} is not a checkpoint manifest")
        if manifest.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"{manifest_path} has unsupported format version "
                f"{manifest.get('version')!r}"
            )
        payload_path = self.directory / str(manifest["payload"])
        try:
            with np.load(payload_path, allow_pickle=False) as payload:
                arrays = {name: payload[name] for name in payload.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"unreadable payload {payload_path}: {exc}") from exc
        declared = manifest["arrays"]
        if set(declared) != set(arrays):
            raise CheckpointError(
                f"{payload_path} holds arrays {sorted(arrays)} but the "
                f"manifest declares {sorted(declared)}"
            )
        for name, expected in declared.items():
            array = arrays[name]
            if list(array.shape) != list(expected["shape"]) or str(
                array.dtype
            ) != str(expected["dtype"]):
                raise CheckpointError(
                    f"array {name!r} in {payload_path} has shape/dtype "
                    f"{array.shape}/{array.dtype}, manifest says "
                    f"{expected['shape']}/{expected['dtype']}"
                )
            if _sha256(array) != expected["sha256"]:
                raise CheckpointError(
                    f"array {name!r} in {payload_path} fails checksum "
                    "verification"
                )
        prefix = manifest["records"]
        records, self._hash = self._read_records(prefix)
        self._prefix = prefix
        return Checkpoint(
            step=int(manifest["step"]),
            arrays=arrays,
            meta=manifest["meta"],
            path=manifest_path,
            records=records,
        )

    def load_latest(self) -> tuple[Checkpoint, int]:
        """Newest valid checkpoint plus the number of corrupt ones skipped.

        Walks manifests newest-first so a corrupted (or torn) newest
        checkpoint degrades to the previous one instead of killing the
        resume.  Raises :class:`CheckpointError` when nothing loads.
        """
        manifests = self.manifests()
        if not manifests:
            raise CheckpointError(f"no checkpoints found in {self.directory}")
        skipped = 0
        errors: list[str] = []
        for path in reversed(manifests):
            try:
                return self.load(path), skipped
            except CheckpointError as exc:
                skipped += 1
                errors.append(str(exc))
        raise CheckpointError(
            f"all {skipped} checkpoints in {self.directory} are corrupt: "
            + "; ".join(errors)
        )
