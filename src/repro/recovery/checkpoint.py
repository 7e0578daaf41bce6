"""Versioned, checksummed checkpoints: manifest JSON + ``.npz`` payload.

A checkpoint for step ``k`` is two files in the checkpoint directory,
plus one record segment when it brings new records:

* ``step-%06d.npz`` — the payload: every resumable array (dataset SoA
  arrays, motion state, P-Grid structure).
* ``records-%06d.json`` — a record segment: the records completed since
  the previous checkpoint, plus the previous segment's file name and
  sha256.  Each record is written once; a checkpoint's full record list
  is the chain of segments ending at its own.
* ``step-%06d.json`` — the manifest: format marker + version, the step,
  the payload file name, a per-array ``{sha256, shape, dtype}`` table
  (checksummed over the raw array bytes), the newest segment as
  ``{file, sha256, count}`` and the JSON-able meta tree (tuner/churn
  state, RNG state, ...).  Its size does not grow with the step count.

The payload and the segment are written first, the manifest last — all
atomically via :mod:`repro.recovery.atomic` — so the manifest's
existence *is* the commit point: a manifest never references a file
that was not fully durable when the manifest appeared.

Loading walks manifests newest-first and verifies every declared array
checksum and every segment of the record chain; anything unreadable,
mis-shaped or mismatched counts as one corrupt skip and falls back to
the next older checkpoint.  Retention keeps the newest ``keep_last``
checkpoints and deletes the rest — deletion needs no atomicity, a
half-deleted checkpoint is just a corrupt one and skipped like any
other.  Segments are never deleted: every later chain shares them.
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

from repro.recovery.atomic import write_json, write_npz

__all__ = ["Checkpoint", "CheckpointError", "CheckpointManager"]

#: Format marker every manifest must carry.
MANIFEST_FORMAT = "repro-checkpoint"
#: Current checkpoint format version.  Version 2 packs maintained pair
#: keys as ``(i << b) | j`` (version 1: ``i * n + j``), so a version-1
#: key array would be misread; the version check refuses it instead.
#: Version 3 drops the tuner's constants from its state and records the
#: memory quota and churn mode in THERMAL-JOIN's configuration.
#: Version 4 stores no maintained pair keys (a restore re-derives them)
#: and moves the step records into the chained record segments.
FORMAT_VERSION = 4

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
        #: Every record of the checkpoint's verified segment chain, oldest
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
        #: ``{file, sha256, count}`` of the newest record segment this
        #: manager wrote or loaded; the next segment links to it.
        self._segment: dict[str, Any] | None = None

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
        checkpoint this manager wrote or loaded.  They go into a new
        segment linked to that checkpoint's; with none, the manifest
        points at the existing chain.
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
        segment = self._segment
        if records:
            name = f"records-{step:06d}.json"
            path = self.directory / name
            nbytes += write_json(path, {"previous": segment, "records": records})
            segment = {
                "file": name,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "count": len(records) + (0 if segment is None else segment["count"]),
            }
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": FORMAT_VERSION,
            "step": int(step),
            "payload": payload_name,
            "arrays": checksums,
            "records": segment,
            "meta": meta,
        }
        nbytes += write_json(self.directory / f"step-{step:06d}.json", manifest)
        self._segment = segment
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

    def _read_records(self, segment: dict[str, Any] | None) -> list[dict[str, Any]]:
        """The verified records of the chain ending at ``segment``, oldest first."""
        chain = []
        while segment is not None:
            path = self.directory / str(segment["file"])
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise CheckpointError(f"unreadable record segment {path}: {exc}") from exc
            if hashlib.sha256(data).hexdigest() != segment["sha256"]:
                raise CheckpointError(f"record segment {path} fails checksum verification")
            document = json.loads(data)
            chain.append(document["records"])
            segment = document["previous"]
        return [record for records in reversed(chain) for record in records]

    def load(self, manifest_path: Path) -> Checkpoint:
        """Load and verify one checkpoint; :class:`CheckpointError` if bad.

        Later writes continue the loaded checkpoint's record chain.
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
        segment = manifest["records"]
        records = self._read_records(segment)
        declared = 0 if segment is None else segment["count"]
        if len(records) != declared:
            raise CheckpointError(
                f"{manifest_path} declares {declared} records but its "
                f"segment chain holds {len(records)}"
            )
        self._segment = segment
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
