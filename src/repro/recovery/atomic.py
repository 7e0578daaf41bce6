"""The sanctioned durable-write primitives of the recovery subsystem.

Every byte the checkpoint layer puts on disk flows through one commit
protocol (:func:`_commit`): the payload is written to a sibling
temporary file (the ``.npz`` streamed array by array, not assembled in
memory first), flushed and fsynced, then renamed over the final name
(``os.replace`` is atomic on POSIX), and finally the containing
directory is fsynced so the rename itself is durable.
A reader therefore either sees the complete previous file or the
complete new one — never a torn write — which is what lets the loader
treat any checksum mismatch as corruption rather than a race.

repro-lint rule RPL501 forbids any other file-write primitive inside
``repro/recovery/``; this module is the single exemption.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from typing import Any, BinaryIO

import numpy as np

__all__ = ["atomic_write_bytes", "write_json", "write_npz"]


def _commit(path: str | os.PathLike[str], write: Callable[[BinaryIO], object]) -> int:
    """Durably write what ``write`` puts into a handle, via tmp + fsync + rename.

    Returns the number of bytes written.  The temporary file lives in
    the same directory (``os.replace`` requires the same filesystem);
    a crash mid-write leaves at worst a stale ``*.tmp`` beside an
    intact previous version.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        write(handle)
        nbytes = handle.tell()
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.path.dirname(path) or "."
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return nbytes


def atomic_write_bytes(path: str | os.PathLike[str], data: bytes) -> int:
    """Durably write ``data`` at ``path``; returns the number of bytes written."""
    return _commit(path, lambda handle: handle.write(data))


def write_json(path: str | os.PathLike[str], document: dict[str, Any]) -> int:
    """Atomically write ``document`` as UTF-8 JSON; returns bytes written.

    Compact separators, no indentation: the manifest sits on the hot
    simulation loop and its dominant cost is serialization, not I/O.
    """
    data = json.dumps(document, separators=(",", ":")).encode("utf-8") + b"\n"
    return atomic_write_bytes(path, data)


def write_npz(path: str | os.PathLike[str], arrays: dict[str, np.ndarray]) -> int:
    """Atomically write ``arrays`` as an uncompressed ``.npz``.

    Uncompressed on purpose: checkpoints sit on the hot simulation loop
    and the ≤5 % overhead budget buys fsyncs, not deflate passes.  The
    archive is streamed into the temporary file, so no copy of the whole
    payload is built in memory; the bytes equal those ``np.savez``
    writes into a buffer.  Returns the number of bytes written.
    """
    return _commit(path, lambda handle: np.savez(handle, **arrays))
