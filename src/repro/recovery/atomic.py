"""The sanctioned durable-write primitives of the recovery subsystem.

Payloads and manifests are *replaced* through one commit protocol
(:func:`_commit`): the bytes are written to a sibling temporary file
(the ``.npz`` streamed array by array, not assembled in memory first),
flushed and fsynced, then renamed over the final name (``os.replace``
is atomic on POSIX), and finally the containing directory is fsynced
so the rename itself is durable.  A reader therefore either sees the
complete previous file or the complete new one — never a torn write.

The record log is *appended* (:func:`append_at`): cut back to a
committed length, written after it, fsynced once.  An append can
tear, so it commits nothing by itself: the commit point is the
manifest replaced afterwards, which names the exact log prefix (length
and sha256) it covers.  Either way the loader can treat any checksum
mismatch as corruption rather than a race.

repro-lint rule RPL501 forbids any other file-write primitive inside
``repro/recovery/``; this module is the single exemption.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from typing import Any, BinaryIO

import numpy as np

__all__ = ["append_at", "atomic_write_bytes", "write_json", "write_npz"]


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
    _fsync_directory(path)
    return nbytes


def _fsync_directory(path: str) -> None:
    """Fsync the directory holding ``path`` so its entry is durable."""
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def append_at(path: str | os.PathLike[str], offset: int, data: bytes) -> int:
    """Durably write ``data`` at byte ``offset`` of ``path``, dropping what followed.

    Creates the file when missing.  Everything past ``offset`` (a tail
    a crash left behind) is truncated first, and the file is fsynced
    once after the write; a write at offset 0 fsyncs the directory too,
    so a new file's entry survives a crash.  A file shorter than
    ``offset`` has lost committed bytes and raises :class:`OSError`
    rather than being padded.  Returns the number of bytes written.
    """
    path = os.fspath(path)
    with open(path, "ab") as handle:
        if handle.tell() < offset:
            raise OSError(f"{path} is shorter than its committed {offset} bytes")
        handle.truncate(offset)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if offset == 0:
        _fsync_directory(path)
    return len(data)


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
