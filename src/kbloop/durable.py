"""Durable file writes: a file replaced atomically, a line appended and synced."""

from __future__ import annotations

import os
from pathlib import Path


def _sync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path, write, sync: bool = True) -> None:
    """Replace ``path`` with what ``write(fh)`` writes to a binary file.

    The bytes go to a temporary file beside ``path``, are fsynced, and then
    the temporary file is renamed over ``path``; a crash leaves either the
    old file or the new one, never a partial one. The temporary name ends in
    the target's suffix, since ``np.savez`` appends ``.npz`` to a name that
    lacks it.

    With ``sync`` false nothing is fsynced: a process that stops partway
    still leaves the old file or the new one, an operating-system crash may not.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp{path.suffix}")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if sync:
        _sync_dir(path.parent)


def append_line(path, line: bytes) -> None:
    """Append ``line``, encoded bytes that end in their newline, to ``path``
    and fsync it."""
    with open(path, "ab") as fh:
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
