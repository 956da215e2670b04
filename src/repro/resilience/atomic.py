"""Durable file writes: write-temp → flush → fsync → rename.

A crash mid-write must never leave a truncated
archive where a reader expects a checkpoint — PR 2 found every committed
``.model_cache`` archive corrupt for exactly this reason.  All binary
artefact writes in :mod:`repro.kge.checkpoint` and
:mod:`repro.experiments.runner` route through this module rather than a
plain ``open(path, "wb")``.

The content checksum helpers give readers end-to-end integrity checking
on top of the zip CRCs: :func:`digest_arrays` is embedded in checkpoint
headers at save time and re-verified at load time.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

__all__ = ["atomic_write", "atomic_write_bytes", "atomic_savez", "digest_arrays"]


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: Path | str) -> Iterator[Path]:
    """Yield a temp path next to ``path``; publish it atomically on success.

    The caller writes (and closes) the temp file inside the ``with``
    block.  On clean exit the temp file is fsynced and renamed over
    ``path`` via :func:`os.replace`, so concurrent readers only ever see
    the old complete file or the new complete file.  On exception the
    temp file is removed and ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        with open(tmp, "rb") as handle:
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_write(path) as tmp:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())


def atomic_savez(path: Path | str, **arrays: np.ndarray) -> None:
    """Atomic :func:`numpy.savez` — the sanctioned checkpoint writer.

    Writes through an open file handle so numpy cannot append an
    extension to the temp name, then flushes and publishes atomically.
    """
    with atomic_write(path) as tmp:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())


def digest_arrays(arrays: Mapping[str, np.ndarray]) -> str:
    """Order-independent sha256 over named arrays (dtype+shape+bytes).

    The digest covers the parameter *content*, not the zip container, so
    a checkpoint tampered with or silently bit-flipped after writing is
    caught even when the archive itself still unzips cleanly.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()
