"""The on-disk column store behind the knowledge-graph substrate.

Every column a KG store persists — triple arrays, sorted membership
keys, entity-type vectors — is a named ``.npy`` file inside one store
directory, managed by :class:`MmapBackend`.  Writes go through the
atomic temp→fsync→rename discipline of :mod:`repro.resilience.atomic`;
reads come back as *read-only memory-mapped views*, so a million-triple
graph is paged in on demand instead of copied into RAM.  A
``manifest.json`` records a sha256 content digest (plus dtype and shape)
per array; digests are re-verified the first time each array is opened,
so a torn or bit-flipped column is a typed :class:`StorageCorruptError`
instead of silent garbage.

Large arrays can also be *streamed* into a store chunk-by-chunk via
:meth:`MmapBackend.writer`, which is how the streaming dataset
generators emit million-triple replicas under a bounded resident set:
the ``.npy`` header is patched with the final row count on close, and
the content digest is accumulated per chunk along the way.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from ..resilience.atomic import atomic_write, atomic_write_bytes

__all__ = [
    "MmapBackend",
    "ArrayWriter",
    "StorageCorruptError",
    "content_digest",
]

_MANIFEST_NAME = "manifest.json"
_FORMAT_VERSION = 1
#: Chunk size (bytes) for digest computation over mmap views.
_DIGEST_CHUNK = 4 << 20


class StorageCorruptError(RuntimeError):
    """A stored array failed its manifest checksum or shape check."""


def _content_digest_chunks(chunks: Iterator[np.ndarray], dtype: np.dtype) -> str:
    """sha256 over dtype + raw row bytes, accumulated chunk by chunk."""
    digest = hashlib.sha256()
    digest.update(str(np.dtype(dtype)).encode("utf-8"))
    for chunk in chunks:
        digest.update(np.ascontiguousarray(chunk).tobytes())
    return digest.hexdigest()


def content_digest(array: np.ndarray) -> str:
    """sha256 content digest of one array (dtype + bytes, shape-agnostic).

    Computed over bounded slices so a memory-mapped multi-gigabyte column
    never has to be resident all at once.
    """
    array = np.asarray(array)
    flat = array.reshape(-1)
    step = max(1, _DIGEST_CHUNK // max(array.itemsize, 1))
    return _content_digest_chunks(
        (flat[i : i + step] for i in range(0, flat.shape[0], step)), array.dtype
    )


#: Fixed-size .npy v1 header: magic(6) + version(2) + hlen(2) + body.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_HEADER_TOTAL = 128


def _npy_header_bytes(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    """A v1 ``.npy`` header padded to exactly 128 bytes.

    The fixed size is what lets a streaming writer patch the true row
    count over the placeholder shape on close without moving the data.
    """
    descr = np.lib.format.dtype_to_descr(dtype)
    shape_repr = "(" + ", ".join(str(int(d)) for d in shape) + ("," if len(shape) == 1 else "") + ")"
    body = (
        "{'descr': %r, 'fortran_order': False, 'shape': %s, }"
        % (descr, shape_repr)
    ).encode("latin1")
    pad = _NPY_HEADER_TOTAL - len(_NPY_MAGIC) - 2 - len(body) - 1
    if pad < 0:
        raise ValueError(f"npy header too large for fixed 128-byte slot: {shape}")
    header = body + b" " * pad + b"\n"
    return _NPY_MAGIC + len(header).to_bytes(2, "little") + header


class ArrayWriter:
    """Chunk-by-chunk column writer returned by :meth:`MmapBackend.writer`.

    Usage::

        with backend.writer("train.triples", np.int64, columns=3) as w:
            for chunk in chunks:          # (m, 3) arrays
                w.append(chunk)

    Chunks stream straight into a temp ``.npy`` file and into the
    content digest; on close the header is patched with the final row
    count and the file is published atomically.  An exception inside
    the ``with`` block discards the temp file and publishes nothing.
    """

    def __init__(self, backend: "MmapBackend", name: str, dtype, columns) -> None:
        self.dtype = np.dtype(dtype)
        self.columns = columns
        self.rows = 0
        self._closed = False
        self._backend = backend
        self._name = name
        self._path = backend._array_path(name)
        self._tmp = self._path.with_name(f"{self._path.name}.{os.getpid()}.tmp")
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self._tmp, "wb")
        placeholder = (0,) if columns is None else (0, columns)
        self._handle.write(_npy_header_bytes(self.dtype, placeholder))
        self._digest = hashlib.sha256()
        self._digest.update(str(self.dtype).encode("utf-8"))

    def append(self, chunk: np.ndarray) -> None:
        chunk = np.asarray(chunk, dtype=self.dtype)
        if self.columns is None:
            if chunk.ndim != 1:
                raise ValueError(f"expected 1-D chunk, got shape {chunk.shape}")
        else:
            if chunk.ndim != 2 or chunk.shape[1] != self.columns:
                raise ValueError(
                    f"expected (m, {self.columns}) chunk, got shape {chunk.shape}"
                )
        if chunk.shape[0]:
            data = np.ascontiguousarray(chunk).tobytes()
            self._handle.write(data)
            self._digest.update(data)
            self.rows += chunk.shape[0]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        shape = (self.rows,) if self.columns is None else (self.rows, self.columns)
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(_npy_header_bytes(self.dtype, shape))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self._tmp, self._path)
        self._backend._register(
            self._name, self._digest.hexdigest(), self.dtype, shape
        )

    def __enter__(self) -> "ArrayWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            return
        self._closed = True
        try:
            self._handle.close()
        finally:
            self._tmp.unlink(missing_ok=True)


class MmapBackend:
    """``.npy`` columns in a store directory, read as read-only mmaps.

    Parameters
    ----------
    directory:
        The store directory; created on first write.
    mode:
        ``"r"`` opens an existing store read-only (missing directory is
        an error); ``"r+"`` (default) also allows writes.
    verify:
        Re-check each array's sha256 content digest against the manifest
        the first time it is opened in this backend instance.
    """

    def __init__(
        self, directory: Path | str, mode: str = "r+", verify: bool = True
    ) -> None:
        if mode not in ("r", "r+"):
            raise ValueError(f"mode must be 'r' or 'r+', got {mode!r}")
        self.directory = Path(directory)
        self.mode = mode
        self.verify = verify
        self._verified: set[str] = set()
        self._views: dict[str, np.ndarray] = {}
        if mode == "r" and not self.directory.is_dir():
            raise FileNotFoundError(f"store directory not found: {self.directory}")
        self._manifest = self._load_manifest()

    # -- manifest ------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    def _load_manifest(self) -> dict:
        path = self._manifest_path()
        if not path.exists():
            return {"format_version": _FORMAT_VERSION, "arrays": {}}
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        version = manifest.get("format_version")
        if version != _FORMAT_VERSION:
            raise StorageCorruptError(
                f"{path}: unsupported store format_version {version!r}"
            )
        return manifest

    def _save_manifest(self) -> None:
        atomic_write_bytes(
            self._manifest_path(),
            (json.dumps(self._manifest, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )

    def _register(self, name: str, digest: str, dtype, shape: tuple[int, ...]) -> None:
        self._manifest["arrays"][name] = {
            "sha256": digest,
            "dtype": str(np.dtype(dtype)),
            "shape": list(int(d) for d in shape),
        }
        self._save_manifest()
        self._verified.add(name)
        self._views.pop(name, None)

    def _array_path(self, name: str) -> Path:
        if "/" in name or "\\" in name or name.startswith("."):
            raise ValueError(f"invalid array name {name!r}")
        return self.directory / f"{name}.npy"

    # -- array API -----------------------------------------------------
    def get(self, name: str) -> np.ndarray:
        """Read-only mmap view of the named array; ``KeyError`` if missing."""
        view = self._views.get(name)
        if view is not None:
            return view
        entry = self._manifest["arrays"].get(name)
        if entry is None:
            raise KeyError(name)
        path = self._array_path(name)
        try:
            view = np.load(path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise StorageCorruptError(f"{path}: unreadable array: {exc}") from exc
        expected_shape = tuple(entry["shape"])
        if view.shape != expected_shape or str(view.dtype) != entry["dtype"]:
            raise StorageCorruptError(
                f"{path}: manifest says {entry['dtype']}{expected_shape}, "
                f"file has {view.dtype}{view.shape}"
            )
        if self.verify and name not in self._verified:
            actual = content_digest(view)
            if actual != entry["sha256"]:
                raise StorageCorruptError(
                    f"{path}: content digest mismatch "
                    f"(manifest {entry['sha256'][:12]}…, file {actual[:12]}…)"
                )
            self._verified.add(name)
        self._views[name] = view
        return view

    def put(self, name: str, array: np.ndarray) -> None:
        """Store (replace) the named array atomically."""
        self._check_writable()
        array = np.ascontiguousarray(array)
        path = self._array_path(name)
        with atomic_write(path) as tmp:
            with open(tmp, "wb") as handle:
                np.save(handle, array)
                handle.flush()
                os.fsync(handle.fileno())
        self._register(name, content_digest(array), array.dtype, array.shape)

    def writer(self, name: str, dtype, columns: int | None = None) -> ArrayWriter:
        """Open a chunked writer for the named array.

        ``columns=None`` streams a 1-D array; an integer streams a 2-D
        ``(rows, columns)`` array.
        """
        self._check_writable()
        return ArrayWriter(self, name, dtype, columns)

    def names(self) -> list[str]:
        """Sorted names of the stored arrays."""
        return sorted(self._manifest["arrays"])

    def __contains__(self, name: str) -> bool:
        return name in self._manifest["arrays"]

    def close(self) -> None:
        # Views are plain mmap objects collected with the arrays; drop
        # our references so the maps can be released promptly.
        self._views.clear()

    def _check_writable(self) -> None:
        if self.mode == "r":
            raise PermissionError(
                f"store {self.directory} was opened read-only (mode='r')"
            )

    def __repr__(self) -> str:
        return (
            f"MmapBackend(directory={str(self.directory)!r}, mode={self.mode!r}, "
            f"arrays={len(self._manifest['arrays'])})"
        )
