"""Model checkpointing: save/load trained models to a single ``.npz``.

The archive stores the parameter arrays plus a JSON header describing how
to rebuild the model (registry name, sizes, seed and model-specific
constructor options from :meth:`KGEModel.config_options`).

Durability: saves are atomic (write-temp → fsync → rename via
:mod:`repro.resilience.atomic`), and the header embeds a sha256 over the
parameter content.  :func:`load_model` re-verifies that digest and raises
:class:`~repro.resilience.CheckpointCorruptError` on any mismatch or
unreadable archive, so a truncated or bit-flipped checkpoint is detected
at read time instead of producing garbage embeddings.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..resilience import CheckpointCorruptError, atomic_savez, digest_arrays
from .base import KGEModel, create_model

__all__ = ["checkpoint_header", "save_model", "load_model"]

_HEADER_KEY = "__repro_header__"
_ZIP_MAGIC = b"PK\x03\x04"


def _read_archive(path: Path, with_state: bool) -> tuple[dict, dict]:
    """Decode a checkpoint's JSON header and, if asked, its parameters.

    Raises :class:`FileNotFoundError` for a missing file, plain
    :class:`ValueError` for a readable ``.npz`` without a repro header,
    and :class:`~repro.resilience.CheckpointCorruptError` for anything
    that is not an intact archive with a decodable header.
    """
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(_ZIP_MAGIC))
        if magic != _ZIP_MAGIC:
            # np.load would take a short or foreign file for a pickle and
            # raise an untyped ValueError; a torn write is still corruption.
            raise CheckpointCorruptError(
                f"unreadable checkpoint {path}: not a zip archive"
            )
        with np.load(path) as stored:
            if _HEADER_KEY not in stored.files:
                raise ValueError(
                    f"{path} is not a repro model checkpoint (missing header)"
                )
            # Materialise everything inside the try: zip CRC errors
            # surface lazily, on member access.
            header_bytes = bytes(stored[_HEADER_KEY].tobytes())
            state = {
                key: stored[key]
                for key in (stored.files if with_state else ())
                if key != _HEADER_KEY
            }
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError) as error:
        raise CheckpointCorruptError(
            f"unreadable checkpoint {path}: {error}"
        ) from error
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointCorruptError(
            f"corrupt checkpoint header in {path}: {error}"
        ) from error
    return header, state


def checkpoint_header(path: Path | str) -> dict:
    """Read just the JSON header of a checkpoint, without the parameters.

    The serve-layer model registry derives its config digest from this,
    so cataloguing hundreds of checkpoints stays cheap: only the small
    header member of the ``.npz`` archive is decompressed.
    """
    return _read_archive(Path(path), with_state=False)[0]


def save_model(model: KGEModel, path: Path | str, optimizer=None) -> None:
    """Serialise a model (architecture + parameters) to ``path``.

    The file is a standard ``.npz`` archive and can be inspected with
    ``numpy.load``.  The write is atomic: readers never observe a
    partially-written checkpoint, and a crash mid-save leaves any
    previous checkpoint at ``path`` intact.

    When checkpointing mid-training with a lazy sparse optimizer (SGD
    with momentum, Adam on row-sparse grads), pass the ``optimizer`` so
    deferred row updates are flushed before the parameters are read.
    """
    if optimizer is not None:
        optimizer.flush()
    payload = model.state_dict()
    if _HEADER_KEY in payload:
        raise ValueError(f"parameter name collides with header key {_HEADER_KEY!r}")
    header = {
        "model": model.model_name,
        "num_entities": model.num_entities,
        "num_relations": model.num_relations,
        "dim": model.dim,
        "seed": model.seed,
        "options": model.config_options(),
        "checksum": digest_arrays(payload),
    }
    payload[_HEADER_KEY] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    atomic_savez(Path(path), **payload)


def load_model(path: Path | str, verify: bool = True) -> KGEModel:
    """Rebuild a model saved with :func:`save_model` (evaluation mode).

    Raises :class:`~repro.resilience.CheckpointCorruptError` when the
    archive is unreadable (truncated zip, torn write), when the header
    carries no checksum, or when the stored parameter content no longer
    matches it; plain :class:`ValueError` when the file is a readable
    ``.npz`` that simply is not a repro checkpoint.  ``verify=False``
    skips the digest check (trusted input on a hot path).
    """
    header, state = _read_archive(Path(path), with_state=True)
    expected = header.get("checksum")
    if expected is None:
        raise CheckpointCorruptError(f"checkpoint header in {path} has no checksum")
    if verify:
        actual = digest_arrays(state)
        if actual != expected:
            raise CheckpointCorruptError(
                f"checksum mismatch in {path}: header says {expected[:12]}…, "
                f"content hashes to {actual[:12]}…"
            )

    model = create_model(
        header["model"],
        num_entities=header["num_entities"],
        num_relations=header["num_relations"],
        dim=header["dim"],
        seed=header["seed"],
        **header["options"],
    )
    model.load_state_dict(state)
    model.eval()
    return model
