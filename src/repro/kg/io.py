"""Dataset I/O: TSV splits and binary mmap-backed KG stores.

Two on-disk layouts are supported:

* **TSV dataset directories** in the layout used by LibKGE-style
  benchmark datasets: ``train.txt`` / ``valid.txt`` / ``test.txt``, each
  a tab-separated file of ``subject<TAB>relation<TAB>object`` labels.
* **KG stores** — the binary substrate format behind the out-of-core
  path: one directory holding the canonical triple/key columns of every
  split as checksummed ``.npy`` files (see
  :class:`~repro.kg.storage.MmapBackend`), the vocabularies as label
  files, and a ``meta.json``.  :func:`load_kg_store` reopens a store as
  read-only memory-mapped views, so a million-triple graph loads in
  milliseconds; ``mmap=False`` copies the same store into RAM for
  backend-equivalence testing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..resilience.atomic import atomic_write_bytes
from .graph import KnowledgeGraph
from .storage import MmapBackend, StorageCorruptError
from .triples import TripleSet
from .vocabulary import Vocabulary

__all__ = [
    "read_triples_tsv",
    "write_triples_tsv",
    "load_dataset_dir",
    "save_dataset_dir",
    "save_kg_store",
    "finalize_kg_store",
    "load_kg_store",
    "kg_store_exists",
]

_SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


def read_triples_tsv(path: Path | str) -> list[tuple[str, str, str]]:
    """Read label triples from a tab-separated file.

    Blank lines are skipped; malformed lines raise ``ValueError`` with the
    offending line number.
    """
    triples: list[tuple[str, str, str]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            triples.append((parts[0], parts[1], parts[2]))
    return triples


def write_triples_tsv(
    path: Path | str, triples: list[tuple[str, str, str]]
) -> None:
    """Write label triples to a tab-separated file."""
    with open(path, "w", encoding="utf-8") as handle:
        for s, r, o in triples:
            handle.write(f"{s}\t{r}\t{o}\n")


def load_dataset_dir(directory: Path | str, name: str | None = None) -> KnowledgeGraph:
    """Load a dataset directory with train/valid/test TSV splits.

    Vocabularies are built from the union of all splits so that validation
    and test triples never contain unseen ids.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    splits = [read_triples_tsv(directory / fname) for fname in _SPLIT_FILES]

    entities = Vocabulary()
    relations = Vocabulary()
    for split in splits:
        for s, r, o in split:
            entities.add(s)
            relations.add(r)
            entities.add(o)

    def encode(split: list[tuple[str, str, str]]) -> np.ndarray:
        if not split:
            return np.zeros((0, 3), dtype=np.int64)
        return np.asarray(
            [
                (entities.id_of(s), relations.id_of(r), entities.id_of(o))
                for s, r, o in split
            ],
            dtype=np.int64,
        )

    n, k = len(entities), len(relations)
    train, valid, test = (TripleSet(encode(split), n, k) for split in splits)
    return KnowledgeGraph(
        name=name or directory.name,
        entities=entities,
        relations=relations,
        train=train,
        valid=valid,
        test=test,
    )


def save_dataset_dir(graph: KnowledgeGraph, directory: Path | str) -> None:
    """Write a knowledge graph to a dataset directory (three TSV splits)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, split in zip(_SPLIT_FILES, (graph.train, graph.valid, graph.test)):
        labelled = [graph.label_triple(t) for t in split]
        write_triples_tsv(directory / fname, labelled)


# ----------------------------------------------------------------------
# Binary KG stores (mmap substrate)
# ----------------------------------------------------------------------
_STORE_META = "meta.json"
_STORE_VERSION = 1
_SPLITS = ("train", "valid", "test")
_LABEL_FILES = {"entities": "entities.txt", "relations": "relations.txt"}


def _labels_digest(labels: list[str]) -> str:
    digest = hashlib.sha256()
    for label in labels:
        digest.update(label.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _write_labels(directory: Path, fname: str, labels: list[str]) -> str:
    for label in labels:
        if "\n" in label or "\r" in label:
            raise ValueError(f"label {label!r} contains a newline")
    atomic_write_bytes(
        directory / fname, ("\n".join(labels) + "\n").encode("utf-8")
    )
    return _labels_digest(labels)


def _read_labels(directory: Path, fname: str, expected_digest: str) -> list[str]:
    path = directory / fname
    text = path.read_text(encoding="utf-8")
    labels = text.split("\n")
    if labels and labels[-1] == "":
        labels.pop()
    if _labels_digest(labels) != expected_digest:
        raise StorageCorruptError(f"{path}: label digest mismatch")
    return labels


def _jsonify_metadata(metadata: dict, backend: MmapBackend) -> dict:
    """Store ndarray metadata values as backend columns, keep the rest."""
    out: dict = {}
    for key, value in metadata.items():
        if isinstance(value, np.ndarray):
            column = f"meta.{key}"
            backend.put(column, value)
            out[key] = {"__array__": column}
        elif isinstance(value, (np.integer, np.floating)):
            out[key] = value.item()
        else:
            out[key] = value
    return out


def _unjsonify_metadata(metadata: dict, backend: MmapBackend, mmap: bool) -> dict:
    out: dict = {}
    for key, value in metadata.items():
        if isinstance(value, dict) and set(value) == {"__array__"}:
            view = backend.get(value["__array__"])
            if not mmap:
                view = np.array(view)
                view.setflags(write=False)
            out[key] = view
        else:
            out[key] = value
    return out


def kg_store_exists(directory: Path | str) -> bool:
    """Whether ``directory`` looks like a complete KG store."""
    directory = Path(directory)
    return (directory / _STORE_META).is_file() and (
        directory / "manifest.json"
    ).is_file()


def save_kg_store(graph: KnowledgeGraph, directory: Path | str) -> Path:
    """Persist a knowledge graph as a checksummed mmap-ready store.

    Every split's canonical columns go through
    :meth:`TripleSet.persist`; vocabularies and JSON-safe metadata land
    in sidecar files, ndarray metadata (e.g. the generator's
    ``entity_types``) as further backend columns.  All writes are atomic
    (temp → fsync → rename), so a crash mid-save never leaves a store
    that :func:`load_kg_store` would accept.
    """
    directory = Path(directory)
    backend = MmapBackend(directory, mode="r+")
    for split_name, split in zip(
        _SPLITS, (graph.train, graph.valid, graph.test)
    ):
        split.persist(backend, prefix=f"{split_name}.")
    finalize_kg_store(backend, graph)
    return directory


def finalize_kg_store(backend: MmapBackend, graph: KnowledgeGraph) -> None:
    """Write the label files and ``meta.json`` that complete a store.

    Assumes the split columns are already in ``backend`` (either via
    :meth:`TripleSet.persist` or streamed through backend writers, as the
    streaming generator does).  ``meta.json`` is written last, so a store
    is only ever *complete* (see :func:`kg_store_exists`) once every
    column it references exists.
    """
    directory = backend.directory
    meta = {
        "format_version": _STORE_VERSION,
        "name": graph.name,
        "num_entities": graph.num_entities,
        "num_relations": graph.num_relations,
        "metadata": _jsonify_metadata(graph.metadata, backend),
        "labels": {
            "entities": _write_labels(
                directory, _LABEL_FILES["entities"], graph.entities.labels
            ),
            "relations": _write_labels(
                directory, _LABEL_FILES["relations"], graph.relations.labels
            ),
        },
    }
    atomic_write_bytes(
        directory / _STORE_META,
        (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )


def load_kg_store(
    directory: Path | str, mmap: bool = True, verify: bool = True
) -> KnowledgeGraph:
    """Load a KG store written by :func:`save_kg_store`.

    With ``mmap=True`` (default) the triple and key columns are
    read-only memory maps — nothing is copied into RAM.  ``mmap=False``
    copies every split and metadata array into RAM, still read-only
    (useful for backend-equivalence testing and for hot loops that want
    RAM residency).  ``verify`` re-checks the manifest's sha256 content
    digests on first access.
    """
    directory = Path(directory)
    meta_path = directory / _STORE_META
    if not meta_path.is_file():
        raise FileNotFoundError(f"not a KG store (no {_STORE_META}): {directory}")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("format_version") != _STORE_VERSION:
        raise StorageCorruptError(
            f"{meta_path}: unsupported store format_version "
            f"{meta.get('format_version')!r}"
        )
    backend = MmapBackend(directory, mode="r", verify=verify)
    n = int(meta["num_entities"])
    k = int(meta["num_relations"])
    splits = {
        split: TripleSet.from_backend(backend, n, k, prefix=f"{split}.")
        for split in _SPLITS
    }
    if not mmap:
        # The constructor copies the rows into RAM.
        splits = {
            name: TripleSet(split.array, n, k) for name, split in splits.items()
        }
    entities = Vocabulary(
        _read_labels(directory, _LABEL_FILES["entities"], meta["labels"]["entities"])
    )
    relations = Vocabulary(
        _read_labels(
            directory, _LABEL_FILES["relations"], meta["labels"]["relations"]
        )
    )
    return KnowledgeGraph(
        name=meta["name"],
        entities=entities,
        relations=relations,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
        metadata=_unjsonify_metadata(meta.get("metadata", {}), backend, mmap),
    )
