"""Integer-encoded triple storage with fast batch membership tests.

A :class:`TripleSet` wraps an ``(M, 3)`` int64 array of ``(s, r, o)`` rows.
Membership queries — the hot operation of the fact-discovery algorithm,
which must filter candidate triples against the training graph — are served
by a sorted array of scalar keys ``(s * K + r) * N + o`` and
``numpy.searchsorted``, giving ``O(log M)`` per probe with no Python loops.

A set holds two read-only columns: the deduplicated triple array and the
sorted key index.  :meth:`TripleSet.persist` writes them into a
:class:`~repro.kg.storage.MmapBackend` store and
:meth:`TripleSet.from_backend` reopens them as zero-copy read-only mmap
views.

The key index also answers the filtered ranking protocol's lookup, which
entities complete ``(s, r, ?)``; a second sorted ``(r, o, s)`` key
column, built in memory on first use, answers ``(?, r, o)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .storage import MmapBackend

__all__ = ["TripleSet", "encode_keys"]

_TRIPLES_COL = "triples"
_KEYS_COL = "keys"


def encode_keys(
    triples: np.ndarray, num_entities: int, num_relations: int
) -> np.ndarray:
    """Encode ``(s, r, o)`` rows into unique scalar keys.

    The encoding is a mixed-radix number with radices ``(N·K, N)`` — it is
    injective as long as all ids are within range, which is validated by
    :class:`TripleSet`.
    """
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError(f"expected (M, 3) triples, got shape {triples.shape}")
    return (
        triples[:, 0] * np.int64(num_relations) + triples[:, 1]
    ) * np.int64(num_entities) + triples[:, 2]


class TripleSet:
    """An immutable set of knowledge-graph triples.

    Parameters
    ----------
    triples:
        ``(M, 3)`` integer array of ``(subject, relation, object)`` rows.
    num_entities, num_relations:
        Sizes of the id spaces; used for validation and key encoding.
    """

    def __init__(
        self,
        triples: np.ndarray | Iterable[tuple[int, int, int]],
        num_entities: int,
        num_relations: int,
    ) -> None:
        arr = np.asarray(list(triples) if not isinstance(triples, np.ndarray) else triples)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        arr = arr.astype(np.int64, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected (M, 3) triples, got shape {arr.shape}")
        if num_entities < 1 or num_relations < 1:
            raise ValueError("num_entities and num_relations must be >= 1")
        if arr.size:
            if arr.min() < 0:
                raise ValueError("triple ids must be non-negative")
            if arr[:, [0, 2]].max() >= num_entities:
                raise ValueError("entity id out of range")
            if arr[:, 1].max() >= num_relations:
                raise ValueError("relation id out of range")

        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)

        # Deduplicate: rows keep their first-occurrence order; keys are sorted.
        keys = encode_keys(arr, num_entities, num_relations)
        unique_keys, first = np.unique(keys, return_index=True)
        self._array = arr[np.sort(first)]
        self._sorted_keys = unique_keys
        self._array.setflags(write=False)
        self._sorted_keys.setflags(write=False)
        self._subject_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def persist(self, backend: MmapBackend, prefix: str = "") -> None:
        """Write the canonical columns into ``backend`` under ``prefix``.

        The rows are already deduplicated and the keys sorted, so
        :meth:`from_backend` can reopen them without re-validation.
        """
        backend.put(f"{prefix}{_TRIPLES_COL}", self._array)
        backend.put(f"{prefix}{_KEYS_COL}", self._sorted_keys)

    @classmethod
    def from_backend(
        cls,
        backend: MmapBackend,
        num_entities: int,
        num_relations: int,
        prefix: str = "",
    ) -> "TripleSet":
        """Reopen a persisted triple set without copying its columns.

        Trusts the canonical invariants established at persist time
        (deduplicated rows, sorted keys); only the cheap shape/id-space
        checks run.  The columns stay on disk and are paged in on demand.
        """
        if num_entities < 1 or num_relations < 1:
            raise ValueError("num_entities and num_relations must be >= 1")
        self = cls.__new__(cls)
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self._subject_keys = None
        arr = self._array = backend.get(f"{prefix}{_TRIPLES_COL}")
        try:
            self._sorted_keys = backend.get(f"{prefix}{_KEYS_COL}")
        except KeyError:
            # Stores written before the key column (or by hand) still
            # load; the index is rebuilt in memory.
            self._sorted_keys = np.sort(
                encode_keys(arr, self.num_entities, self.num_relations)
            )
            self._sorted_keys.setflags(write=False)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected (M, 3) triples, got shape {arr.shape}")
        if self._sorted_keys.shape != (arr.shape[0],):
            raise ValueError(
                f"key column shape {self._sorted_keys.shape} does not match "
                f"{arr.shape[0]} triples"
            )
        return self

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._array.shape[0]

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for row in self._array:
            yield (int(row[0]), int(row[1]), int(row[2]))

    def __contains__(self, triple: tuple[int, int, int]) -> bool:
        return bool(self.contains(np.asarray([triple]))[0])

    def __repr__(self) -> str:
        return (
            f"TripleSet(num_triples={len(self)}, "
            f"num_entities={self.num_entities}, num_relations={self.num_relations})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return (
            self.num_entities == other.num_entities
            and self.num_relations == other.num_relations
            and np.array_equal(self._sorted_keys, other._sorted_keys)
        )

    @property
    def array(self) -> np.ndarray:
        """The ``(M, 3)`` read-only triple array."""
        return self._array

    @property
    def subjects(self) -> np.ndarray:
        return self._array[:, 0]

    @property
    def relations(self) -> np.ndarray:
        return self._array[:, 1]

    @property
    def objects(self) -> np.ndarray:
        return self._array[:, 2]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, triples: np.ndarray) -> np.ndarray:
        """Vectorised membership test: boolean mask for ``(C, 3)`` rows."""
        triples = np.asarray(triples, dtype=np.int64)
        if triples.size == 0:
            return np.zeros(0, dtype=bool)
        return self.contains_keys(
            encode_keys(triples, self.num_entities, self.num_relations)
        )

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask for triples already encoded by :func:`encode_keys`.

        Callers that keep the keys of their rows probe with them directly
        instead of encoding the rows a second time.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if len(self) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(self._sorted_keys.searchsorted(keys), len(self) - 1)
        return self._sorted_keys[pos] == keys

    def by_relation(self, relation: int) -> np.ndarray:
        """All triples with the given relation id, as an ``(m, 3)`` array."""
        return self._array[self._array[:, 1] == relation]

    def unique_relations(self) -> np.ndarray:
        """Sorted array of relation ids appearing in this set."""
        return np.unique(self._array[:, 1])

    def unique_entities(self) -> np.ndarray:
        """Sorted array of entity ids appearing as subject or object."""
        return np.unique(self._array[:, [0, 2]])

    def known_entities(
        self, a: np.ndarray, b: np.ndarray, side: str = "object"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entities this set knows to complete each query, in CSR form.

        On the ``"object"`` side query ``i`` is ``(s, r) = (a[i], b[i])``
        and its entities are the objects of the ``(s, r, ?)`` triples; on
        the ``"subject"`` side it is ``(r, o)`` and they are the subjects
        of ``(?, r, o)``.  Returns ``(entities, starts, stops)``: query
        ``i``'s entities are ``entities[starts[i]:stops[i]]``, ascending,
        and an unknown query has an empty segment.

        Both sides read a sorted column of keys ``q·N + e``, where ``q``
        is the query's key and ``e < N`` the entity: each query is one
        contiguous run found by two binary searches, and each entity is
        its key modulo ``N``.  The object side's column is the
        membership index itself.
        """
        if side == "object":
            column, radix = self._sorted_keys, self.num_relations
        elif side == "subject":
            column, radix = self._subject_key_column(), self.num_entities
        else:
            raise ValueError(f"side must be 'object' or 'subject', got {side!r}")
        n = np.int64(self.num_entities)
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        base = (a * np.int64(radix) + b) * n
        first = column.searchsorted(base)
        lengths = column.searchsorted(base + n) - first
        stops = lengths.cumsum()
        starts = stops - lengths
        flat = np.arange(lengths.sum()) + np.repeat(first - starts, lengths)
        return column[flat] % n, starts, stops

    def _subject_key_column(self) -> np.ndarray:
        """Sorted ``(r·N + o)·N + s`` keys, built once on first use.

        The set is immutable, so threads that race to build the column
        build equal arrays and either assignment is correct.
        """
        if self._subject_keys is None:
            n = self.num_entities
            keys = np.sort(encode_keys(self._array[:, [1, 2, 0]], n, n))
            keys.setflags(write=False)
            self._subject_keys = keys
        return self._subject_keys

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def union(self, other: "TripleSet") -> "TripleSet":
        """Union of two triple sets over the same id spaces."""
        self._check_compatible(other)
        merged = np.concatenate([self._array, other._array], axis=0)
        return TripleSet(merged, self.num_entities, self.num_relations)

    def difference(self, other: "TripleSet") -> "TripleSet":
        """Triples in ``self`` that are not in ``other``."""
        self._check_compatible(other)
        mask = ~other.contains(self._array)
        return TripleSet(self._array[mask], self.num_entities, self.num_relations)

    def intersection(self, other: "TripleSet") -> "TripleSet":
        """Triples in both sets."""
        self._check_compatible(other)
        mask = other.contains(self._array)
        return TripleSet(self._array[mask], self.num_entities, self.num_relations)

    def _check_compatible(self, other: "TripleSet") -> None:
        if (
            self.num_entities != other.num_entities
            or self.num_relations != other.num_relations
        ):
            raise ValueError(
                "triple sets have incompatible id spaces: "
                f"({self.num_entities}, {self.num_relations}) vs "
                f"({other.num_entities}, {other.num_relations})"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def complement_size(self) -> int:
        """Number of triples in the complement graph, |E|²·|R| − |G|.

        This is the quantity from the paper's introduction that makes
        exhaustive fact discovery infeasible (533 × 10⁹ for YAGO3-10).
        """
        return self.num_entities**2 * self.num_relations - len(self)

    def density(self) -> float:
        """Fraction of all possible triples that are present."""
        return len(self) / (self.num_entities**2 * self.num_relations)

