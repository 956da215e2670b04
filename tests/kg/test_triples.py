"""Unit and property tests for the integer triple store."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kg import KGProfile, MmapBackend, TripleSet, encode_keys, generate_kg
from repro.kge.evaluation import _filter_index

from ..helpers import run_in_threads


def make(triples, n=10, k=3) -> TripleSet:
    return TripleSet(np.asarray(triples, dtype=np.int64), n, k)


class TestConstruction:
    def test_basic(self):
        ts = make([[0, 0, 1], [1, 1, 2]])
        assert len(ts) == 2
        assert ts.num_entities == 10
        assert ts.num_relations == 3

    def test_deduplicates(self):
        ts = make([[0, 0, 1], [0, 0, 1], [1, 0, 2]])
        assert len(ts) == 2

    def test_empty(self):
        ts = make([])
        assert len(ts) == 0
        assert ts.contains(np.zeros((0, 3))).shape == (0,)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            TripleSet(np.zeros((2, 2)), 5, 2)

    def test_rejects_out_of_range_entity(self):
        with pytest.raises(ValueError, match="entity id"):
            make([[0, 0, 99]])

    def test_rejects_out_of_range_relation(self):
        with pytest.raises(ValueError, match="relation id"):
            make([[0, 9, 1]])

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            make([[-1, 0, 1]])

    def test_rejects_empty_id_space(self):
        with pytest.raises(ValueError):
            TripleSet(np.zeros((0, 3)), 0, 1)

    def test_array_is_readonly(self):
        ts = make([[0, 0, 1]])
        with pytest.raises(ValueError):
            ts.array[0, 0] = 5

    def test_leaves_the_callers_array_writable_and_unshared(self):
        rows = np.asarray([[1, 0, 2], [0, 0, 1]], dtype=np.int64)
        ts = TripleSet(rows, 10, 3)
        assert rows.flags.writeable
        rows[0, 0] = 9
        assert ts.array.tolist() == [[1, 0, 2], [0, 0, 1]]
        assert (1, 0, 2) in ts and (9, 0, 2) not in ts

    def test_accepts_iterable_of_tuples(self):
        ts = TripleSet([(0, 0, 1), (1, 1, 2)], 5, 2)
        assert len(ts) == 2


class TestQueries:
    def test_contains_single(self):
        ts = make([[0, 0, 1], [1, 1, 2]])
        assert (0, 0, 1) in ts
        assert (0, 0, 2) not in ts

    def test_contains_batch(self):
        ts = make([[0, 0, 1], [1, 1, 2]])
        mask = ts.contains(np.asarray([[0, 0, 1], [5, 2, 5], [1, 1, 2]]))
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_contains_on_empty_set(self):
        ts = make([])
        mask = ts.contains(np.asarray([[0, 0, 1]]))
        np.testing.assert_array_equal(mask, [False])
        assert ts.contains_keys(np.asarray([0, 7])).tolist() == [False, False]

    def test_contains_keys_probes_encoded_rows(self):
        ts = make([[0, 0, 1], [1, 1, 2], [9, 2, 9]])
        probe = np.asarray([[0, 0, 1], [5, 2, 5], [9, 2, 9], [0, 0, 0]])
        keys = encode_keys(probe, ts.num_entities, ts.num_relations)
        np.testing.assert_array_equal(ts.contains_keys(keys), ts.contains(probe))
        assert ts.contains_keys(keys).tolist() == [True, False, True, False]
        assert ts.contains_keys(np.empty(0, dtype=np.int64)).shape == (0,)

    def test_by_relation(self):
        ts = make([[0, 0, 1], [1, 1, 2], [2, 1, 3]])
        rel1 = ts.by_relation(1)
        assert len(rel1) == 2
        assert set(rel1[:, 1]) == {1}

    def test_unique_relations_and_entities(self):
        ts = make([[0, 2, 1], [1, 0, 2]])
        np.testing.assert_array_equal(ts.unique_relations(), [0, 2])
        np.testing.assert_array_equal(ts.unique_entities(), [0, 1, 2])

    def test_known_objects(self):
        ts = make([[0, 0, 2], [0, 0, 1], [1, 0, 3]])
        entities, starts, stops = ts.known_entities([0, 1], [0, 0], "object")
        assert entities[starts[0] : stops[0]].tolist() == [1, 2]
        assert entities[starts[1] : stops[1]].tolist() == [3]

    def test_known_subjects(self):
        ts = make([[1, 0, 2], [0, 0, 2]])
        entities, starts, stops = ts.known_entities([0], [2], "subject")
        assert entities[starts[0] : stops[0]].tolist() == [0, 1]

    def test_iteration_yields_python_ints(self):
        ts = make([[0, 1, 2]])
        triple = next(iter(ts))
        assert triple == (0, 1, 2)
        assert all(isinstance(v, int) for v in triple)


@pytest.fixture(scope="module")
def kg():
    """A small synthetic KG with skewed popularity (long segments)."""
    return generate_kg(
        KGProfile(
            name="known-entities",
            num_entities=30,
            num_relations=4,
            num_triples=200,
            num_types=3,
            popularity_exponent=0.8,
            triangle_closure_prob=0.2,
            seed=5,
        )
    )


class TestKnownEntities:
    @pytest.mark.parametrize("side", ["object", "subject"])
    def test_matches_reference_dict(self, kg, side):
        index = _filter_index(kg.train, side)
        pairs = np.asarray(sorted(index), dtype=np.int64)
        entities, starts, stops = kg.train.known_entities(
            pairs[:, 0], pairs[:, 1], side
        )
        for pair, start, stop in zip(map(tuple, pairs), starts, stops):
            np.testing.assert_array_equal(
                entities[start:stop], np.sort(index[pair])
            )

    @pytest.mark.parametrize("side", ["object", "subject"])
    def test_unknown_query_has_empty_segment(self, side):
        ts = make([[0, 0, 1], [2, 1, 3]])
        entities, starts, stops = ts.known_entities([9], [2], side)
        assert starts[0] == stops[0] and entities.size == 0

    def test_no_queries(self, kg):
        entities, starts, stops = kg.train.known_entities([], [], "subject")
        assert entities.size == starts.size == stops.size == 0

    def test_invalid_side(self, kg):
        with pytest.raises(ValueError):
            kg.train.known_entities([0], [0], "diagonal")

    def test_concurrent_first_subject_lookups_agree(self, kg):
        fresh = TripleSet(kg.train.array, kg.num_entities, kg.num_relations)
        pairs = kg.train.array[:, 1:]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_in_threads(
                4, lambda: fresh.known_entities(pairs[:, 0], pairs[:, 1], "subject")
            )
        finally:
            sys.setswitchinterval(interval)
        assert all(result is not None for result in results)
        for result in results:
            for got, want in zip(result, results[0]):
                np.testing.assert_array_equal(got, want)


class TestSetAlgebra:
    def test_union(self):
        a = make([[0, 0, 1]])
        b = make([[1, 0, 2], [0, 0, 1]])
        assert len(a.union(b)) == 2

    def test_difference(self):
        a = make([[0, 0, 1], [1, 0, 2]])
        b = make([[0, 0, 1]])
        diff = a.difference(b)
        assert len(diff) == 1
        assert (1, 0, 2) in diff

    def test_intersection(self):
        a = make([[0, 0, 1], [1, 0, 2]])
        b = make([[1, 0, 2], [3, 0, 4]])
        inter = a.intersection(b)
        assert len(inter) == 1
        assert (1, 0, 2) in inter

    def test_incompatible_spaces_rejected(self):
        a = make([[0, 0, 1]], n=10)
        b = TripleSet(np.asarray([[0, 0, 1]]), 11, 3)
        with pytest.raises(ValueError):
            a.union(b)

    def test_equality(self):
        assert make([[0, 0, 1], [1, 0, 2]]) == make([[1, 0, 2], [0, 0, 1]])
        assert make([[0, 0, 1]]) != make([[0, 0, 2]])

    def test_equality_with_other_types_is_false(self):
        triples = make([[0, 0, 1]])
        assert triples != [(0, 0, 1)]
        assert triples.__eq__([(0, 0, 1)]) is NotImplemented


class TestBackedSets:
    def _backend(self, tmp_path, triples, with_keys=True):
        backend = MmapBackend(tmp_path / "store")
        make(triples).persist(backend)
        if not with_keys:
            stripped = MmapBackend(tmp_path / "stripped")
            stripped.put("triples", backend.get("triples"))
            return stripped
        return backend

    def test_reopened_set_equals_the_persisted_one(self, tmp_path):
        backend = self._backend(tmp_path, [[0, 0, 1], [2, 1, 3]])
        again = TripleSet.from_backend(backend, 10, 3)
        assert again == make([[0, 0, 1], [2, 1, 3]])

    def test_missing_key_column_is_rebuilt_in_memory(self, tmp_path):
        backend = self._backend(tmp_path, [[2, 1, 3], [0, 0, 1]], with_keys=False)
        assert backend.names() == ["triples"]
        again = TripleSet.from_backend(backend, 10, 3)
        assert again == make([[0, 0, 1], [2, 1, 3]])
        assert (2, 1, 3) in again and (3, 1, 2) not in again

    def test_rebuilt_key_column_is_read_only(self, tmp_path):
        backend = self._backend(tmp_path, [[2, 1, 3]], with_keys=False)
        keys = TripleSet.from_backend(backend, 10, 3)._sorted_keys
        with pytest.raises(ValueError, match="read-only"):
            keys[0] = 0

    def test_persisting_a_reopened_set_writes_the_same_files(self, tmp_path):
        backend = self._backend(tmp_path, [[2, 1, 3], [0, 0, 1]])
        TripleSet.from_backend(backend, 10, 3).persist(MmapBackend(tmp_path / "copy"))
        for name in ("triples.npy", "keys.npy"):
            original = (tmp_path / "store" / name).read_bytes()
            assert (tmp_path / "copy" / name).read_bytes() == original

    def test_empty_id_space_rejected(self, tmp_path):
        backend = self._backend(tmp_path, [[0, 0, 1]])
        with pytest.raises(ValueError, match=">= 1"):
            TripleSet.from_backend(backend, 0, 3)

    def test_triple_column_of_the_wrong_shape_rejected(self, tmp_path):
        backend = MmapBackend(tmp_path)
        backend.put("triples", np.arange(6, dtype=np.int64).reshape(3, 2))
        backend.put("keys", np.arange(3, dtype=np.int64))
        with pytest.raises(ValueError, match=r"\(M, 3\)"):
            TripleSet.from_backend(backend, 10, 3)

    def test_key_column_of_another_length_rejected(self, tmp_path):
        backend = self._backend(tmp_path, [[0, 0, 1], [2, 1, 3]])
        backend.put("keys", np.arange(5, dtype=np.int64))
        with pytest.raises(ValueError, match="key column"):
            TripleSet.from_backend(backend, 10, 3)

    def test_encode_keys_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(M, 3\)"):
            encode_keys(np.zeros((2, 2), dtype=np.int64), 10, 3)


class TestDerived:
    def test_complement_size(self):
        ts = make([[0, 0, 1], [1, 1, 2]], n=10, k=3)
        assert ts.complement_size() == 10 * 10 * 3 - 2

    def test_yago_complement_magnitude(self):
        """The paper's motivating number: ~533 × 10⁹ for YAGO3-10."""
        ts = TripleSet(np.asarray([[0, 0, 1]]), 123_182, 37)
        assert abs(ts.complement_size() - 533e9) / 533e9 < 0.06

    def test_density(self):
        ts = make([[0, 0, 1]], n=10, k=1)
        assert ts.density() == pytest.approx(0.01)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
triple_lists = st.lists(
    st.tuples(
        st.integers(0, 19), st.integers(0, 4), st.integers(0, 19)
    ),
    max_size=60,
)


@given(triple_lists)
def test_keys_injective(triples):
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    keys = encode_keys(arr, 20, 5)
    unique_triples = {tuple(t) for t in arr.tolist()}
    assert len(np.unique(keys)) == len(unique_triples)


@given(triple_lists)
def test_every_stored_triple_is_contained(triples):
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if len(arr) == 0:
        return
    ts = TripleSet(arr, 20, 5)
    assert ts.contains(arr).all()


@given(triple_lists, triple_lists)
def test_union_is_commutative(t1, t2):
    a = TripleSet(np.asarray(t1, dtype=np.int64).reshape(-1, 3), 20, 5)
    b = TripleSet(np.asarray(t2, dtype=np.int64).reshape(-1, 3), 20, 5)
    assert a.union(b) == b.union(a)


@given(triple_lists, triple_lists)
def test_difference_disjoint_from_subtrahend(t1, t2):
    a = TripleSet(np.asarray(t1, dtype=np.int64).reshape(-1, 3), 20, 5)
    b = TripleSet(np.asarray(t2, dtype=np.int64).reshape(-1, 3), 20, 5)
    diff = a.difference(b)
    assert len(diff.intersection(b)) == 0
    # And difference + intersection partition a.
    assert len(diff) + len(a.intersection(b)) == len(a)


@given(triple_lists)
def test_complement_plus_size_is_total(triples):
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ts = TripleSet(arr, 20, 5)
    assert ts.complement_size() + len(ts) == 20 * 20 * 5
