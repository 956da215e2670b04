"""The mmap KG store: roundtrips, checksums, streaming writers, loading."""

import json
import pickle

import numpy as np
import pytest

from repro.kg import (
    KnowledgeGraph,
    MmapBackend,
    StorageCorruptError,
    TripleSet,
    kg_store_exists,
    load_dataset,
    load_kg_store,
    save_kg_store,
)
from repro.kg.storage import content_digest


@pytest.fixture(params=["mmap"])
def backend(tmp_path):
    return MmapBackend(tmp_path / "store")


class TestBackendContract:
    def test_put_get_roundtrip(self, backend):
        arr = np.arange(12, dtype=np.int64).reshape(4, 3)
        backend.put("cols", arr)
        got = backend.get("cols")
        np.testing.assert_array_equal(got, arr)
        assert "cols" in backend and "other" not in backend
        assert backend.names() == ["cols"]

    def test_views_are_read_only(self, backend):
        backend.put("x", np.arange(5))
        view = backend.get("x")
        with pytest.raises((ValueError, TypeError)):
            view[0] = 99

    def test_put_copies_input(self, backend):
        arr = np.arange(5, dtype=np.int64)
        backend.put("x", arr)
        arr[0] = 42
        assert backend.get("x")[0] == 0

    def test_missing_name_raises_keyerror(self, backend):
        with pytest.raises(KeyError):
            backend.get("nope")

    def test_streaming_writer_matches_put(self, backend):
        rows = np.arange(30, dtype=np.int64).reshape(10, 3)
        with backend.writer("streamed", np.int64, columns=3) as writer:
            writer.append(rows[:4])
            writer.append(rows[4:])
        backend.put("direct", rows)
        np.testing.assert_array_equal(
            backend.get("streamed"), backend.get("direct")
        )

    def test_streaming_writer_1d(self, backend):
        with backend.writer("keys", np.int64) as writer:
            writer.append(np.arange(7))
            writer.append(np.arange(7, 11))
        np.testing.assert_array_equal(backend.get("keys"), np.arange(11))

    def test_empty_writer(self, backend):
        with backend.writer("empty", np.int64, columns=3):
            pass
        assert backend.get("empty").shape == (0, 3)

    def test_writer_rejects_chunks_of_the_wrong_shape(self, backend):
        with backend.writer("flat", np.int64) as writer:
            with pytest.raises(ValueError, match="1-D"):
                writer.append(np.zeros((2, 3)))
            writer.append(np.arange(3))
        with backend.writer("cols", np.int64, columns=3) as writer:
            with pytest.raises(ValueError, match=r"\(m, 3\)"):
                writer.append(np.zeros((2, 2)))
        assert backend.get("flat").tolist() == [0, 1, 2]
        assert backend.get("cols").shape == (0, 3)

    @pytest.mark.parametrize("how", ["put", "writer"])
    def test_replacing_an_array_drops_the_cached_view(self, backend, how):
        backend.put("x", np.arange(3, dtype=np.int64))
        assert backend.get("x").tolist() == [0, 1, 2]
        if how == "put":
            backend.put("x", np.arange(5, dtype=np.int64))
        else:
            with backend.writer("x", np.int64) as writer:
                writer.append(np.arange(5))
        assert backend.get("x").tolist() == [0, 1, 2, 3, 4]
        assert backend.names() == ["x"]

    def test_writer_failure_publishes_nothing(self, backend, tmp_path):
        with pytest.raises(RuntimeError, match="generator died"):
            with backend.writer("partial", np.int64, columns=3) as writer:
                writer.append(np.ones((4, 3)))
                raise RuntimeError("generator died")
        assert "partial" not in backend
        assert backend.names() == []
        assert not list(tmp_path.rglob("*.tmp"))


class TestMmapBackend:
    def test_reopen_existing_store(self, tmp_path):
        store = tmp_path / "s"
        first = MmapBackend(store)
        first.put("a", np.arange(4))
        second = MmapBackend(store, mode="r")
        np.testing.assert_array_equal(second.get("a"), np.arange(4))

    def test_read_only_mode_rejects_writes(self, tmp_path):
        store = tmp_path / "s"
        MmapBackend(store).put("a", np.arange(4))
        ro = MmapBackend(store, mode="r")
        with pytest.raises(PermissionError):
            ro.put("b", np.arange(4))

    def test_read_only_mode_rejects_streaming_writers(self, tmp_path):
        store = tmp_path / "s"
        MmapBackend(store).put("a", np.arange(4))
        before = sorted(store.iterdir())
        with pytest.raises(PermissionError):
            MmapBackend(store, mode="r").writer("b", np.int64)
        assert sorted(store.iterdir()) == before

    def test_contains_reads_the_manifest(self, tmp_path):
        store = tmp_path / "s"
        MmapBackend(store).put("a", np.arange(4))
        # A stray .npy file the manifest does not list is not an array.
        np.save(store / "stray.npy", np.arange(4))
        reopened = MmapBackend(store, mode="r")
        assert "a" in reopened and "stray" not in reopened
        with pytest.raises(KeyError):
            reopened.get("stray")

    def test_streamed_array_passes_verification_on_reopen(self, tmp_path):
        store = tmp_path / "s"
        rows = np.arange(30, dtype=np.int64).reshape(10, 3)
        with MmapBackend(store).writer("rows", np.int64, columns=3) as writer:
            for start in range(0, 10, 3):
                writer.append(rows[start : start + 3])
        # The digest accumulated per chunk is the digest of the whole array.
        manifest = json.loads((store / "manifest.json").read_text())
        assert manifest["arrays"]["rows"]["sha256"] == content_digest(rows)
        reopened = MmapBackend(store, mode="r", verify=True)
        np.testing.assert_array_equal(reopened.get("rows"), rows)

    def test_writer_closed_without_a_with_block_publishes_once(self, tmp_path):
        backend = MmapBackend(tmp_path / "s")
        writer = backend.writer("keys", np.int64)
        writer.append(np.arange(4))
        assert "keys" not in backend
        writer.close()
        writer.close()
        assert backend.get("keys").tolist() == [0, 1, 2, 3]
        assert not list((tmp_path / "s").glob("*.tmp"))

    def test_missing_directory_in_read_mode(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MmapBackend(tmp_path / "absent", mode="r")

    def test_corrupted_data_detected(self, tmp_path):
        store = tmp_path / "s"
        backend = MmapBackend(store)
        backend.put("a", np.arange(64, dtype=np.int64))
        path = store / "a.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageCorruptError):
            MmapBackend(store, mode="r").get("a")

    def test_corruption_ignored_without_verify(self, tmp_path):
        store = tmp_path / "s"
        MmapBackend(store).put("a", np.arange(64, dtype=np.int64))
        path = store / "a.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        unchecked = MmapBackend(store, mode="r", verify=False)
        assert unchecked.get("a").shape == (64,)

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            MmapBackend(tmp_path / "store", mode="w")

    @pytest.mark.parametrize("name", ["../escape", "a/b", "a\\b", ".hidden"])
    def test_array_names_cannot_leave_the_store(self, tmp_path, name):
        backend = MmapBackend(tmp_path / "store")
        with pytest.raises(ValueError, match="invalid array name"):
            backend.put(name, np.arange(3))
        assert backend.names() == []

    def test_unsupported_manifest_version_is_corrupt(self, tmp_path):
        import json

        MmapBackend(tmp_path / "store").put("x", np.arange(3))
        manifest = next((tmp_path / "store").glob("*.json"))
        data = json.loads(manifest.read_text())
        data["format_version"] = 999
        manifest.write_text(json.dumps(data))
        with pytest.raises(StorageCorruptError, match="format_version 999"):
            MmapBackend(tmp_path / "store", mode="r")

    def test_array_file_of_another_shape_is_corrupt(self, tmp_path):
        MmapBackend(tmp_path / "store").put("x", np.arange(6, dtype=np.int64))
        np.save(tmp_path / "store" / "x.npy", np.arange(4, dtype=np.int64))
        with pytest.raises(StorageCorruptError, match="manifest says"):
            MmapBackend(tmp_path / "store", mode="r").get("x")

    def test_unreadable_array_file_is_corrupt(self, tmp_path):
        MmapBackend(tmp_path / "store").put("x", np.arange(6, dtype=np.int64))
        (tmp_path / "store" / "x.npy").write_bytes(b"not an npy file")
        with pytest.raises(StorageCorruptError, match="unreadable array"):
            MmapBackend(tmp_path / "store", mode="r").get("x")

    def test_repr_names_directory_mode_and_size(self, tmp_path):
        backend = MmapBackend(tmp_path / "store")
        backend.put("x", np.arange(3))
        text = repr(backend)
        assert str(tmp_path / "store") in text
        assert "mode='r+'" in text and "arrays=1" in text

    def test_content_digest_covers_dtype(self):
        ints = np.arange(4, dtype=np.int64)
        floats = ints.astype(np.float64)
        assert content_digest(ints) != content_digest(floats)


class TestTripleSetBackends:
    def test_persist_and_reopen(self, tmp_path):
        triples = TripleSet([(0, 0, 1), (1, 0, 2), (2, 1, 0)], 3, 2)
        backend = MmapBackend(tmp_path / "s")
        triples.persist(backend, prefix="train.")
        again = TripleSet.from_backend(backend, 3, 2, prefix="train.")
        assert again == triples
        np.testing.assert_array_equal(again.array, triples.array)

    @pytest.mark.parametrize("build", ["constructor", "mmap", "memory"])
    def test_every_way_to_build_a_set_gives_read_only_equal_columns(
        self, tmp_path, build
    ):
        graph = load_dataset("wn18rr-like")
        n, k = graph.num_entities, graph.num_relations
        built = TripleSet(graph.train.array, n, k)
        if build != "constructor":
            save_kg_store(graph, tmp_path / "s")
            loaded = load_kg_store(tmp_path / "s", mmap=build == "mmap")
            assert loaded.train == built
            entity_types = loaded.metadata["entity_types"]
            assert not entity_types.flags.writeable
            assert isinstance(entity_types, np.memmap) == (build == "mmap")
            built = loaded.train
        np.testing.assert_array_equal(built.array, graph.train.array)
        for column in (built.array, built._sorted_keys):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
            # mmap=True pages the store in; mmap=False copies it into RAM.
            assert isinstance(column, np.memmap) == (build == "mmap")

    def test_in_memory_set_pickles_by_value(self):
        triples = TripleSet([(0, 0, 1)], 2, 1)
        clone = pickle.loads(pickle.dumps(triples))
        assert clone == triples


class TestKGStore:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        graph = load_dataset("fb15k237-like")
        store = tmp_path_factory.mktemp("stores") / "fb"
        save_kg_store(graph, store)
        return graph, store

    def test_exists(self, saved, tmp_path):
        _, store = saved
        assert kg_store_exists(store)
        assert not kg_store_exists(tmp_path / "nowhere")

    @pytest.mark.parametrize("mmap", [True, False])
    def test_roundtrip(self, saved, mmap):
        graph, store = saved
        again = load_kg_store(store, mmap=mmap)
        assert isinstance(again, KnowledgeGraph)
        assert again.name == graph.name
        for split in ("train", "valid", "test"):
            ours, theirs = getattr(graph, split), getattr(again, split)
            assert ours == theirs
            np.testing.assert_array_equal(ours.array, theirs.array)
        assert again.entities == graph.entities
        assert again.relations == graph.relations
        np.testing.assert_array_equal(
            again.metadata["entity_types"], graph.metadata["entity_types"]
        )

    def test_tampered_labels_detected(self, saved, tmp_path):
        import shutil

        _, store = saved
        copy = tmp_path / "tampered"
        shutil.copytree(store, copy)
        labels = copy / "entities.txt"
        labels.write_text(
            labels.read_text(encoding="utf-8").replace("e_0\n", "e_X\n", 1),
            encoding="utf-8",
        )
        with pytest.raises(StorageCorruptError):
            load_kg_store(copy)

    def test_directory_without_store_metadata_is_not_a_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a KG store"):
            load_kg_store(tmp_path)

    def test_unsupported_store_version_is_corrupt(self, saved, tmp_path):
        import json
        import shutil

        _, store = saved
        copy = tmp_path / "future"
        shutil.copytree(store, copy)
        meta_path = next(
            path for path in copy.glob("*.json")
            if "num_entities" in json.loads(path.read_text())
        )
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StorageCorruptError, match="format_version 99"):
            load_kg_store(copy)

    def test_labels_with_newlines_cannot_be_stored(self, tmp_path):
        graph = KnowledgeGraph.from_arrays(
            name="bad-labels",
            num_entities=2,
            num_relations=1,
            train=np.asarray([[0, 0, 1]]),
            valid=np.zeros((0, 3), dtype=np.int64),
            test=np.zeros((0, 3), dtype=np.int64),
            entity_labels=["fine", "two\nlines"],
        )
        with pytest.raises(ValueError, match="newline"):
            save_kg_store(graph, tmp_path / "store")

    def test_numpy_scalar_metadata_round_trips_as_python_numbers(self, tmp_path):
        graph = KnowledgeGraph.from_arrays(
            name="meta",
            num_entities=3,
            num_relations=1,
            train=np.asarray([[0, 0, 1], [1, 0, 2]]),
            valid=np.zeros((0, 3), dtype=np.int64),
            test=np.zeros((0, 3), dtype=np.int64),
        )
        graph.metadata.update(seed=np.int64(7), density=np.float32(0.25))
        save_kg_store(graph, tmp_path / "store")
        again = load_kg_store(tmp_path / "store")
        assert again.metadata["seed"] == 7 and type(again.metadata["seed"]) is int
        assert again.metadata["density"] == 0.25
        assert type(again.metadata["density"]) is float
