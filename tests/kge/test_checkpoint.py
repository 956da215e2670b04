"""Checkpoint save/load round-trip, atomicity, and integrity tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autograd import Adam
from repro.kge import (
    ModelConfig,
    TrainConfig,
    checkpoint_header,
    create_model,
    fit,
    load_model,
    save_model,
)
from repro.resilience import CheckpointCorruptError, digest_arrays


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,dim,options",
        [
            ("transe", 8, {"norm": "l2"}),
            ("distmult", 8, {}),
            ("complex", 8, {}),
            ("rescal", 4, {}),
            ("hole", 8, {}),
            ("rotate", 8, {}),
            ("simple", 8, {}),
            ("tucker", 4, {}),
        ],
    )
    def test_scores_identical_after_reload(self, tmp_path, name, dim, options):
        model = create_model(
            name, num_entities=10, num_relations=3, dim=dim, seed=2, **options
        )
        model.eval()
        path = tmp_path / f"{name}.npz"
        save_model(model, path)
        reloaded = load_model(path)
        s = np.asarray([0, 4, 9])
        r = np.asarray([0, 1, 2])
        np.testing.assert_array_equal(
            model.scores_sp(s, r), reloaded.scores_sp(s, r)
        )

    def test_conve_running_stats_survive(self, tmp_path, tiny_graph):
        """BatchNorm buffers must round-trip, not just parameters."""
        result = fit(
            tiny_graph,
            ModelConfig("conve", dim=16, seed=0, options={"num_filters": 8}),
            TrainConfig(job="kvsall", loss="bce", epochs=3, batch_size=64, lr=0.01),
        )
        path = tmp_path / "conve.npz"
        save_model(result.model, path)
        reloaded = load_model(path)
        np.testing.assert_array_equal(
            result.model.bn_conv.running_mean, reloaded.bn_conv.running_mean
        )
        s = np.asarray([0, 1, 2])
        r = np.asarray([0, 1, 2])
        np.testing.assert_allclose(
            result.model.scores_sp(s, r), reloaded.scores_sp(s, r)
        )

    def test_transe_options_preserved(self, tmp_path):
        model = create_model(
            "transe", num_entities=6, num_relations=2, dim=8, norm="l2",
            normalize_entities=False,
        )
        path = tmp_path / "t.npz"
        save_model(model, path)
        reloaded = load_model(path)
        assert reloaded.norm == "l2"
        assert not reloaded.normalize_entities

    def test_reloaded_model_is_eval_mode(self, tmp_path):
        model = create_model("distmult", num_entities=6, num_relations=2, dim=8)
        path = tmp_path / "d.npz"
        save_model(model, path)
        assert not load_model(path).training

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ValueError, match="missing header"):
            load_model(path)

    def test_creates_parent_directories(self, tmp_path):
        model = create_model("distmult", num_entities=4, num_relations=1, dim=4)
        path = tmp_path / "deep" / "nested" / "model.npz"
        save_model(model, path)
        assert path.is_file()


def _saved_model(tmp_path):
    model = create_model("distmult", num_entities=8, num_relations=2, dim=4, seed=2)
    path = tmp_path / "model.npz"
    save_model(model, path)
    return model, path


class TestAtomicity:
    def test_no_temp_residue_after_save(self, tmp_path):
        _saved_model(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_missing_file_is_not_reported_as_corrupt(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "never_saved.npz")


class TestIntegrity:
    def test_truncated_archive_raises_typed_error(self, tmp_path):
        _, path = _saved_model(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            load_model(path)

    def test_flipped_bytes_mid_file_are_caught_at_load(self, tmp_path):
        _, path = _saved_model(tmp_path)
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        for offset in range(middle, middle + 32):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            load_model(path)

    def test_tampered_parameters_fail_the_checksum(self, tmp_path):
        """A bit-flip that keeps the zip container valid must still be
        detected via the embedded content digest."""
        _, path = _saved_model(tmp_path)
        with np.load(path) as stored:
            arrays = {key: stored[key].copy() for key in stored.files}
        target = next(key for key in arrays if key != "__repro_header__")
        arrays[target].reshape(-1)[0] += 1.0
        np.savez(path, **arrays)
        with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
            load_model(path)

    def test_verify_false_skips_the_digest_check(self, tmp_path):
        _, path = _saved_model(tmp_path)
        with np.load(path) as stored:
            arrays = {key: stored[key].copy() for key in stored.files}
        target = next(key for key in arrays if key != "__repro_header__")
        arrays[target].reshape(-1)[0] += 1.0
        np.savez(path, **arrays)
        assert load_model(path, verify=False) is not None

    def test_corrupt_error_is_a_value_error(self):
        # Legacy recovery paths catch ValueError; the typed error must
        # keep flowing through them.
        assert issubclass(CheckpointCorruptError, ValueError)

    def test_checkpoint_without_checksum_is_rejected(self, tmp_path):
        _, path = _saved_model(tmp_path)
        with np.load(path) as stored:
            arrays = {key: stored[key].copy() for key in stored.files}
        header = json.loads(bytes(arrays["__repro_header__"].tobytes()).decode())
        del header["checksum"]
        arrays["__repro_header__"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)
        for verify in (True, False):
            with pytest.raises(CheckpointCorruptError, match="no checksum"):
                load_model(path, verify=verify)

    def test_garbled_header_raises_typed_error(self, tmp_path):
        _, path = _saved_model(tmp_path)
        with np.load(path) as stored:
            arrays = {key: stored[key].copy() for key in stored.files}
        arrays["__repro_header__"] = np.frombuffer(
            b'{"model": not-json', dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(CheckpointCorruptError, match="header"):
            load_model(path)


_PAPER_MODELS = [
    ("complex", {}),
    ("conve", {"num_filters": 4}),
    ("distmult", {}),
    ("rescal", {}),
    ("transe", {"norm": "l1"}),
]


def _paper_model(name, options):
    return create_model(
        name, num_entities=12, num_relations=3, dim=8, seed=5, **options
    )


class TestCheckpointHeader:
    @pytest.mark.parametrize("name,options", _PAPER_MODELS)
    def test_header_describes_the_saved_model(self, tmp_path, name, options):
        model = _paper_model(name, options)
        path = tmp_path / f"{name}.npz"
        save_model(model, path)
        header = checkpoint_header(path)
        assert header["model"] == name
        assert (header["num_entities"], header["num_relations"]) == (12, 3)
        assert (header["dim"], header["seed"]) == (8, 5)
        assert header["options"] == model.config_options()
        assert header["checksum"] == digest_arrays(model.state_dict())

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            checkpoint_header(tmp_path / "never_saved.npz")

    def test_plain_npz_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ValueError, match="missing header") as excinfo:
            checkpoint_header(path)
        assert not isinstance(excinfo.value, CheckpointCorruptError)

    def test_truncated_archive_raises_typed_error(self, tmp_path):
        _, path = _saved_model(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            checkpoint_header(path)

    def test_garbled_header_raises_typed_error(self, tmp_path):
        _, path = _saved_model(tmp_path)
        with np.load(path) as stored:
            arrays = {key: stored[key].copy() for key in stored.files}
        arrays["__repro_header__"] = np.frombuffer(b"\xff\xfe{", dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointCorruptError, match="header"):
            checkpoint_header(path)


class TestSaveModel:
    def test_parameter_named_like_the_header_is_rejected(self, tmp_path, monkeypatch):
        model = create_model("distmult", num_entities=4, num_relations=1, dim=4)
        state = model.state_dict()
        state["__repro_header__"] = np.zeros(1)
        monkeypatch.setattr(model, "state_dict", lambda: dict(state))
        path = tmp_path / "clash.npz"
        with pytest.raises(ValueError, match="collides"):
            save_model(model, path)
        assert not path.exists()

    def test_optimizer_argument_flushes_lazy_rows_before_saving(self, tmp_path):
        """Mid-training saves with a lazy optimizer must hold the settled
        parameters: equal, bit for bit, to the dense twin's."""

        def trained(sparse: bool):
            model = create_model("distmult", num_entities=12, num_relations=2, dim=4, seed=1)
            for param in model.sparse_entity_parameters():
                param.sparse_grad = sparse
            optimizer = Adam(model.parameters(), lr=0.05)
            # Entity 9 is touched in the first batch only, so its row stays
            # stale under the lazy path until a flush.
            for batch in ([[9, 0, 1]], [[2, 1, 3]], [[4, 0, 5]], [[2, 1, 3]]):
                triples = np.asarray(batch)
                optimizer.zero_grad()
                scores = model.score_spo(triples[:, 0], triples[:, 1], triples[:, 2])
                (scores * scores).sum().backward()
                optimizer.step()
            return model, optimizer

        dense, _ = trained(sparse=False)
        lazy, optimizer = trained(sparse=True)
        assert not np.array_equal(lazy.entity_matrix()[9], dense.entity_matrix()[9])
        path = tmp_path / "mid_training.npz"
        save_model(lazy, path, optimizer=optimizer)
        reloaded = load_model(path)
        for key, value in dense.state_dict().items():
            np.testing.assert_array_equal(reloaded.state_dict()[key], value)


class TestDamageIsDetected:
    @pytest.mark.parametrize("name,options", _PAPER_MODELS)
    def test_flipped_parameter_bytes_fail_at_load(self, tmp_path, name, options):
        model = _paper_model(name, options)
        path = tmp_path / f"{name}.npz"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        for offset in range(middle, middle + 16):
            data[offset] ^= 0x55
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            load_model(path)

    @pytest.mark.parametrize(
        "keep",
        [lambda size: 1, lambda size: size // 2, lambda size: size - 1],
        ids=["one-byte", "half", "all-but-one-byte"],
    )
    def test_truncation_anywhere_fails_at_load(self, tmp_path, keep):
        _, path = _saved_model(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: keep(len(data))])
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            load_model(path)

    def test_file_that_is_not_a_zip_archive_fails_at_load(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(b"PK\x03\x04" + bytes(range(256)) * 4)
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            load_model(path)
