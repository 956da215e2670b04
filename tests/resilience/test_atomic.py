"""Atomic publication and content-checksum tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience import (
    atomic_savez,
    atomic_write,
    atomic_write_bytes,
    digest_arrays,
)


def _no_temp_residue(directory):
    return not list(directory.glob("*.tmp"))


class TestAtomicWrite:
    def test_publishes_content(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert _no_temp_residue(tmp_path)

    def test_overwrites_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"new"

    def test_crash_mid_write_leaves_old_file_intact(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"old")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(path) as tmp:
                tmp.write_bytes(b"half-writt")
                raise RuntimeError("boom")
        assert path.read_bytes() == b"old"
        assert _no_temp_residue(tmp_path)

    def test_crash_before_first_publish_leaves_nothing(self, tmp_path):
        path = tmp_path / "fresh.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as tmp:
                tmp.write_bytes(b"x")
                raise RuntimeError("boom")
        assert not path.exists()
        assert _no_temp_residue(tmp_path)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.bin"
        atomic_write_bytes(path, b"deep")
        assert path.read_bytes() == b"deep"

    def test_publishes_where_directories_cannot_be_opened(
        self, tmp_path, monkeypatch
    ):
        # Some platforms refuse an fd for a directory; the rename is still
        # atomic there, so the write must publish without the dir fsync.
        import os

        real_open = os.open

        def no_directory_fds(path, flags, *args, **kwargs):
            if os.path.isdir(path):
                raise PermissionError("directories cannot be opened here")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_directory_fds)
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert _no_temp_residue(tmp_path)

    def test_interrupt_mid_write_also_cleans_up(self, tmp_path):
        # BaseException, not just Exception: a Ctrl-C mid-write must not
        # leave a temp file or touch the published one.
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"old")
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(path) as tmp:
                tmp.write_bytes(b"new")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"old"
        assert _no_temp_residue(tmp_path)


class TestAtomicSavez:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "arrays.npz"
        first = np.arange(12.0).reshape(3, 4)
        second = np.asarray([1, 2, 3], dtype=np.int64)
        atomic_savez(path, first=first, second=second)
        with np.load(path) as stored:
            np.testing.assert_array_equal(stored["first"], first)
            np.testing.assert_array_equal(stored["second"], second)
        assert _no_temp_residue(tmp_path)

    def test_filename_is_exactly_the_requested_path(self, tmp_path):
        # numpy appends ".npz" to plain string paths; the handle-based
        # writer must not, or temp names would never match their target.
        path = tmp_path / "cache.model"
        atomic_savez(path, data=np.zeros(2))
        assert path.is_file()
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_save_keeps_the_previous_archive(self, tmp_path):
        path = tmp_path / "arrays.npz"
        atomic_savez(path, data=np.arange(3))

        class Unsaveable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("cannot materialise")

        with pytest.raises(RuntimeError, match="materialise"):
            atomic_savez(path, data=np.zeros(2), broken=Unsaveable())
        with np.load(path) as stored:
            assert stored.files == ["data"]
            np.testing.assert_array_equal(stored["data"], np.arange(3))
        assert _no_temp_residue(tmp_path)


class TestDigestArrays:
    def test_order_independent(self):
        a = np.arange(6.0)
        b = np.ones((2, 2))
        assert digest_arrays({"a": a, "b": b}) == digest_arrays({"b": b, "a": a})

    def test_content_sensitivity(self):
        base = digest_arrays({"a": np.zeros(4)})
        changed = np.zeros(4)
        changed[2] = 1e-300  # tiniest possible bit-level change
        assert digest_arrays({"a": changed}) != base

    def test_dtype_and_shape_sensitivity(self):
        flat = np.zeros(4, dtype=np.float64)
        assert digest_arrays({"a": flat}) != digest_arrays(
            {"a": flat.reshape(2, 2)}
        )
        assert digest_arrays({"a": flat}) != digest_arrays(
            {"a": np.zeros(8, dtype=np.float32)}
        )

    def test_key_sensitivity(self):
        array = np.ones(3)
        assert digest_arrays({"a": array}) != digest_arrays({"b": array})
