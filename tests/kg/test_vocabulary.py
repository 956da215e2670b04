"""Unit tests for the label ↔ id vocabulary."""

from __future__ import annotations

import pytest

from repro.kg import Vocabulary


class TestVocabulary:
    def test_insertion_order_ids(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.id_of("a") == 0
        assert vocab.id_of("c") == 2

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("x")
        second = vocab.add("x")
        assert first == second == 0
        assert len(vocab) == 1

    def test_label_of(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.label_of(1) == "b"

    def test_label_of_negative_raises(self):
        with pytest.raises(IndexError):
            Vocabulary(["a"]).label_of(-1)

    def test_label_of_out_of_range_raises(self):
        with pytest.raises(IndexError):
            Vocabulary(["a"]).label_of(5)

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().id_of("missing")

    def test_contains_and_iter(self):
        vocab = Vocabulary(["a", "b"])
        assert "a" in vocab
        assert "z" not in vocab
        assert list(vocab) == ["a", "b"]

    def test_labels_returns_copy(self):
        vocab = Vocabulary(["a"])
        labels = vocab.labels
        labels.append("mutation")
        assert len(vocab) == 1

    def test_equality_with_other_types_is_false(self):
        assert Vocabulary(["a"]) != ["a"]
        assert Vocabulary(["a"]).__eq__(["a"]) is NotImplemented

    def test_equality(self):
        assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
        assert Vocabulary(["a", "b"]) != Vocabulary(["b", "a"])

    def test_from_range(self):
        vocab = Vocabulary.from_range("e", 3)
        assert vocab.labels == ["e_0", "e_1", "e_2"]

    def test_from_range_rejects_negative(self):
        with pytest.raises(ValueError):
            Vocabulary.from_range("e", -1)

    def test_duplicate_labels_in_init_collapse(self):
        vocab = Vocabulary(["a", "a", "b"])
        assert len(vocab) == 2
