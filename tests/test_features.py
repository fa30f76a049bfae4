"""Tokenization, vocabulary, embedding files, and pooled n-gram features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvnet.features import (
    ConvFilterBank,
    EmbeddingFileError,
    NGRAM_ORDERS,
    PAD_TOKEN,
    Projection,
    UNK_TOKEN,
    Vocabulary,
    augment_features,
    build_vocab,
    init_embeddings,
    load_embeddings,
    ngram_features,
    project,
    tokenize,
)
from mvnet.numeric import Graph, ShapeError


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The Cat  sat") == ["the", "cat", "sat"]

    def test_strips_edge_punctuation_only(self):
        assert tokenize("Hello, world!") == ["hello", "world"]
        assert tokenize("don't 'quote' (brackets)") == ["don't", "quote", "brackets"]

    def test_drops_tokens_that_become_empty(self):
        assert tokenize("... -- !!") == []
        assert tokenize("") == []


class TestVocabulary:
    def test_reserved_slots_come_first(self):
        vocab = Vocabulary.from_tokens(["cat", "dog"])
        assert vocab.tokens[:2] == [PAD_TOKEN, UNK_TOKEN]
        assert vocab.pad_index == 0
        assert vocab.unk_index == 1
        assert vocab.lookup("cat") == 2

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocabulary.from_tokens(["cat"])
        assert vocab.lookup("zebra") == vocab.unk_index

    def test_build_vocab_first_appearance_order(self):
        vocab = build_vocab([["b", "a"], ["a", "c"]])
        assert vocab.tokens == [PAD_TOKEN, UNK_TOKEN, "b", "a", "c"]

    def test_build_vocab_min_count(self):
        vocab = build_vocab([["a", "b"], ["a"]], min_count=2)
        assert "a" in vocab
        assert "b" not in vocab

    def test_build_vocab_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_reserved_tokens_in_corpus_not_duplicated(self):
        vocab = build_vocab([[PAD_TOKEN, "a", UNK_TOKEN]])
        assert vocab.tokens.count(PAD_TOKEN) == 1
        assert vocab.tokens.count(UNK_TOKEN) == 1


class TestEmbeddingTable:
    def test_init_shape_and_range(self, rng):
        vocab = Vocabulary.from_tokens(["a", "b", "c"])
        table = init_embeddings(vocab, 7, rng)
        assert table.shape == (5, 7)
        assert (np.abs(table) <= 0.05).all()

    def test_file_rows_copied_verbatim(self, tmp_path, rng):
        vocab = Vocabulary.from_tokens(["cat", "dog"])
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0 3.0\nzebra 9.0 9.0 9.0\n")
        table = load_embeddings(path, vocab, rng)
        np.testing.assert_array_equal(table[vocab.lookup("cat")], [1.0, 2.0, 3.0])
        # dog is uncovered: keeps its random fill
        assert (np.abs(table[vocab.lookup("dog")]) <= 0.05).all()
        assert table.shape == (4, 3)

    def test_reserved_rows_never_overwritten(self, tmp_path, rng):
        vocab = Vocabulary.from_tokens(["cat"])
        path = tmp_path / "vectors.txt"
        path.write_text(f"{PAD_TOKEN} 5.0 5.0\n{UNK_TOKEN} 6.0 6.0\ncat 1.0 2.0\n")
        table = load_embeddings(path, vocab, rng)
        assert (np.abs(table[0]) <= 0.05).all()
        assert (np.abs(table[1]) <= 0.05).all()
        np.testing.assert_array_equal(table[2], [1.0, 2.0])

    def test_coverage_does_not_shift_uncovered_rows(self, tmp_path):
        vocab = Vocabulary.from_tokens(["cat", "dog"])
        path_a = tmp_path / "a.txt"
        path_a.write_text("cat 1.0 2.0\n")
        path_b = tmp_path / "b.txt"
        path_b.write_text("zebra 3.0 4.0\n")
        table_a = load_embeddings(path_a, vocab, np.random.default_rng(3))
        table_b = load_embeddings(path_b, vocab, np.random.default_rng(3))
        # dog is uncovered in both files; its random row must not depend on
        # which other tokens the file happened to cover
        np.testing.assert_array_equal(table_a[vocab.lookup("dog")],
                                      table_b[vocab.lookup("dog")])

    def test_dimension_can_be_enforced(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0 3.0\n")
        vocab = Vocabulary.from_tokens(["cat"])
        with pytest.raises(EmbeddingFileError, match="dimensions"):
            load_embeddings(path, vocab, rng, dim=2)

    def test_inconsistent_widths_report_line(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 2.0\ndog 1.0\n")
        with pytest.raises(EmbeddingFileError, match="2"):
            load_embeddings(path, Vocabulary.from_tokens(["cat", "dog"]), rng)

    def test_non_numeric_value_reports_line(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 two\n")
        with pytest.raises(EmbeddingFileError, match="non-numeric"):
            load_embeddings(path, Vocabulary.from_tokens(["cat"]), rng)

    def test_empty_file_rejected(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        path.write_text("\n\n")
        with pytest.raises(EmbeddingFileError, match="no vectors"):
            load_embeddings(path, Vocabulary.from_tokens(["cat"]), rng)


def make_bank(graph, width, rng):
    filters = {}
    for order in NGRAM_ORDERS:
        weight = graph.tensor(rng.normal(size=(width, order * width)) * 0.4)
        bias = graph.tensor(rng.normal(size=width) * 0.1)
        filters[order] = (weight, bias)
    return filters


class TestProjection:
    def test_matches_direct_formula(self, rng):
        rows = rng.normal(size=(4, 3))
        weight = rng.normal(size=(3, 2))
        bias = rng.normal(size=2)
        g = Graph()
        proj = Projection(weight=g.tensor(weight), bias=g.tensor(bias))
        out = project(g.tensor(rows), proj)
        np.testing.assert_allclose(out.value, np.tanh(rows @ weight + bias), rtol=1e-14)


class TestNgramFeatures:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4))
    def test_pooled_vectors_match_window_oracle(self, lengths):
        # A padded batch: every text runs to the longest one (at least the
        # widest window) with copies of the pad row.
        width = 2
        rng = np.random.default_rng(sum(lengths))
        texts = [rng.normal(size=(length, width)) for length in lengths]
        pad = rng.normal(size=(1, width))
        rows = max(max(lengths), max(NGRAM_ORDERS))
        batch = np.stack([np.vstack([t] + [pad] * (rows - len(t))) for t in texts])
        g = Graph()
        filters = make_bank(g, width, rng)
        pooled = ngram_features(g.tensor(batch), ConvFilterBank(filters),
                                np.array(lengths))
        assert len(pooled) == len(NGRAM_ORDERS)
        for vector, order in zip(pooled, NGRAM_ORDERS):
            assert vector.shape == (len(lengths), width)
            weight = filters[order][0].value
            bias = filters[order][1].value
            for text, row in zip(texts, vector.value):
                # Texts shorter than the order are padded to a single window.
                padded = np.vstack([text] + [pad] * max(0, order - len(text)))
                activations = np.array([
                    np.tanh(weight @ padded[p:p + order].reshape(-1) + bias)
                    for p in range(len(padded) - order + 1)
                ])
                np.testing.assert_allclose(row, activations.max(axis=0),
                                           rtol=1e-12, atol=1e-15)

    def test_short_text_uses_single_padded_window(self, rng):
        width = 2
        rows = rng.normal(size=(2, width))
        pad = rng.normal(size=(1, width))
        g = Graph()
        filters = make_bank(g, width, rng)
        padded_rows = np.vstack([rows] + [pad] * (max(NGRAM_ORDERS) - 2))
        pooled = ngram_features(g.tensor(padded_rows), ConvFilterBank(filters), 2)
        for vector, order in zip(pooled, NGRAM_ORDERS):
            weight = filters[order][0].value
            bias = filters[order][1].value
            if order <= 2:
                window_rows = [rows[p:p + order].reshape(-1) for p in range(2 - order + 1)]
                expected = np.array([np.tanh(weight @ w + bias)
                                     for w in window_rows]).max(axis=0)
            else:
                padded = np.vstack([rows] + [pad] * (order - 2)).reshape(-1)
                expected = np.tanh(weight @ padded + bias)
            np.testing.assert_allclose(vector.value, expected, rtol=1e-12)

    def test_short_text_without_pad_row_rejected(self, rng):
        g = Graph()
        filters = make_bank(g, 2, rng)
        with pytest.raises(ShapeError, match="pad"):
            ngram_features(g.tensor(rng.normal(size=(2, 2))), ConvFilterBank(filters))

    def test_augmented_matrix_adds_one_row_per_order(self, rng):
        width = 3
        rows = rng.normal(size=(5, width))
        g = Graph()
        filters = make_bank(g, width, rng)
        projected = g.tensor(rows)
        pooled = ngram_features(projected, ConvFilterBank(filters))
        augmented = augment_features(projected, pooled)
        assert augmented.shape == (5 + len(NGRAM_ORDERS), width)
        np.testing.assert_array_equal(augmented.value[:5], rows)
        for i, vector in enumerate(pooled):
            np.testing.assert_array_equal(augmented.value[5 + i], vector.value)

    def test_filter_bank_must_cover_all_orders(self, rng):
        g = Graph()
        filters = make_bank(g, 2, rng)
        del filters[3]
        with pytest.raises(ValueError, match="orders"):
            ConvFilterBank(filters)
