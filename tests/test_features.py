"""Tokenization, vocabulary, embedding files, and pooled n-gram features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvnet.features import (
    EmbeddingFileError,
    NGRAM_ORDERS,
    PAD_TOKEN,
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
from mvnet.numeric import Graph, ShapeError, mul, pool_windows, sum_all


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
        table = load_embeddings(path, vocab, rng, dim=3)
        np.testing.assert_array_equal(table[vocab.lookup("cat")], [1.0, 2.0, 3.0])
        # dog is uncovered: keeps its random fill
        assert (np.abs(table[vocab.lookup("dog")]) <= 0.05).all()
        assert table.shape == (4, 3)

    def test_reserved_rows_never_overwritten(self, tmp_path, rng):
        vocab = Vocabulary.from_tokens(["cat"])
        path = tmp_path / "vectors.txt"
        path.write_text(f"{PAD_TOKEN} 5.0 5.0\n{UNK_TOKEN} 6.0 6.0\ncat 1.0 2.0\n")
        table = load_embeddings(path, vocab, rng, dim=2)
        assert (np.abs(table[0]) <= 0.05).all()
        assert (np.abs(table[1]) <= 0.05).all()
        np.testing.assert_array_equal(table[2], [1.0, 2.0])

    def test_coverage_does_not_shift_uncovered_rows(self, tmp_path):
        vocab = Vocabulary.from_tokens(["cat", "dog"])
        path_a = tmp_path / "a.txt"
        path_a.write_text("cat 1.0 2.0\n")
        path_b = tmp_path / "b.txt"
        path_b.write_text("zebra 3.0 4.0\n")
        table_a = load_embeddings(path_a, vocab, np.random.default_rng(3), dim=2)
        table_b = load_embeddings(path_b, vocab, np.random.default_rng(3), dim=2)
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
            load_embeddings(path, Vocabulary.from_tokens(["cat", "dog"]), rng, dim=2)

    def test_non_numeric_value_reports_line(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 two\n")
        with pytest.raises(EmbeddingFileError, match="non-numeric"):
            load_embeddings(path, Vocabulary.from_tokens(["cat"]), rng, dim=2)

    def test_non_finite_value_reports_line(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha nan 0.1\nbeta 0.2 inf\n")
        with pytest.raises(EmbeddingFileError, match=r"vectors\.txt:1: non-finite value"):
            load_embeddings(path, Vocabulary.from_tokens(["alpha", "beta"]), rng, dim=2)
        path.write_text("alpha 0.3 0.1\nbeta 0.2 -inf\n")
        with pytest.raises(EmbeddingFileError, match=r"vectors\.txt:2: non-finite value"):
            load_embeddings(path, Vocabulary.from_tokens(["alpha", "beta"]), rng, dim=2)

    def test_empty_file_rejected(self, tmp_path, rng):
        path = tmp_path / "vectors.txt"
        path.write_text("\n\n")
        with pytest.raises(EmbeddingFileError, match="no vectors"):
            load_embeddings(path, Vocabulary.from_tokens(["cat"]), rng, dim=1)

    @pytest.mark.parametrize("text", ["", " \n\t\n\n"])
    def test_file_without_vectors_rejected_at_any_width(self, tmp_path, rng, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text)
        for dim in (1, 8, 300):
            with pytest.raises(EmbeddingFileError, match=r"vectors\.txt: no vectors found"):
                load_embeddings(path, Vocabulary.from_tokens(["cat"]), rng, dim=dim)


def make_bank(graph, width, rng):
    """The n-gram filter and bias leaves, keyed as a model binds them."""
    leaves = {}
    for order in NGRAM_ORDERS:
        leaves[f"ngram{order}.filter"] = graph.tensor(
            rng.normal(size=(width, order * width)) * 0.4)
        leaves[f"ngram{order}.bias"] = graph.tensor(rng.normal(size=width) * 0.1)
    return leaves


class TestProjection:
    def test_matches_direct_formula(self, rng):
        rows = rng.normal(size=(4, 3))
        weight = rng.normal(size=(3, 2))
        bias = rng.normal(size=2)
        g = Graph()
        out = project(g.tensor(rows), g.tensor(weight), g.tensor(bias))
        np.testing.assert_allclose(out.value, np.tanh(rows @ weight + bias), rtol=1e-14)

    def test_gradients_match_closed_form(self, rng):
        rows = rng.normal(size=(2, 4, 3))
        weight = rng.normal(size=(3, 2))
        bias = rng.normal(size=2)
        upstream = rng.normal(size=(2, 4, 2))
        g = Graph()
        leaves = [g.tensor(v, requires_grad=True) for v in (rows, weight, bias)]
        out = project(*leaves)
        g.backward(sum_all(mul(out, g.tensor(upstream))))
        y = np.tanh(rows @ weight + bias)
        np.testing.assert_allclose(out.value, y, rtol=1e-12)
        dz = (upstream * (1.0 - y * y)).reshape(-1, 2)
        flat_rows = rows.reshape(-1, 3)
        expected = [(dz @ weight.T).reshape(rows.shape), flat_rows.T @ dz, dz.sum(axis=0)]
        for leaf, grad in zip(leaves, expected):
            np.testing.assert_allclose(leaf.grad, grad, rtol=1e-12)


class TestNgramFeatures:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=6))
    def test_pooled_vectors_match_window_oracle(self, lengths, distinct):
        # A padded batch of texts drawn from a few distinct token rows, so
        # that one row sits in several windows; row 0 is the pad row and
        # ids run out as -1 at each text's end.
        width = 2
        rng = np.random.default_rng(sum(lengths) * 7 + distinct)
        table = rng.normal(size=(distinct + 1, width))
        rows = max(max(lengths), max(NGRAM_ORDERS))
        ids = np.full((len(lengths), rows), -1)
        for row, length in zip(ids, lengths):
            row[:length] = rng.integers(1, distinct + 1, size=length)
        g = Graph()
        filters = make_bank(g, width, rng)
        pooled = ngram_features(g.tensor(table), filters, ids)
        assert pooled.shape == (len(NGRAM_ORDERS) * len(lengths), width)
        for k, order in enumerate(NGRAM_ORDERS):
            weight = filters[f"ngram{order}.filter"].value
            bias = filters[f"ngram{order}.bias"].value
            for b, length in enumerate(lengths):
                # Texts shorter than the order are padded to a single window.
                text = table[ids[b, :length]]
                padded = np.vstack([text] + [table[:1]] * max(0, order - length))
                activations = np.array([
                    np.tanh(weight @ padded[p:p + order].reshape(-1) + bias)
                    for p in range(len(padded) - order + 1)
                ])
                np.testing.assert_allclose(pooled.value[k * len(lengths) + b],
                                           activations.max(axis=0), rtol=1e-12, atol=1e-15)

    def test_short_text_uses_single_padded_window(self, rng):
        width = 2
        table = rng.normal(size=(3, width))  # the pad row, then two tokens
        g = Graph()
        filters = make_bank(g, width, rng)
        ids = np.array([[1, 2] + [-1] * (max(NGRAM_ORDERS) - 2)])
        pooled = ngram_features(g.tensor(table), filters, ids)
        rows, pad = table[1:], table[:1]
        for vector, order in zip(pooled.value, NGRAM_ORDERS):
            weight = filters[f"ngram{order}.filter"].value
            bias = filters[f"ngram{order}.bias"].value
            if order <= 2:
                window_rows = [rows[p:p + order].reshape(-1) for p in range(2 - order + 1)]
                expected = np.array([np.tanh(weight @ w + bias)
                                     for w in window_rows]).max(axis=0)
            else:
                padded = np.vstack([rows] + [pad] * (order - 2)).reshape(-1)
                expected = np.tanh(weight @ padded + bias)
            np.testing.assert_allclose(vector, expected, rtol=1e-12)

    def test_short_text_without_pad_row_rejected(self, rng):
        # Widened to the widest window, the text reads row 0, the pad row,
        # which an empty table lacks.
        g = Graph()
        filters = make_bank(g, 2, rng)
        with pytest.raises(ShapeError, match="pad row"):
            ngram_features(g.tensor(np.zeros((0, 2))), filters, np.array([[-1]]))

    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(min_value=1, max_value=4),
           positions=st.integers(min_value=1, max_value=6),
           extra=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**16))
    def test_narrow_ids_pool_as_if_widened_with_pad_ids(self, batch, positions, extra, seed):
        # Ids narrower than the widest window pool as the same ids widened
        # with -1 to that window do, bit for bit in the value and every
        # gradient.
        rng = np.random.default_rng(seed)
        width, widest = 2, positions + extra
        orders = sorted({widest, *rng.integers(1, widest + 1, size=2).tolist()})
        arrays = [rng.normal(size=(5, width)),
                  *(rng.normal(size=(width, n * width)) * 0.4 for n in orders),
                  *(rng.normal(size=width) * 0.1 for _ in orders)]
        lengths = rng.integers(1, positions + 1, size=batch)
        ids = np.where(np.arange(positions) < lengths[:, None],
                       rng.integers(1, 5, size=(batch, positions)), -1)
        upstream = rng.normal(size=(len(orders) * batch, width))
        results = []
        for given_ids in (ids, np.hstack([ids, np.full((batch, extra), -1)])):
            g = Graph()
            leaves = [g.tensor(a, requires_grad=True) for a in arrays]
            out = pool_windows(leaves[0], given_ids, leaves[1:1 + len(orders)],
                               leaves[1 + len(orders):])
            g.backward(sum_all(mul(out, g.tensor(upstream))))
            results.append([out.value, *(leaf.grad for leaf in leaves)])
        for narrow, wide in zip(*results):
            assert narrow.tobytes() == wide.tobytes()

    def test_augmented_matrix_adds_one_row_per_order(self, rng):
        width = 3
        table = rng.normal(size=(6, width))
        ids = np.array([[1, 2, 3, 4, 5], [5, 5, 1, -1, -1]])
        g = Graph()
        filters = make_bank(g, width, rng)
        pooled = ngram_features(g.tensor(table), filters, ids)
        projected = g.tensor(table[np.maximum(ids, 0)])
        augmented = augment_features(projected, pooled)
        assert augmented.shape == (2, 5 + len(NGRAM_ORDERS), width)
        np.testing.assert_array_equal(augmented.value[:, :5], projected.value)
        for k in range(len(NGRAM_ORDERS)):
            for b in range(2):
                np.testing.assert_array_equal(augmented.value[b, 5 + k],
                                              pooled.value[k * 2 + b])
