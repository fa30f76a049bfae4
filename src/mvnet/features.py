"""Text-side construction: tokenization, vocabulary, embedding tables, the
shared projection, and n-gram convolution vectors max-pooled over the text."""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numeric import (
    ShapeError,
    Tensor,
    add_rowvec,
    concat_rows,
    linear,
    matmul,
    max_rows,
    reshape,
    tanh_ew,
    unfold,
)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
NGRAM_ORDERS = (2, 3, 4, 5)


class EmbeddingFileError(RuntimeError):
    """Malformed embedding file; the message carries path and line number."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges."""
    tokens = []
    for piece in text.lower().split():
        token = piece.strip(string.punctuation)
        if token:
            tokens.append(token)
    return tokens


@dataclass
class Vocabulary:
    """Dense token -> index map with reserved padding (0) and unknown (1) slots."""

    tokens: list[str]
    index: dict[str, int]

    @classmethod
    def from_tokens(cls, ordered: Iterable[str]) -> "Vocabulary":
        tokens = [PAD_TOKEN, UNK_TOKEN, *ordered]
        return cls(tokens=tokens, index={t: i for i, t in enumerate(tokens)})

    @property
    def pad_index(self) -> int:
        return 0

    @property
    def unk_index(self) -> int:
        return 1

    def lookup(self, token: str) -> int:
        return self.index.get(token, 1)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def build_vocab(corpus: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Tokens seen at least ``min_count`` times, in first-appearance order."""
    counts: dict[str, int] = {}
    saw_any = False
    for doc in corpus:
        saw_any = True
        for token in doc:
            counts[token] = counts.get(token, 0) + 1
    if not saw_any:
        raise ValueError("build_vocab: empty corpus")
    kept = [t for t, c in counts.items()
            if c >= min_count and t not in (PAD_TOKEN, UNK_TOKEN)]
    return Vocabulary.from_tokens(kept)


def init_embeddings(vocab: Vocabulary, dim: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Fresh table, every row uniform in [-0.05, 0.05]."""
    return rng.uniform(-0.05, 0.05, size=(len(vocab), dim))


def load_embeddings(path, vocab: Vocabulary, rng: np.random.Generator,
                    dim: int | None = None) -> np.ndarray:
    """Embedding table from a text file of ``token v1 v2 ...`` lines.

    Rows for tokens present in the file are copied verbatim; every other row
    (padding and unknown included) stays at its uniform [-0.05, 0.05] draw.
    The random fill happens in one call before any copy, so file coverage
    never shifts the rng stream.
    """
    vectors: dict[str, np.ndarray] = {}
    width = dim
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split(" ")
            token, values = fields[0], fields[1:]
            if not token or not values:
                raise EmbeddingFileError(f"{path}:{lineno}: expected 'token v1 v2 ...'")
            try:
                vector = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise EmbeddingFileError(f"{path}:{lineno}: non-numeric value") from None
            if width is None:
                width = vector.size
            elif vector.size != width:
                raise EmbeddingFileError(
                    f"{path}:{lineno}: expected {width} dimensions, found {vector.size}")
            vectors[token] = vector
    if width is None:
        raise EmbeddingFileError(f"{path}: no vectors found")
    table = rng.uniform(-0.05, 0.05, size=(len(vocab), width))
    for token, vector in vectors.items():
        slot = vocab.index.get(token)
        if slot is not None and slot >= 2:
            table[slot] = vector
    return table


@dataclass
class Projection:
    """Shared affine map plus tanh taking embedding rows to feature rows."""

    weight: Tensor  # (embed_dim, feature_dim)
    bias: Tensor    # (feature_dim,)


@dataclass
class ConvFilterBank:
    """One filter and bias per n-gram order; output width is the feature dim."""

    filters: dict[int, tuple[Tensor, Tensor]]  # order -> (weight (d, n*d), bias (d,))

    def __post_init__(self):
        if tuple(sorted(self.filters)) != NGRAM_ORDERS:
            raise ValueError(f"filter bank must cover orders {NGRAM_ORDERS}, "
                             f"got {sorted(self.filters)}")


def project(rows: Tensor, proj: Projection) -> Tensor:
    """tanh(row @ weight + bias) applied to every embedding row."""
    return tanh_ew(add_rowvec(matmul(rows, proj.weight), proj.bias))


def ngram_features(projected: Tensor, bank: ConvFilterBank,
                   lengths: np.ndarray | None = None) -> list[Tensor]:
    """One pooled vector per n-gram order, for one text (rows, d) or for
    each text of a padded batch (B, T, d).

    Each window of n consecutive projected rows is flattened (one ``unfold``
    per order), pushed through the order's filter with tanh, and the results
    are max-pooled over window positions. The rows past a text's length (its
    entry in ``lengths``; None means no text is padded) must be projected pad
    rows. They fill the single window of a text shorter than n and are
    masked out of every other text's pool, so the row count must reach the
    largest order.
    """
    if projected.ndim not in (2, 3):
        raise ShapeError("ngram_features",
                         f"expected rows or a batch of rows, got {projected.shape}")
    rows = projected.shape[-2]
    if rows < max(NGRAM_ORDERS):
        raise ShapeError("ngram_features",
                         f"{rows} rows are fewer than the order-{max(NGRAM_ORDERS)} "
                         f"window; pad the text with pad rows")
    pooled = []
    for order in NGRAM_ORDERS:
        weight, bias = bank.filters[order]
        valid = None
        if lengths is not None:
            # Window p is valid while it ends inside the text; a short text
            # keeps its first window.
            last = np.maximum(np.asarray(lengths) - order, 0)
            valid = np.arange(rows - order + 1) <= np.expand_dims(last, -1)
        activations = tanh_ew(linear(unfold(projected, order), weight, bias))
        pooled.append(max_rows(activations, valid))
    return pooled


def augment_features(projected: Tensor, ngram_vectors: Sequence[Tensor]) -> Tensor:
    """Stack the pooled n-gram vectors under the projected word rows of each
    text: (..., T, d) and n vectors (..., d) give (..., T + n, d)."""
    row_shape = projected.shape[:-2] + (1, projected.shape[-1])
    extra = [reshape(v, row_shape) for v in ngram_vectors]
    return concat_rows([projected, *extra], axis=projected.ndim - 2)
