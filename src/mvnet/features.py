"""Text-side construction: tokenization, vocabulary, embedding tables, the
shared projection, and n-gram convolution vectors max-pooled over the text."""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .files import read_lines
from .numeric import (
    Tensor,
    concat_rows,
    gather_rows,
    linear,
    pool_windows,
    tanh_ew,
    transpose,
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
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.index = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def from_tokens(cls, ordered: Iterable[str]) -> "Vocabulary":
        return cls([PAD_TOKEN, UNK_TOKEN, *ordered])

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
                    dim: int) -> np.ndarray:
    """Embedding table from a text file of ``token v1 v2 ...`` lines, each
    with ``dim`` values; a file with no vectors is rejected.

    Rows for tokens present in the file are copied verbatim; every other row
    (padding and unknown included) keeps its :func:`init_embeddings` draw.
    The whole fresh table is drawn before any copy, so file coverage never
    shifts the rng stream.
    """
    vectors: dict[str, np.ndarray] = {}
    for lineno, raw in read_lines(path, EmbeddingFileError):
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
        if not np.isfinite(vector).all():
            raise EmbeddingFileError(f"{path}:{lineno}: non-finite value")
        if vector.size != dim:
            raise EmbeddingFileError(
                f"{path}:{lineno}: expected {dim} dimensions, found {vector.size}")
        vectors[token] = vector
    if not vectors:
        raise EmbeddingFileError(f"{path}: no vectors found")
    table = init_embeddings(vocab, dim, rng)
    for token, vector in vectors.items():
        slot = vocab.index.get(token)
        if slot is not None and slot >= 2:
            table[slot] = vector
    return table


def project(rows: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """tanh(row @ weight + bias) applied to every embedding row, with the
    (embed_dim, d) weight transposed once for one ``linear`` node."""
    return tanh_ew(linear(rows, transpose(weight), bias))


def ngram_features(token_rows: Tensor, leaves: Mapping[str, Tensor], ids) -> Tensor:
    """One :func:`pool_windows` node: row k * B + b of the (n * B, d) block is
    text b's pooled row of order n = ``NGRAM_ORDERS[k]`` through the leaves
    ``ngram<n>.filter`` and ``ngram<n>.bias``, ``ids`` as pool_windows takes them."""
    return pool_windows(token_rows, ids,
                        [leaves[f"ngram{order}.filter"] for order in NGRAM_ORDERS],
                        [leaves[f"ngram{order}.bias"] for order in NGRAM_ORDERS])


def augment_features(projected: Tensor, pooled: Tensor) -> Tensor:
    """Stack each text's pooled rows, from the (n * B, d) block of
    :func:`ngram_features`, under its (B, T, d) word rows: (B, T + n, d)."""
    batch = projected.shape[0]
    order_rows = np.arange(batch)[:, None] + batch * np.arange(pooled.shape[0] // batch)
    return concat_rows([projected, gather_rows(pooled, order_rows)], axis=1)
