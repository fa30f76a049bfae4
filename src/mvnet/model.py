"""Multi-view classifier: per-view soft attention over shared feature rows,
view composition with configurable linking, and a perceptron read-out.

Each of the V views selects its own attention-weighted sum of the feature
rows. The first and last views pass their selections through unchanged;
interior views combine their selection with earlier views ("full" links to
all earlier views, "chain" only to the previous one, "no-links" to none).

A forward pass runs on a whole mini-batch at once: the documents are
right-padded with the ``<pad>`` token to one length, and the padding is
masked out of the attention and the n-gram pools, so every document gets
the result it would get alone.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .config import (
    TrainConfig,
    VARIANT_CHAIN,
    VARIANT_FULL,
    VARIANT_NO_LINKS,
)
from .data import LabeledDocument
# augment_features has no caller here any more; it stays importable from
# this module because the traced benchmark run (perfbench/layers.py) wraps it.
from .features import (  # noqa: F401
    NGRAM_ORDERS,
    Vocabulary,
    augment_features,
    ngram_features,
    project,
)
from .numeric import (
    Graph,
    Tensor,
    attend_heads,
    concat_rows,
    gather_rows,
    linear,
    matvec,
    mul,
    require_finite,
    reshape,
    softmax_vec,
    tanh_ew,
    unstack,
)


@dataclass
class ViewBundle:
    """Per-view intermediates of a forward pass: selections, views and
    attention weights, as (B, ...) blocks of a batch or vectors of one
    document."""

    selections: list[Tensor]
    views: list[Tensor]
    attention: list[Tensor]


# attention_scores, attention_weights and select are one head's steps of
# numeric.attend_heads, run per head. forward_batch calls that one node
# instead; these stay as the reference the tests check it against, and
# because the traced benchmark run (perfbench/layers.py) wraps them by name.
def attention_scores(feature_rows: Tensor, row_transform: Tensor,
                     score_vector: Tensor) -> Tensor:
    """One raw score per feature row: score_vector . tanh(row_transform @ row)."""
    hidden = tanh_ew(linear(feature_rows, row_transform))
    return matvec(hidden, score_vector)


def attention_weights(scores: Tensor, valid: np.ndarray | None = None) -> Tensor:
    """Softmax over each document's rows; padding rows (False in ``valid``)
    get weight 0."""
    return softmax_vec(scores, valid)


def select(weights: Tensor, columns: Tensor) -> Tensor:
    """Attention-weighted sum of each document's feature rows, given as the
    columns of ``transpose(feature_rows)`` so that all heads share one
    transpose: (B, R) weights and (B, d, R) columns give (B, d)."""
    return matvec(columns, weights)


def compose_views(selections: list[Tensor], leaves: Mapping[str, Tensor],
                  variant: str) -> list[Tensor]:
    """Turn per-view selections into view vectors.

    The first and last views are their selections unchanged. Interior view i
    is tanh(leaves["view<i>.combine"] @ inputs) with no bias, where inputs
    concatenate the selection with every earlier view (full) or just the
    previous view (chain). Each selection and view is a (B, d) block.
    """
    count = len(selections)
    if variant == VARIANT_NO_LINKS or count <= 2:
        return list(selections)
    views = [selections[0]]
    for position in range(2, count):  # 1-based interior view numbers
        selection = selections[position - 1]
        if variant == VARIANT_FULL:
            inputs = concat_rows([*views, selection], axis=-1)
        else:
            inputs = concat_rows([views[-1], selection], axis=-1)
        views.append(tanh_ew(linear(inputs, leaves[f"view{position}.combine"])))
    views.append(selections[-1])
    return views


def classify(views: list[Tensor], leaves: Mapping[str, Tensor],
             dropout_mask: np.ndarray | None = None) -> Tensor:
    """Concatenate each document's views and read out (B, classes) logits
    through the ``classifier.*`` leaves, the tanh hidden layer first if bound.

    ``dropout_mask`` (B, V * d), already inverted-scaled, multiplies the
    concatenated vectors; pass None outside training.
    """
    stacked = views[0] if len(views) == 1 else concat_rows(views, axis=-1)
    if dropout_mask is not None:
        stacked = mul(stacked, stacked.graph.tensor(dropout_mask))
    if "classifier.hidden_weight" in leaves:
        stacked = tanh_ew(linear(stacked, leaves["classifier.hidden_weight"],
                                 leaves["classifier.hidden_bias"]))
    return linear(stacked, leaves["classifier.out_weight"], leaves["classifier.out_bias"])


def view_stack_param_count(views: int, view_dim: int, variant: str) -> int:
    """Scalar parameters used by the view-combination matrices alone."""
    if variant == VARIANT_NO_LINKS:
        return 0
    if variant == VARIANT_FULL:
        return sum(view_dim * (i * view_dim) for i in range(2, views))
    if variant == VARIANT_CHAIN:
        return max(0, views - 2) * view_dim * (2 * view_dim)
    raise ValueError(f"unknown variant {variant!r}")


def _uniform_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def _init_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = _uniform_limit(cols, rows)
    return rng.uniform(-limit, limit, size=(rows, cols))


def _init_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    limit = _uniform_limit(size, 1)
    return rng.uniform(-limit, limit, size=size)


def parameter_layout(config: TrainConfig, vocab_size: int, num_classes: int,
                     ) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Name, shape and initializer of every learnable array, in creation
    order, yielded one at a time so a reader can stop early.

    The initializer is ``"embedding"``, ``"matrix"``, ``"vector"`` or
    ``"zeros"``; see :func:`init_parameters`.
    """
    d = config.view_dim
    a = config.resolved_attention_dim()
    yield "embedding", (vocab_size, config.embed_dim), "embedding"
    yield "projection.weight", (config.embed_dim, d), "matrix"
    yield "projection.bias", (d,), "zeros"
    if config.conv_features:
        for order in NGRAM_ORDERS:
            yield f"ngram{order}.filter", (d, order * d), "matrix"
            yield f"ngram{order}.bias", (d,), "zeros"
    for i in range(1, config.views + 1):
        yield f"head{i}.row_transform", (a, d), "matrix"
        yield f"head{i}.score_vector", (a,), "vector"
    if config.variant != VARIANT_NO_LINKS:
        per_view_width = {VARIANT_FULL: (lambda i: i * d),
                          VARIANT_CHAIN: (lambda i: 2 * d)}[config.variant]
        for i in range(2, config.views):
            yield f"view{i}.combine", (d, per_view_width(i)), "matrix"
    joined = config.views * d
    if config.two_layer_classifier:
        hidden = config.resolved_hidden_dim()
        yield "classifier.hidden_weight", (hidden, joined), "matrix"
        yield "classifier.hidden_bias", (hidden,), "zeros"
        yield "classifier.out_weight", (num_classes, hidden), "matrix"
    else:
        yield "classifier.out_weight", (num_classes, joined), "matrix"
    yield "classifier.out_bias", (num_classes,), "zeros"


def init_parameters(config: TrainConfig, vocab_size: int, num_classes: int,
                    rng: np.random.Generator,
                    embedding: np.ndarray | None = None,
                    ) -> "OrderedDict[str, np.ndarray]":
    """All learnable arrays, keyed by name, in :func:`parameter_layout` order.

    Weight matrices draw uniform from [-r, r] with r = sqrt(6 / (fan_in +
    fan_out)); biases start at zero; a missing embedding table is drawn
    uniform from [-0.05, 0.05].
    """
    params: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, shape, init in parameter_layout(config, vocab_size, num_classes):
        if init == "embedding" and embedding is not None:
            embedding = np.ascontiguousarray(embedding, dtype=np.float64)
            if embedding.shape != shape:
                raise ValueError(f"embedding shape {embedding.shape} does not match {shape}")
            params[name] = embedding.copy()
        elif init == "embedding":
            params[name] = rng.uniform(-0.05, 0.05, size=shape)
        elif init == "matrix":
            params[name] = _init_matrix(rng, *shape)
        elif init == "vector":
            params[name] = _init_vector(rng, *shape)
        else:
            params[name] = np.zeros(shape)
    return params


class MvnModel:
    """Configuration, vocabulary, label count, and parameter arrays in one place."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary, num_classes: int,
                 params: "OrderedDict[str, np.ndarray]"):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self.config = config
        self.vocab = vocab
        self.num_classes = num_classes
        for name, array in params.items():
            require_finite("MvnModel", array, repr(name))
        self.params = params

    @classmethod
    def create(cls, config: TrainConfig, vocab: Vocabulary, num_classes: int,
               rng: np.random.Generator,
               embedding: np.ndarray | None = None) -> "MvnModel":
        params = init_parameters(config, len(vocab), num_classes, rng, embedding)
        return cls(config, vocab, num_classes, params)

    def copy_params(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((k, v.copy()) for k, v in self.params.items())

    def bind(self, graph: Graph, leaves=None,
             requires_grad: bool = True) -> "OrderedDict[str, Tensor]":
        """One leaf per parameter array on the given graph, keyed by name in
        :func:`parameter_layout` order and not screened again: the arrays are
        screened when the model is built and at each update. Without
        ``requires_grad`` a forward pass keeps nothing on the tape.

        A premade name -> leaf map, which gradient checkers pass to own the
        leaves, is checked against the parameter names and returned as it is.
        """
        if leaves is None:
            return OrderedDict(
                (name, graph.parameter(array, requires_grad=requires_grad, name=name))
                for name, array in self.params.items())
        if set(leaves) != set(self.params):
            raise ValueError("bind: leaf names do not match parameter names")
        return leaves

    def forward_batch(self, graph: Graph, docs,
                      dropout_mask: np.ndarray | None = None,
                      bound: Mapping[str, Tensor] | None = None,
                      ) -> tuple[Tensor, ViewBundle]:
        """Full pipeline for a padded batch of documents in one graph: embed,
        project, optionally add pooled n-gram rows, attend per view, compose
        views, classify.

        Returns the (B, classes) logits and the per-view selections (B, d),
        views (B, d) and attention weights (B, R) over the R feature rows,
        the weights as tensors that carry no gradient.
        A given (B, V * d) dropout mask is applied, so the caller owns all
        randomness. ``bound`` is a :meth:`bind` leaf map.
        """
        if not docs:
            raise ValueError("forward: no documents")
        lengths = [len(doc.tokens) for doc in docs]
        if not min(lengths):
            raise ValueError("forward: document has no tokens")
        if bound is None:
            bound = self.bind(graph)
        # With n-gram rows on, every text fills at least the widest window.
        width = max(lengths)
        if self.config.conv_features:
            width = max(width, max(NGRAM_ORDERS))
        # One slot per distinct id, <pad> first: each is projected once, then
        # gathered per token (the row-wise projection gives the same values).
        slots = {self.vocab.pad_index: 0}
        ids = np.full((len(docs), width), -1, dtype=np.intp)
        for row, doc in zip(ids, docs):
            row[:len(doc.tokens)] = [slots.setdefault(self.vocab.lookup(t), len(slots))
                                     for t in doc.tokens]
        distinct = np.fromiter(slots, dtype=np.intp, count=len(slots))
        token_rows = project(gather_rows(bound["embedding"], distinct),
                             bound["projection.weight"], bound["projection.bias"])
        # One table of distinct feature rows, addressed per document and
        # position by ``row_index``. A row's attention score depends on the
        # row alone, so one node scores the table once for all heads and
        # mixes each document's rows through the index.
        table, row_index = token_rows, ids
        if self.config.conv_features:
            # Document b's pooled row of the k-th order is table row
            # U + k * B + b, with U = len(slots) token rows before them.
            batch = len(docs)
            table = concat_rows([token_rows, ngram_features(token_rows, bound, ids)])
            row_index = np.hstack([ids, len(slots) + np.arange(batch)[:, None]
                                   + batch * np.arange(len(NGRAM_ORDERS))])
        # Past its end a document reads the <pad> row, masked out of attention.
        valid = row_index >= 0 if min(lengths) < width else None
        heads = range(1, self.config.views + 1)
        attended, weights = attend_heads(
            table, np.maximum(row_index, 0), valid,
            [bound[f"head{i}.row_transform"] for i in heads],
            [bound[f"head{i}.score_vector"] for i in heads])
        selections = unstack(attended)
        views = compose_views(selections, bound, self.config.variant)
        return classify(views, bound, dropout_mask), ViewBundle(
            selections=selections, views=views,
            attention=[graph.parameter(w) for w in weights])

    def forward(self, graph: Graph, doc: LabeledDocument, mode: str = "eval",
                dropout_mask: np.ndarray | None = None,
                bound: Mapping[str, Tensor] | None = None) -> tuple[Tensor, ViewBundle]:
        """:meth:`forward_batch` for one document, with its (V * d,) dropout
        mask, which applies only in train mode; returns the logit vector and
        the per-view selections, views and attention weights as vectors, the
        weights over the document's own feature rows only."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        mask = None
        if mode == "train" and dropout_mask is not None:
            mask = np.reshape(dropout_mask, (1, -1))
        logits, bundle = self.forward_batch(graph, [doc], mask, bound)
        # A text shorter than the widest n-gram window is padded before its
        # pooled rows; the weights keep the text's own rows only.
        pooled = len(NGRAM_ORDERS) if self.config.conv_features else 0
        attention = [graph.parameter(np.delete(w.value[0],
                                               np.s_[len(doc.tokens):w.shape[1] - pooled]))
                     for w in bundle.attention]
        return reshape(logits, logits.shape[1:]), ViewBundle(
            selections=[reshape(s, s.shape[1:]) for s in bundle.selections],
            views=[reshape(v, v.shape[1:]) for v in bundle.views],
            attention=attention)

    def predict(self, doc: LabeledDocument) -> int:
        """Predicted label of one document, scored by :meth:`eval_batches`."""
        _, _, logits, _ = next(self.eval_batches([doc]))
        return int(np.argmax(logits.value[0]))

    def eval_batches(self, docs):
        """Eval-mode :meth:`forward_batch` over ``docs`` in batches of
        ``config.batch_size``, shortest documents first (a stable sort), so a
        batch pads little. Yields each batch's positions in ``docs``, documents,
        logits and views. A graph bound without gradients records no nodes,
        so a batch's tensors are freed once the caller lets go of them."""
        size = self.config.batch_size
        order = sorted(range(len(docs)), key=lambda i: len(docs[i].tokens))
        for start in range(0, len(order), size):
            positions = order[start:start + size]
            batch = [docs[i] for i in positions]
            graph = Graph()
            logits, bundle = self.forward_batch(
                graph, batch, bound=self.bind(graph, requires_grad=False))
            yield positions, batch, logits, bundle.views
