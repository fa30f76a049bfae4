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
from typing import Iterator

import numpy as np

from .config import (
    TrainConfig,
    VARIANT_CHAIN,
    VARIANT_FULL,
    VARIANT_NO_LINKS,
)
from .data import LabeledDocument
from .features import (
    NGRAM_ORDERS,
    ConvFilterBank,
    Projection,
    Vocabulary,
    augment_features,
    ngram_features,
    project,
)
from .numeric import (
    Graph,
    ShapeError,
    Tensor,
    concat_rows,
    gather_rows,
    linear,
    matvec,
    mul,
    reshape,
    softmax_vec,
    tanh_ew,
    transpose,
)


@dataclass
class SelectionHead:
    """Attention parameters for one view."""

    score_vector: Tensor   # (attention_dim,)
    row_transform: Tensor  # (attention_dim, feature_dim)


@dataclass
class ViewStack:
    """Combination matrices for the interior views, per linking variant."""

    variant: str
    matrices: list[Tensor]  # one per interior view, in view order; empty for no-links


@dataclass
class Classifier:
    out_weight: Tensor
    out_bias: Tensor
    hidden_weight: Tensor | None = None
    hidden_bias: Tensor | None = None


@dataclass
class ViewBundle:
    """Intermediates of a one-document forward pass, kept for analysis."""

    selections: list[Tensor]
    views: list[Tensor]
    attention: list[Tensor]


def attention_scores(head: SelectionHead, feature_rows: Tensor) -> Tensor:
    """One raw score per feature row: score_vector . tanh(row_transform @ row)."""
    hidden = tanh_ew(linear(feature_rows, head.row_transform))
    return matvec(hidden, head.score_vector)


def attention_weights(scores: Tensor, valid: np.ndarray | None = None) -> Tensor:
    """Softmax over each document's rows; padding rows (False in ``valid``)
    get weight 0."""
    return softmax_vec(scores, valid)


def select(weights: Tensor, feature_rows: Tensor) -> Tensor:
    """Attention-weighted sum of each document's feature rows:
    (B, R) weights and (B, R, d) rows give (B, d)."""
    if weights.ndim != 2 or feature_rows.ndim != 3 \
            or weights.shape != feature_rows.shape[:2]:
        raise ShapeError("select", f"weights {weights.shape} do not match "
                                   f"rows {feature_rows.shape}")
    return matvec(transpose(feature_rows), weights)


def compose_views(selections: list[Tensor], stack: ViewStack) -> list[Tensor]:
    """Turn per-view selections into view vectors.

    The first and last views are their selections unchanged. Interior view i
    is tanh(W_i @ inputs) with no bias, where inputs concatenate the selection
    with every earlier view (full) or just the previous view (chain). Each
    selection and view is a (B, d) block, one row per document.
    """
    count = len(selections)
    if stack.variant == VARIANT_NO_LINKS or count <= 2:
        return list(selections)
    expected = count - 2
    if len(stack.matrices) != expected:
        raise ShapeError("compose_views",
                         f"{count} views need {expected} matrices, "
                         f"got {len(stack.matrices)}")
    views = [selections[0]]
    for position in range(2, count):  # 1-based interior view numbers
        selection = selections[position - 1]
        if stack.variant == VARIANT_FULL:
            inputs = concat_rows([*views, selection], axis=-1)
        elif stack.variant == VARIANT_CHAIN:
            inputs = concat_rows([views[-1], selection], axis=-1)
        else:
            raise ValueError(f"unknown variant {stack.variant!r}")
        views.append(tanh_ew(linear(inputs, stack.matrices[position - 2])))
    views.append(selections[-1])
    return views


def classify(views: list[Tensor], classifier: Classifier,
             dropout_mask: np.ndarray | None = None) -> Tensor:
    """Concatenate each document's views and read out (B, classes) logits.

    ``dropout_mask`` (B, V * d), already inverted-scaled, multiplies the
    concatenated vectors; pass None outside training.
    """
    stacked = views[0] if len(views) == 1 else concat_rows(views, axis=-1)
    if dropout_mask is not None:
        stacked = mul(stacked, stacked.graph.tensor(dropout_mask))
    if classifier.hidden_weight is not None:
        stacked = tanh_ew(linear(stacked, classifier.hidden_weight, classifier.hidden_bias))
    return linear(stacked, classifier.out_weight, classifier.out_bias)


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
    config.validate()
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


@dataclass
class BoundMvn:
    """Graph leaves for every parameter, grouped into typed pieces."""

    leaves: "OrderedDict[str, Tensor]"
    embedding: Tensor
    projection: Projection
    conv: ConvFilterBank | None
    heads: list[SelectionHead]
    stack: ViewStack
    classifier: Classifier


class MvnModel:
    """Configuration, vocabulary, label count, and parameter arrays in one place."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary, num_classes: int,
                 params: "OrderedDict[str, np.ndarray]"):
        config.validate()
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self.config = config
        self.vocab = vocab
        self.num_classes = num_classes
        self.params = params

    @classmethod
    def create(cls, config: TrainConfig, vocab: Vocabulary, num_classes: int,
               rng: np.random.Generator,
               embedding: np.ndarray | None = None) -> "MvnModel":
        params = init_parameters(config, len(vocab), num_classes, rng, embedding)
        return cls(config, vocab, num_classes, params)

    def copy_params(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((k, v.copy()) for k, v in self.params.items())

    def bind(self, graph: Graph, leaves=None, requires_grad: bool = True) -> BoundMvn:
        """Create one leaf per parameter array on the given graph; without
        ``requires_grad`` a forward pass keeps nothing on the tape.

        A premade name -> leaf mapping (covering every parameter) can be
        passed instead, which gradient checkers use to own the leaves.
        """
        cfg = self.config
        if leaves is None:
            leaves = OrderedDict(
                (name, graph.tensor(array, requires_grad=requires_grad, name=name))
                for name, array in self.params.items())
        elif set(leaves) != set(self.params):
            raise ValueError("bind: leaf names do not match parameter names")
        heads = [SelectionHead(score_vector=leaves[f"head{i}.score_vector"],
                               row_transform=leaves[f"head{i}.row_transform"])
                 for i in range(1, cfg.views + 1)]
        if cfg.variant == VARIANT_NO_LINKS:
            matrices = []
        else:
            matrices = [leaves[f"view{i}.combine"] for i in range(2, cfg.views)]
        conv = None
        if cfg.conv_features:
            conv = ConvFilterBank({order: (leaves[f"ngram{order}.filter"],
                                           leaves[f"ngram{order}.bias"])
                                   for order in NGRAM_ORDERS})
        classifier = Classifier(
            out_weight=leaves["classifier.out_weight"],
            out_bias=leaves["classifier.out_bias"],
            hidden_weight=leaves.get("classifier.hidden_weight"),
            hidden_bias=leaves.get("classifier.hidden_bias"),
        )
        return BoundMvn(
            leaves=leaves,
            embedding=leaves["embedding"],
            projection=Projection(weight=leaves["projection.weight"],
                                  bias=leaves["projection.bias"]),
            conv=conv,
            heads=heads,
            stack=ViewStack(variant=cfg.variant, matrices=matrices),
            classifier=classifier,
        )

    def _run(self, graph: Graph, docs, mode: str, dropout_mask, bound):
        """Logits (B, classes) of a padded batch, with its per-view
        selections (B, d), views (B, d) and attention weights (B, R) over
        the R feature rows."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if not docs:
            raise ValueError("forward: no documents")
        lengths = [len(doc.tokens) for doc in docs]
        if not min(lengths):
            raise ValueError("forward: document has no tokens")
        if bound is None:
            bound = self.bind(graph)
        # Every text fills at least the widest n-gram window.
        width = max(max(lengths), max(NGRAM_ORDERS))
        ids = np.full((len(docs), width), self.vocab.pad_index, dtype=np.intp)
        for row, doc in zip(ids, docs):
            row[:len(doc.tokens)] = [self.vocab.lookup(t) for t in doc.tokens]
        padded = min(lengths) < width
        valid = None
        if padded:
            lengths = np.array(lengths)
            valid = np.arange(width) < lengths[:, None]
        feature_rows = project(gather_rows(bound.embedding, ids), bound.projection)
        if bound.conv is not None:
            pooled = ngram_features(feature_rows, bound.conv, lengths if padded else None)
            feature_rows = augment_features(feature_rows, pooled)
            if padded:
                valid = np.pad(valid, ((0, 0), (0, len(pooled))), constant_values=True)
        selections = []
        weights = []
        for head in bound.heads:
            w = attention_weights(attention_scores(head, feature_rows), valid)
            weights.append(w)
            selections.append(select(w, feature_rows))
        views = compose_views(selections, bound.stack)
        mask = dropout_mask if mode == "train" else None
        return classify(views, bound.classifier, mask), selections, views, weights

    def forward_batch(self, graph: Graph, docs, mode: str = "eval",
                      dropout_mask: np.ndarray | None = None,
                      bound: BoundMvn | None = None) -> tuple[Tensor, list[Tensor]]:
        """Full pipeline for a batch of documents in one graph: embed,
        project, optionally add pooled n-gram rows, attend per view, compose
        views, classify.

        Returns the (B, classes) logits and the V view blocks (B, d). Dropout
        applies only in train mode and only through the given (B, V * d)
        mask, so the caller owns all randomness.
        """
        logits, _, views, _ = self._run(graph, docs, mode, dropout_mask, bound)
        return logits, views

    def forward(self, graph: Graph, doc: LabeledDocument, mode: str = "eval",
                dropout_mask: np.ndarray | None = None,
                bound: BoundMvn | None = None) -> tuple[Tensor, ViewBundle]:
        """:meth:`forward_batch` for one document, with its (V * d,) dropout
        mask; returns the logit vector and the per-view selections, views and
        attention weights as vectors, the weights over the document's own
        feature rows only."""
        if dropout_mask is not None:
            dropout_mask = np.reshape(dropout_mask, (1, -1))
        logits, selections, views, weights = self._run(graph, [doc], mode,
                                                       dropout_mask, bound)
        # Feature rows are the token rows, padding up to the widest window,
        # then the pooled rows; the padding is dropped from the weights.
        length = len(doc.tokens)
        padding = max(NGRAM_ORDERS) - length
        attention = []
        for w in weights:
            flat = reshape(w, w.shape[1:])
            if padding > 0:
                flat = gather_rows(flat, np.r_[:length, length + padding:flat.shape[0]])
            attention.append(flat)
        return reshape(logits, logits.shape[1:]), ViewBundle(
            selections=[reshape(s, s.shape[1:]) for s in selections],
            views=[reshape(v, v.shape[1:]) for v in views],
            attention=attention)

    def predict(self, doc: LabeledDocument) -> int:
        graph = Graph()
        logits, _ = self.forward_batch(graph, [doc],
                                       bound=self.bind(graph, requires_grad=False))
        graph.release()
        return int(np.argmax(logits.value[0]))

    def eval_batches(self, docs):
        """Eval-mode :meth:`forward_batch` over ``docs`` in batches of
        ``config.batch_size``, in order. Yields each batch's documents, logits
        and views; a batch's tape is released once the caller moves on."""
        size = self.config.batch_size
        for start in range(0, len(docs), size):
            batch = docs[start:start + size]
            graph = Graph()
            try:
                logits, views = self.forward_batch(
                    graph, batch, bound=self.bind(graph, requires_grad=False))
                yield batch, logits, views
            finally:
                graph.release()

