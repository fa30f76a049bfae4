"""Multi-view classifier: per-view soft attention over shared feature rows,
view composition with configurable linking, and a perceptron read-out.

Each of the V views selects its own attention-weighted sum of the feature
rows. The first and last views pass their selections through unchanged;
interior views combine their selection with earlier views ("full" links to
all earlier views, "chain" only to the previous one, "no-links" to none).

A forward pass runs on a whole mini-batch at once: each document's ids are
right-padded with -1 to the longest one, and the batched ops keep that
padding out of the n-gram pools and the attention themselves, so every
document gets the result it would get alone.
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
    init_embeddings,
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
    stack_views,
    tanh_ew,
)


@dataclass
class ViewBundle:
    """Per-view selections, views and attention weights of a forward pass,
    as (B, ...) blocks of a batch or vectors of one document: values off
    the tape, carrying no gradient."""

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


def compose_views(selections: Tensor, leaves: Mapping[str, Tensor],
                  variant: str) -> Tensor:
    """The (B, V * d) stack of the views composed from the (V, B, d)
    selections by one :func:`numeric.stack_views` node, each document's
    views end to end. The first and last views are their selections.
    Interior view i is tanh(leaves["view<i>.combine"] @ inputs) with no
    bias, where inputs concatenate every earlier view (full) or just the
    previous view (chain) with the selection; under no-links every view is
    its selection.
    """
    interior = () if variant == VARIANT_NO_LINKS else range(2, selections.shape[0])
    return stack_views(selections, [leaves[f"view{i}.combine"] for i in interior])


def classify(stack: Tensor, leaves: Mapping[str, Tensor],
             dropout_mask: np.ndarray | None = None) -> Tensor:
    """Read out (B, classes) logits from the (B, V * d) view stack of
    :func:`compose_views` through the ``classifier.*`` leaves, the tanh
    hidden layer first if bound.

    ``dropout_mask`` (B, V * d), already inverted-scaled, multiplies the
    stack; pass None outside training.
    """
    if dropout_mask is not None:
        stack = mul(stack, stack.graph.tensor(dropout_mask))
    if "classifier.hidden_weight" in leaves:
        stack = tanh_ew(linear(stack, leaves["classifier.hidden_weight"],
                               leaves["classifier.hidden_bias"]))
    return linear(stack, leaves["classifier.out_weight"], leaves["classifier.out_bias"])


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
                    rng: np.random.Generator, embedding: np.ndarray,
                    ) -> "OrderedDict[str, np.ndarray]":
    """All learnable arrays, keyed by name, in :func:`parameter_layout` order.

    The embedding table is a copy of ``embedding``. Weight matrices draw
    uniform from [-r, r] with r = sqrt(6 / (fan_in + fan_out)); biases start
    at zero.
    """
    params: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, shape, init in parameter_layout(config, vocab_size, num_classes):
        if init == "embedding":
            embedding = np.ascontiguousarray(embedding, dtype=np.float64)
            if embedding.shape != shape:
                raise ValueError(f"embedding shape {embedding.shape} does not match {shape}")
            params[name] = embedding.copy()
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
        if embedding is None:
            embedding = init_embeddings(vocab, config.embed_dim, rng)
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
        views, classify. One (B, longest) id array, -1 past each document's
        end, feeds both batched ops, which handle the padding.

        Returns the (B, classes) logits and the per-view selections (B, d),
        views (B, d) and attention weights (B, R) over the R feature rows,
        padding entries at weight 0, as tensors that carry no gradient.
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
        # One slot per distinct id, <pad> first, as the row that pool_windows
        # reads past a text's end: each is projected once, then gathered per
        # token (the row-wise projection gives the same values).
        # The map's own get, bound once, is Vocabulary.lookup without a call
        # per token.
        slots = {self.vocab.pad_index: 0}
        token_id, unknown = self.vocab.index.get, self.vocab.unk_index
        ids = np.full((len(docs), max(lengths)), -1, dtype=np.intp)
        for row, doc in zip(ids, docs):
            row[:len(doc.tokens)] = [slots.setdefault(token_id(t, unknown), len(slots))
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
        heads = range(1, self.config.views + 1)
        attended, weights = attend_heads(
            table, row_index,
            [bound[f"head{i}.row_transform"] for i in heads],
            [bound[f"head{i}.score_vector"] for i in heads])
        stack = compose_views(attended, bound, self.config.variant)
        views = stack.value.reshape(len(docs), len(heads), -1).swapaxes(0, 1)
        return classify(stack, bound, dropout_mask), ViewBundle(
            selections=[graph.parameter(s) for s in attended.value],
            views=[graph.parameter(v) for v in views],
            attention=[graph.parameter(w) for w in weights])

    def forward(self, graph: Graph, doc: LabeledDocument, mode: str = "eval",
                dropout_mask: np.ndarray | None = None,
                bound: Mapping[str, Tensor] | None = None) -> tuple[Tensor, ViewBundle]:
        """:meth:`forward_batch` for one document, with its (V * d,) dropout
        mask, which applies only in train mode; returns the logit vector and
        the per-view selections, views and attention weights as vectors. A
        lone document needs no padding, so its weights cover exactly its own
        feature rows."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        mask = None
        if mode == "train" and dropout_mask is not None:
            mask = np.reshape(dropout_mask, (1, -1))
        logits, bundle = self.forward_batch(graph, [doc], mask, bound)
        return reshape(logits, logits.shape[1:]), ViewBundle(
            selections=[graph.parameter(s.value[0]) for s in bundle.selections],
            views=[graph.parameter(v.value[0]) for v in bundle.views],
            attention=[graph.parameter(w.value[0]) for w in bundle.attention])

    def predict(self, doc: LabeledDocument) -> int:
        """Predicted label of one document, scored by :meth:`eval_batches`."""
        _, _, logits, _ = next(self.eval_batches([doc]))
        return int(np.argmax(logits.value[0]))

    def eval_batches(self, docs):
        """Eval-mode :meth:`forward_batch` over ``docs``, shortest documents
        first (a stable sort), so a batch pads little. The n documents are cut
        into ``max(1, n // config.batch_size)`` consecutive batches whose sizes
        differ by at most one: a batch's cost is mostly its fixed pass over the
        weights, so no batch is a runt under ``batch_size`` unless the whole
        call is, and none holds more than ``2 * batch_size - 1``. Yields each
        batch's positions in ``docs``, documents, logits and :class:`ViewBundle`.
        A graph bound without gradients records no nodes, so a batch's
        tensors are freed once the caller lets go of them."""
        if not docs:
            return
        order = sorted(range(len(docs)), key=lambda i: len(docs[i].tokens))
        count = max(1, len(order) // self.config.batch_size)
        size, extra = divmod(len(order), count)
        for k in range(count):
            start = k * size + min(k, extra)
            positions = order[start:start + size + (k < extra)]
            batch = [docs[i] for i in positions]
            graph = Graph()
            logits, bundle = self.forward_batch(
                graph, batch, bound=self.bind(graph, requires_grad=False))
            yield positions, batch, logits, bundle
