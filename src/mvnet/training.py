"""Mini-batch Adadelta training with seeded shuffling and dropout, plus
evaluation metrics and early-stopping model selection."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig, seed_stream
from .data import num_classes
from .features import build_vocab, init_embeddings, load_embeddings
from .model import MvnModel
# mean_scalars has no caller here any more; it stays importable from this
# module because the traced benchmark run (perfbench/layers.py) wraps it.
from .numeric import Graph, NumericError, cross_entropy, mean_scalars, require_finite  # noqa: F401


# Block length of the Adadelta step: scratch and array slices stay in cache.
ADADELTA_BLOCK = 16384


@dataclass
class AdadeltaState:
    """Running averages of squared gradients and updates, and step scratch."""

    sq_grad: dict[str, np.ndarray]
    sq_update: dict[str, np.ndarray]
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, ADADELTA_BLOCK)),
                                repr=False, compare=False)

    @classmethod
    def for_params(cls, params) -> "AdadeltaState":
        return cls(sq_grad={k: np.zeros_like(v) for k, v in params.items()},
                   sq_update={k: np.zeros_like(v) for k, v in params.items()})


def adadelta_step(params, grads, state: AdadeltaState, lr_scale: float,
                  rho: float, eps: float):
    """One accumulated-update step, in place, per coordinate:

        Eg <- rho * Eg + (1 - rho) * g^2
        delta = sqrt(Ex + eps) / sqrt(Eg + eps) * g
        Ex <- rho * Ex + (1 - rho) * delta^2
        x  <- x - lr_scale * delta

    It runs over blocks of ``ADADELTA_BLOCK`` elements in the state's scratch,
    rounding in the order written, so it allocates no parameter-sized array
    and matches the whole-array expression bit for bit. Parameters must be
    C-contiguous: they are updated through flat views. A NaN or infinite
    value in an updated block raises ``NumericError`` naming the parameter.
    """
    for name, x in params.items():
        g = grads[name]
        if g.shape != x.shape:
            raise ValueError(f"adadelta_step: gradient shape {g.shape} does not "
                             f"match parameter shape {x.shape} for {name!r}")
        if not x.flags.c_contiguous:
            raise ValueError(f"adadelta_step: parameter {name!r} is not contiguous")
        flats = [v.reshape(-1) for v in (x, g, state.sq_grad[name], state.sq_update[name])]
        for start in range(0, x.size, ADADELTA_BLOCK):
            xb, gb, eg, ex = (f[start:start + ADADELTA_BLOCK] for f in flats)
            a, b = state.scratch[:, :gb.size]
            eg *= rho
            eg += np.multiply(np.multiply(gb, 1.0 - rho, out=a), gb, out=a)
            delta = np.sqrt(np.add(ex, eps, out=a), out=a)
            delta /= np.sqrt(np.add(eg, eps, out=b), out=b)
            delta *= gb
            ex *= rho
            ex += np.multiply(np.multiply(delta, 1.0 - rho, out=b), delta, out=b)
            xb -= np.multiply(delta, lr_scale, out=delta)
            require_finite("adadelta_step", xb, repr(name))
    return params, state


def sample_dropout_mask(rng: np.random.Generator, size,
                        rate: float) -> np.ndarray:
    """Inverted-dropout mask of ``size`` (an int or a shape): zero with
    probability ``rate``, else 1/(1-rate). A (B, n) draw is the B draws of n
    made one after another from the same stream."""
    if rate <= 0.0:
        return np.ones(size)
    keep = rng.random(size) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


@dataclass
class RngStreams:
    """The two random consumers of a training run, on separate streams."""

    shuffle: np.random.Generator
    dropout: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        return cls(shuffle=seed_stream(seed, "shuffle"),
                   dropout=seed_stream(seed, "dropout"))


@dataclass
class EpochStats:
    mean_loss: float
    accuracy: float


def train_epoch(model: MvnModel, dataset, config: TrainConfig,
                streams: RngStreams, state: AdadeltaState) -> EpochStats:
    """One pass over the shuffled data in mini-batches.

    Every batch runs as one padded forward pass on a single graph, with one
    (B, V * d) dropout draw, and its mean cross-entropy is pushed backward
    once; the trailing partial batch is used. Accuracy is measured on the
    train-mode logits as they are produced. A ``NumericError`` names the
    batch, counted from 1.

    Tensors and their graph reference each other, so each batch's tape is
    released by hand rather than left to the cyclic collector. A batch is
    released once the next batch's backward pass has allocated its
    gradients: freed then, its memory is reused by the next allocations,
    whereas freed at the end of its own step it sits at the top of the heap,
    is trimmed back to the OS and faulted in again by the next step.
    """
    if not dataset:
        raise ValueError("train_epoch: empty dataset")
    order = np.arange(len(dataset))
    streams.shuffle.shuffle(order)
    mask_width = config.views * config.view_dim
    loss_total = 0.0
    correct = 0
    previous = None
    for number, start in enumerate(range(0, len(order), config.batch_size), start=1):
        docs = [dataset[int(index)] for index in order[start:start + config.batch_size]]
        labels = np.array([doc.label for doc in docs])
        graph = Graph()
        bound = model.bind(graph)
        mask = None
        if config.dropout > 0.0:
            mask = sample_dropout_mask(streams.dropout, (len(docs), mask_width),
                                       config.dropout)
        try:
            logits, _ = model.forward_batch(graph, docs, mask, bound)
            batch_loss = cross_entropy(logits, labels)
            graph.backward(batch_loss)
            grads = {name: leaf.grad for name, leaf in bound.items()}
            adadelta_step(model.params, grads, state,
                          config.lr_scale, config.rho, config.epsilon)
        except NumericError as exc:
            exc.args = (f"batch {number}: {exc}",)
            raise
        correct += int((np.argmax(logits.value, axis=1) == labels).sum())
        if previous is not None:
            previous.release()
        previous = graph
        loss_total += batch_loss.item() * len(docs)
    previous.release()
    count = len(dataset)
    return EpochStats(mean_loss=loss_total / count, accuracy=correct / count)


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    support: list[int]
    confusion: list[list[int]]


def compute_metrics(golds, preds, num_classes: int) -> EvalResult:
    """Accuracy, per-class precision/recall/F1 (0 on empty denominators),
    and the confusion matrix. ``mean_loss`` is left as NaN."""
    golds = list(golds)
    preds = list(preds)
    if len(golds) != len(preds):
        raise ValueError(f"compute_metrics: {len(golds)} golds vs {len(preds)} predictions")
    if not golds:
        raise ValueError("compute_metrics: no examples")
    confusion = [[0] * num_classes for _ in range(num_classes)]
    for gold, pred in zip(golds, preds):
        if not 0 <= gold < num_classes or not 0 <= pred < num_classes:
            raise ValueError(f"label-space mismatch: ({gold}, {pred}) outside "
                             f"{num_classes} classes")
        confusion[gold][pred] += 1
    precision, recall, f1, support = [], [], [], []
    for c in range(num_classes):
        tp = confusion[c][c]
        fp = sum(confusion[r][c] for r in range(num_classes)) - tp
        fn = sum(confusion[c]) - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2.0 * p * r / (p + r) if p + r > 0 else 0.0)
        support.append(tp + fn)
    accuracy = sum(confusion[c][c] for c in range(num_classes)) / len(golds)
    return EvalResult(accuracy=accuracy, mean_loss=float("nan"),
                      precision=precision, recall=recall, f1=f1,
                      support=support, confusion=confusion)


def evaluate(model: MvnModel, dataset) -> EvalResult:
    """Eval-mode accuracy, mean cross-entropy, and per-class metrics, from
    forward passes in batches of ``config.batch_size``."""
    if not dataset:
        raise ValueError("evaluate: empty dataset")
    golds, preds = [], []
    loss_total = 0.0
    for _, docs, logits, _ in model.eval_batches(dataset):
        labels = [doc.label for doc in docs]
        loss_total += cross_entropy(logits, labels).item() * len(docs)
        golds.extend(labels)
        preds.extend(np.argmax(logits.value, axis=1).tolist())
    result = compute_metrics(golds, preds, model.num_classes)
    return dataclasses.replace(result, mean_loss=loss_total / len(dataset))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_loss: float
    dev_accuracy: float


@dataclass
class FitResult:
    best_epoch: int
    best_dev_accuracy: float
    best_dev_loss: float
    curve: list[EpochRecord]


def fit(model: MvnModel, train_set, dev_set, config: TrainConfig,
        progress=None) -> FitResult:
    """Train with per-epoch dev evaluation and keep the best checkpoint.

    Best means highest dev accuracy, ties broken by lower dev loss. Training
    stops once the count of epochs since the last improvement reaches
    ``patience`` (so patience 0 runs exactly one epoch), or at ``max_epochs``.
    The model is left holding the best parameters. A ``NumericError`` names
    the epoch, counted from 1.
    """
    if not train_set or not dev_set:
        raise ValueError("fit: empty train or dev set")
    streams = RngStreams.from_seed(config.seed)
    state = AdadeltaState.for_params(model.params)
    best_params = None
    best_epoch = 0
    best_accuracy = -1.0
    best_loss = float("inf")
    stale = 0
    curve: list[EpochRecord] = []
    for epoch in range(1, config.max_epochs + 1):
        try:
            stats = train_epoch(model, train_set, config, streams, state)
            dev = evaluate(model, dev_set)
        except NumericError as exc:
            exc.args = (f"epoch {epoch}, {exc}",)
            raise
        record = EpochRecord(epoch=epoch, train_loss=stats.mean_loss,
                             dev_loss=dev.mean_loss, dev_accuracy=dev.accuracy)
        curve.append(record)
        if progress is not None:
            progress(record)
        improved = (dev.accuracy > best_accuracy
                    or (dev.accuracy == best_accuracy and dev.mean_loss < best_loss))
        if improved:
            best_params = model.copy_params()
            best_epoch = epoch
            best_accuracy = dev.accuracy
            best_loss = dev.mean_loss
            stale = 0
        else:
            stale += 1
        if stale >= config.patience:
            break
    model.params = best_params
    return FitResult(best_epoch=best_epoch,
                     best_dev_accuracy=best_accuracy, best_dev_loss=best_loss,
                     curve=curve)


def build_model(config: TrainConfig, train_docs,
                embeddings_path=None) -> MvnModel:
    """Model ready to train: vocabulary from the training documents,
    embeddings loaded from file or drawn fresh, weights initialized, label
    count inferred from the training labels (see :func:`data.num_classes`)."""
    if not train_docs:
        raise ValueError("build_model: no training documents")
    classes = num_classes(train_docs)
    vocab = build_vocab([doc.tokens for doc in train_docs], config.min_count)
    embed_rng = seed_stream(config.seed, "embeddings")
    if embeddings_path:
        table = load_embeddings(embeddings_path, vocab, embed_rng, dim=config.embed_dim)
    else:
        table = init_embeddings(vocab, config.embed_dim, embed_rng)
    return MvnModel.create(config, vocab, classes,
                           seed_stream(config.seed, "init"), embedding=table)


def train_and_score(config: TrainConfig, train, dev, test, embeddings_path=None,
                    ) -> tuple[MvnModel, FitResult, EvalResult]:
    """Build a model from ``train``, fit it with ``dev`` selecting the best
    epoch, and evaluate the selected model on ``test``."""
    model = build_model(config, train, embeddings_path)
    result = fit(model, train, dev, config)
    return model, result, evaluate(model, test)
