"""Diagnostics: per-view Gaussian naive Bayes probes, view-count sweeps, and
majority-vote ensembles."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .model import MvnModel
from .training import compute_metrics, train_and_score

VARIANCE_FLOOR_SCALE = 1e-9


class MissingClassError(RuntimeError):
    """Training data for a probe lacks one or more classes."""


@dataclass
class ViewDataset:
    """Per-document view vectors with gold labels."""

    vectors: np.ndarray  # (count, views, view_dim)
    labels: np.ndarray   # (count,)

    def view(self, index: int) -> np.ndarray:
        return self.vectors[:, index, :]

    def __len__(self) -> int:
        return self.vectors.shape[0]


def extract_view_representations(model: MvnModel, dataset) -> ViewDataset:
    """Eval-mode view vectors for every document, in dataset order, from
    the forward passes of :meth:`MvnModel.eval_batches`."""
    if not dataset:
        raise ValueError("extract_view_representations: empty dataset")
    vectors = np.empty((len(dataset), model.config.views, model.config.view_dim))
    for positions, _, _, bundle in model.eval_batches(dataset):
        vectors[positions] = np.stack([v.value for v in bundle.views], axis=1)
    labels = [doc.label for doc in dataset]
    return ViewDataset(vectors=vectors, labels=np.array(labels, dtype=np.intp))


@dataclass
class GaussianNbModel:
    """Diagonal-Gaussian naive Bayes with empirical class priors."""

    log_priors: np.ndarray  # (classes,)
    means: np.ndarray       # (classes, dim)
    variances: np.ndarray   # (classes, dim), floored away from zero


def nb_train(vectors: np.ndarray, labels, num_classes: int) -> GaussianNbModel:
    """Fit priors and per-class feature Gaussians.

    Variances are floored at 1e-9 times the largest pooled per-feature
    variance, with an absolute floor of 1e-9 when the data is constant
    everywhere.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if vectors.ndim != 2 or vectors.shape[0] != labels.shape[0]:
        raise ValueError(f"nb_train: {vectors.shape} vectors vs {labels.shape} labels")
    counts = np.bincount(labels, minlength=num_classes)
    missing = [c for c in range(num_classes) if counts[c] == 0]
    if missing:
        raise MissingClassError(f"classes {missing} absent from probe training data")
    dim = vectors.shape[1]
    means = np.zeros((num_classes, dim))
    variances = np.zeros((num_classes, dim))
    for c in range(num_classes):
        rows = vectors[labels == c]
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0)
    floor = VARIANCE_FLOOR_SCALE * float(np.var(vectors, axis=0).max())
    if floor <= 0.0:
        floor = VARIANCE_FLOOR_SCALE
    variances = np.maximum(variances, floor)
    log_priors = np.log(counts / labels.shape[0])
    return GaussianNbModel(log_priors=log_priors, means=means, variances=variances)


def nb_predict(model: GaussianNbModel, x) -> tuple[int, np.ndarray]:
    """Most likely class and unnormalized log-posteriors; ties go to the
    lowest class index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.means.shape[1],):
        raise ValueError(f"nb_predict: feature shape {x.shape} does not match "
                         f"model dimension {model.means.shape[1]}")
    log_density = (-0.5 * np.log(2.0 * np.pi * model.variances)
                   - (x - model.means) ** 2 / (2.0 * model.variances)).sum(axis=1)
    posteriors = model.log_priors + log_density
    return int(np.argmax(posteriors)), posteriors


def class_f_measures(predictions, golds, num_classes: int) -> np.ndarray:
    """Per-class F1; 0 where precision + recall is 0."""
    metrics = compute_metrics(list(golds), list(predictions), num_classes)
    return np.array(metrics.f1)


@dataclass
class SweepRow:
    views: int
    dev_accuracy: float
    test_accuracy: float


def view_sweep(base_config: TrainConfig, view_counts, train_set, dev_set,
               test_set, embeddings_path=None, progress=None) -> list[SweepRow]:
    """Train one model per distinct view count (everything else fixed) and
    report dev/test accuracy, rows sorted by view count."""
    counts = sorted(set(int(v) for v in view_counts))
    if not counts:
        raise ValueError("view_sweep: no view counts")
    if counts[0] < 1:
        raise ValueError(f"view_sweep: view counts must be >= 1, got {counts[0]}")
    rows = []
    for views in counts:
        config = dataclasses.replace(base_config, views=views)
        _, result, test = train_and_score(config, train_set, dev_set, test_set,
                                          embeddings_path)
        row = SweepRow(views=views, dev_accuracy=result.best_dev_accuracy,
                       test_accuracy=test.accuracy)
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def ensemble_vote(predictors, dataset) -> float:
    """Accuracy of the plurality vote; vote ties go to the lowest class index."""
    predictors = list(predictors)
    if not predictors:
        raise ValueError("ensemble_vote: no predictors")
    if not dataset:
        raise ValueError("ensemble_vote: empty dataset")
    correct = 0
    for doc in dataset:
        votes = np.bincount([p.predict(doc) for p in predictors])
        if int(np.argmax(votes)) == doc.label:
            correct += 1
    return correct / len(dataset)
