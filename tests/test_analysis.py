"""Naive Bayes probes, per-class F-measures, view sweeps, and vote ensembles."""

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from mvnet import analysis
from mvnet.analysis import (
    GaussianNbModel,
    MissingClassError,
    class_f_measures,
    ensemble_vote,
    extract_view_representations,
    nb_predict,
    nb_train,
    view_sweep,
)
from mvnet.data import LabeledDocument
from mvnet.numeric import Graph
from mvnet.training import build_model, fit


def blob_data(rng, centers, per_class):
    vectors = []
    labels = []
    for label, center in enumerate(centers):
        vectors.append(rng.normal(size=(per_class, len(center))) * 0.1 + center)
        labels += [label] * per_class
    return np.vstack(vectors), np.array(labels)


class TestNbTrain:
    def test_means_and_variances_match_loop_oracle(self, rng):
        vectors, labels = blob_data(rng, [(0.0, 0.0), (3.0, -1.0)], 20)
        model = nb_train(vectors, labels, 2)
        for c in range(2):
            rows = [vectors[i] for i in range(len(labels)) if labels[i] == c]
            for j in range(2):
                column = [row[j] for row in rows]
                mean = sum(column) / len(column)
                var = sum((v - mean) ** 2 for v in column) / len(column)
                assert model.means[c, j] == pytest.approx(mean, rel=1e-12)
                assert model.variances[c, j] == pytest.approx(var, rel=1e-9)

    def test_priors_follow_class_frequencies(self, rng):
        vectors = rng.normal(size=(8, 3))
        labels = np.array([0, 0, 0, 0, 0, 0, 1, 1])  # 3:1 imbalance
        model = nb_train(vectors, labels, 2)
        assert model.log_priors[0] == pytest.approx(math.log(0.75), rel=1e-12)
        assert model.log_priors[1] == pytest.approx(math.log(0.25), rel=1e-12)

    def test_constant_features_get_floored_variance(self):
        vectors = np.ones((6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = nb_train(vectors, labels, 2)
        assert (model.variances > 0).all()
        label, posteriors = nb_predict(model, np.ones(2))
        assert np.isfinite(posteriors).all()
        assert label == 0  # identical likelihoods, equal priors: lowest index

    def test_floor_scales_with_data_spread(self, rng):
        vectors = np.column_stack([np.full(40, 7.0), rng.normal(size=40) * 100.0])
        labels = np.array([0, 1] * 20)
        model = nb_train(vectors, labels, 2)
        pooled_max = np.var(vectors, axis=0).max()
        np.testing.assert_allclose(model.variances[:, 0], 1e-9 * pooled_max)

    def test_missing_class_rejected(self, rng):
        vectors = rng.normal(size=(4, 2))
        with pytest.raises(MissingClassError, match="2"):
            nb_train(vectors, np.array([0, 1, 0, 1]), 3)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            nb_train(rng.normal(size=(4, 2)), np.array([0, 1]), 2)


class TestNbPredict:
    def test_log_posterior_matches_density_product(self, rng):
        vectors, labels = blob_data(rng, [(0.0, 1.0, -1.0), (2.0, -1.0, 0.5)], 15)
        model = nb_train(vectors, labels, 2)
        x = vectors[3]
        _, posteriors = nb_predict(model, x)
        for c in range(2):
            densities = [
                (1.0 / math.sqrt(2.0 * math.pi * model.variances[c, j]))
                * math.exp(-(x[j] - model.means[c, j]) ** 2 / (2.0 * model.variances[c, j]))
                for j in range(3)
            ]
            expected = model.log_priors[c] + math.log(math.prod(densities))
            assert posteriors[c] == pytest.approx(expected, abs=1e-10)

    def test_separable_blobs_classified_perfectly(self, rng):
        vectors, labels = blob_data(rng, [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)], 25)
        model = nb_train(vectors, labels, 3)
        predictions = [nb_predict(model, v)[0] for v in vectors]
        assert predictions == list(labels)

    def test_prior_breaks_likelihood_ties(self, rng):
        vectors = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(10, 2))])
        labels = np.array([0] * 30 + [1] * 10)
        model = nb_train(vectors, labels, 2)
        # force identical likelihood terms, leaving only the priors
        model = GaussianNbModel(log_priors=model.log_priors,
                                means=np.zeros_like(model.means),
                                variances=np.ones_like(model.variances))
        label, _ = nb_predict(model, np.zeros(2))
        assert label == 0

    def test_wrong_dimension_rejected(self, rng):
        vectors, labels = blob_data(rng, [(0.0, 0.0), (1.0, 1.0)], 5)
        model = nb_train(vectors, labels, 2)
        with pytest.raises(ValueError, match="dimension"):
            nb_predict(model, np.zeros(5))


class TestClassFMeasures:
    def test_matches_hand_computed_values(self):
        f1 = class_f_measures([0, 1, 1, 1, 2, 0], [0, 0, 1, 1, 2, 2], 3)
        np.testing.assert_allclose(f1, [1 / 2, 4 / 5, 2 / 3])

    def test_absent_class_scores_zero(self):
        f1 = class_f_measures([0, 0], [0, 0], 2)
        np.testing.assert_allclose(f1, [1.0, 0.0])


@dataclass
class ConstantPredictor:
    label: int

    def predict(self, doc):
        return self.label


class TestEnsembleVote:
    def docs(self, labels):
        return [LabeledDocument(label=l, tokens=["x"], raw="x") for l in labels]

    def test_majority_wins(self):
        predictors = [ConstantPredictor(1), ConstantPredictor(1), ConstantPredictor(0)]
        assert ensemble_vote(predictors, self.docs([1, 1])) == 1.0
        assert ensemble_vote(predictors, self.docs([0, 0])) == 0.0
        assert ensemble_vote(predictors, self.docs([1, 0])) == 0.5

    def test_vote_ties_go_to_lowest_class(self):
        predictors = [ConstantPredictor(0), ConstantPredictor(1)]
        assert ensemble_vote(predictors, self.docs([0])) == 1.0
        assert ensemble_vote(predictors, self.docs([1])) == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            ensemble_vote([], self.docs([0]))
        with pytest.raises(ValueError):
            ensemble_vote([ConstantPredictor(0)], [])


class TestViewRepresentations:
    def test_shapes_and_labels(self, tiny_corpus, tiny_config):
        train, dev, _ = tiny_corpus
        model = build_model(tiny_config, train)
        data = extract_view_representations(model, dev[:10])
        assert data.vectors.shape == (10, tiny_config.views, tiny_config.view_dim)
        assert data.view(1).shape == (10, tiny_config.view_dim)
        assert list(data.labels) == [d.label for d in dev[:10]]
        assert len(data) == 10

    def test_vectors_match_one_document_views_in_dataset_order(self, tiny_corpus,
                                                                tiny_config):
        # Batches run shortest first; the rows must come back in dataset order.
        train, _, test = tiny_corpus
        config = dataclasses.replace(tiny_config, batch_size=7, conv_features=True)
        model = build_model(config, train)
        docs = sorted(test[:20], key=lambda doc: -len(doc.tokens)) + [test[3]]
        data = extract_view_representations(model, docs)
        assert list(data.labels) == [doc.label for doc in docs]
        for row, doc in enumerate(docs):
            _, bundle = model.forward(Graph(), doc)
            for index, view in enumerate(bundle.views):
                np.testing.assert_allclose(data.vectors[row, index], view.value,
                                           rtol=0, atol=1e-12)

    def test_probing_trained_views_recovers_classes(self, tiny_corpus, tiny_config):
        train, dev, test = tiny_corpus
        config = dataclasses.replace(tiny_config, max_epochs=6)
        model = build_model(config, train)
        fit(model, train, dev, config)
        probe_train = extract_view_representations(model, train)
        probe_test = extract_view_representations(model, test)
        probe = nb_train(probe_train.view(0), probe_train.labels, 4)
        predictions = [nb_predict(probe, x)[0] for x in probe_test.view(0)]
        f1 = class_f_measures(predictions, probe_test.labels, 4)
        assert (f1 > 0.5).all()


class TestViewSweep:
    def test_rows_sorted_and_populated(self, tiny_corpus, tiny_config):
        train, dev, test = tiny_corpus
        config = dataclasses.replace(tiny_config, max_epochs=2)
        rows = view_sweep(config, [3, 1], train[:60], dev[:20], test[:20])
        assert [r.views for r in rows] == [1, 3]
        for row in rows:
            assert 0.0 <= row.dev_accuracy <= 1.0
            assert 0.0 <= row.test_accuracy <= 1.0

    def test_each_distinct_count_trains_once(self, tiny_corpus, tiny_config,
                                             monkeypatch):
        train, dev, test = tiny_corpus
        trained = []

        def fake_train_and_score(config, *args):
            trained.append(config.views)
            result = SimpleNamespace(best_dev_accuracy=config.views / 10)
            return None, result, SimpleNamespace(accuracy=config.views / 20)

        monkeypatch.setattr(analysis, "train_and_score", fake_train_and_score)
        rows = view_sweep(tiny_config, [2, 1, 2], train, dev, test)
        assert trained == [1, 2]
        assert [(r.views, r.dev_accuracy, r.test_accuracy) for r in rows] == \
            [(1, 0.1, 0.05), (2, 0.2, 0.1)]

    def test_rejects_empty_or_bad_counts(self, tiny_corpus, tiny_config):
        train, dev, test = tiny_corpus
        with pytest.raises(ValueError):
            view_sweep(tiny_config, [], train, dev, test)
        with pytest.raises(ValueError):
            view_sweep(tiny_config, [0, 2], train, dev, test)
