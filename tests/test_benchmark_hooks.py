"""The benchmark in ``perfbench/`` times and traces the package by replacing
module attributes by name. Entering its hooks here makes a rename in the
package fail this suite, not only the benchmark's own tests."""

import os

import numpy as np
import pytest

from mvnet import TrainConfig, build_model, keyword_corpus
from mvnet.data import LabeledDocument
from mvnet.numeric import Graph, cross_entropy

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import workloads
    return layers, workloads


def recording(monkeypatch, module, installed):
    """Wrap ``module.patched`` so each entered block appends its
    (owner, attribute, original, replacement) quadruples to ``installed``."""
    patched = module.patched

    def record(replacements):
        installed.extend((owner, attr, getattr(owner, attr), value)
                         for owner, attr, value in replacements)
        return patched(replacements)

    monkeypatch.setattr(module, "patched", record)


def test_hooks_replace_and_restore_every_attribute(bench, monkeypatch):
    layers, workloads = bench
    installed = []
    recording(monkeypatch, layers, installed)
    recording(monkeypatch, workloads, installed)
    # Both hooks wrap some attributes: the first original must come back,
    # and the last replacement is the one in place inside the block.
    originals, replacements = {}, {}
    with layers.LayerTrace().active(), workloads.StepClock().install():
        for owner, attr, original, replacement in installed:
            originals.setdefault((owner, attr), original)
            replacements[(owner, attr)] = replacement
        for (owner, attr), replacement in replacements.items():
            assert getattr(owner, attr) is replacement, attr
    assert {attr for _, attr in originals} >= {
        "project", "ngram_features", "augment_features", "attention_scores",
        "attention_weights", "select", "train_epoch", "adadelta_step"}
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr


def test_traced_batch_and_predict_match_untraced(bench):
    # The traced run's wrappers pass their arguments on by position, so a
    # call whose arguments change breaks a traced training batch or predict
    # here, not only in the benchmark's own run.
    layers, _ = bench
    train, _, _ = keyword_corpus(train_size=40, dev_size=4, test_size=4, seed=3)
    model = build_model(TrainConfig(views=2, view_dim=4, embed_dim=5, conv_features=True,
                                    seed=3), train)
    # Padded: the short text is under the widest n-gram window.
    docs = [train[0], LabeledDocument(label=1, tokens=train[1].tokens[:2], raw="")]

    def batch_and_predict():
        graph = Graph()
        bound = model.bind(graph)
        logits, _ = model.forward_batch(graph, docs, bound=bound)
        graph.backward(cross_entropy(logits, [doc.label for doc in docs]))
        return logits.value, [leaf.grad for leaf in bound.values()], model.predict(docs[1])

    logits, grads, label = batch_and_predict()
    trace = layers.LayerTrace()
    with trace.active():
        traced_logits, traced_grads, traced_label = batch_and_predict()
    assert trace.tracer.counts["ngram_docs"] == 2  # the batch and the predict
    np.testing.assert_array_equal(traced_logits, logits)
    for traced, plain in zip(traced_grads, grads):
        np.testing.assert_array_equal(traced, plain)
    assert traced_label == label
