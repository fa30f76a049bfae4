"""The benchmark in ``perfbench/`` times and traces the package by replacing
module attributes by name. Entering its hooks here makes a rename in the
package fail this suite, not only the benchmark's own tests."""

import os

import pytest

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
