"""Wrappers around mvnet's layer functions for the traced run, and the
per-layer metrics derived from the spans and counts they record.

Each function is replaced where its caller looks it up (``mvnet.model.project``
for the forward pass, ``mvnet.training.evaluate`` for ``fit``), so nothing in
the package itself changes. Backward time per op comes from wrapping each
recorded node's push just before ``Graph.backward`` walks the tape.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from mvnet import analysis, checkpoint, data, model, numeric, synthetic, training
from mvnet.features import NGRAM_ORDERS

from spans import Tracer, patched

# Ops reported by name; anything else the tape records is summed as "other".
OPS = ("leaf", "gather_rows", "matmul", "matvec", "add", "add_rowvec", "mul",
       "tanh_ew", "softmax_vec", "concat_rows", "slice_rows", "reshape",
       "transpose", "max_rows", "cross_entropy", "mean_scalars")
BACKWARD_OPS = OPS[1:]  # leaves have no push

# Adadelta touches seven float64 arrays of each parameter's size per step:
# it reads g, E[g^2], E[dx^2] and x, and writes E[g^2], E[dx^2] and x.
ADADELTA_BYTES_PER_PARAM = 7 * 8

# The traced run's root span, and the spans whose self time is the
# benchmark's own work rather than a layer's.
ROOT_SPAN = "bench.round"
HARNESS_SPANS = (ROOT_SPAN, "bench.trace_prep")


class LayerTrace:
    """A tracer plus the counts that only the wrappers can see."""

    def __init__(self):
        self.tracer = Tracer()
        self.node_counts: Counter = Counter()
        self.push_seconds: dict[str, float] = defaultdict(float)

    def _forward(self, original):
        tracer = self.tracer

        def forward(self_, graph, doc, mode="eval", dropout_mask=None, bound=None):
            tracer.counts["forward_docs"] += 1
            if mode == "train":
                tracer.counts["train_docs"] += 1
            index = tracer.open("model.forward")
            try:
                return original(self_, graph, doc, mode, dropout_mask, bound)
            finally:
                tracer.close(index)
        return forward

    def _ngram(self, original):
        tracer = self.tracer

        def ngram_features(projected, bank, pad_row=None):
            rows = projected.shape[0]
            tracer.counts["ngram_docs"] += 1
            tracer.counts["ngram_windows"] += sum(max(1, rows - order + 1)
                                                  for order in NGRAM_ORDERS)
            if pad_row is not None:
                tracer.counts["pad_row_docs"] += 1
            index = tracer.open("features.ngram")
            try:
                return original(projected, bank, pad_row)
            finally:
                tracer.close(index)
        return ngram_features

    def _counted(self, name, counter, original):
        """Span ``name`` around ``original(dataset_or_model, dataset, ...)``;
        adds the dataset length to ``counter``."""
        tracer = self.tracer

        def counted(first, dataset, *args, **kwargs):
            tracer.counts[counter] += len(dataset)
            index = tracer.open(name)
            try:
                return original(first, dataset, *args, **kwargs)
            finally:
                tracer.close(index)
        return counted

    def _backward(self, original):
        tracer = self.tracer
        node_counts = self.node_counts
        push_seconds = self.push_seconds

        def timed(push, op):
            def run(grad):
                started = perf_counter()
                push(grad)
                push_seconds[op] += perf_counter() - started
            return run

        def backward(graph, loss):
            index = tracer.open("bench.trace_prep")
            try:
                for node in graph.nodes:
                    op = node.op if node.op in OPS else "other"
                    node_counts[op] += 1
                    if node._push is not None:
                        node._push = timed(node._push, op)
            finally:
                tracer.close(index)
            index = tracer.open("numeric.backward")
            try:
                return original(graph, loss)
            finally:
                tracer.close(index)
        return backward

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper for the block."""
        wrap = self.tracer.wrap
        cls = model.MvnModel
        replacements = [
            (model, "project", wrap("features.project", model.project)),
            (model, "ngram_features", self._ngram(model.ngram_features)),
            (model, "augment_features", wrap("features.augment", model.augment_features)),
            (model, "attention_scores", wrap("model.attend", model.attention_scores)),
            (model, "attention_weights", wrap("model.attend", model.attention_weights)),
            (model, "select", wrap("model.attend", model.select)),
            (model, "compose_views", wrap("model.compose", model.compose_views)),
            (model, "classify", wrap("model.classify", model.classify)),
            (cls, "bind", wrap("model.bind", cls.bind)),
            (cls, "forward", self._forward(cls.forward)),
            (cls, "predict", wrap("model.predict", cls.predict)),
            (numeric.Graph, "backward", self._backward(numeric.Graph.backward)),
            (training, "cross_entropy", wrap("training.loss", training.cross_entropy)),
            (training, "mean_scalars", wrap("training.loss_mean", training.mean_scalars)),
            (training, "sample_dropout_mask",
             wrap("training.dropout_mask", training.sample_dropout_mask)),
            (training, "adadelta_step", wrap("training.adadelta", training.adadelta_step)),
            (training, "train_epoch", wrap("training.epoch", training.train_epoch)),
            (training, "evaluate", self._counted("training.evaluate", "evaluate_docs",
                                                 training.evaluate)),
            (training, "fit", wrap("training.fit", training.fit)),
            (training, "build_model", wrap("training.build_model", training.build_model)),
            (analysis, "extract_view_representations",
             self._counted("analysis.extract", "extract_docs",
                           analysis.extract_view_representations)),
            (analysis, "nb_train", wrap("analysis.nb_train", analysis.nb_train)),
            (analysis, "nb_predict", wrap("analysis.nb_predict", analysis.nb_predict)),
            (checkpoint, "save_checkpoint", wrap("checkpoint.save", checkpoint.save_checkpoint)),
            (checkpoint, "load_checkpoint", wrap("checkpoint.load", checkpoint.load_checkpoint)),
            (data, "save_dataset", wrap("data.save_dataset", data.save_dataset)),
            (data, "load_dataset", wrap("data.load_dataset", data.load_dataset)),
            (synthetic, "keyword_corpus", wrap("synthetic.corpus", synthetic.keyword_corpus)),
        ]
        with patched(replacements):
            yield self.tracer

    def metrics(self, param_count: int, checkpoint_bytes: int,
                untraced_round_s: float, traced_round_s: float) -> dict[str, float]:
        """Every per-layer metric, named ``<module>.<metric>``.

        Times are self times (span minus child spans) divided by the count
        the name gives; ``training.evaluate_s`` alone is inclusive: the time
        ``fit`` spends in its dev-set ``evaluate`` calls, per fit.
        """
        tracer = self.tracer
        own = tracer.self_seconds()
        calls = Counter(tracer.names)
        counts = tracer.counts

        def ms(name, per):
            return 1000.0 * own.get(name, 0.0) / per if per else 0.0

        def ratio(value, per):
            return value / per if per else 0.0

        docs = counts["forward_docs"]
        train_docs = counts["train_docs"]
        steps = calls["training.adadelta"]
        out: dict[str, float] = {}
        out["numeric.nodes_per_doc"] = ratio(sum(self.node_counts.values()), train_docs)
        for op in OPS + ("other",):
            out[f"numeric.nodes_per_doc.{op}"] = ratio(self.node_counts[op], train_docs)
        out["numeric.backward_ms_per_doc"] = ms("numeric.backward", train_docs)
        for op in BACKWARD_OPS + ("other",):
            out[f"numeric.backward_ms_per_doc.{op}"] = ratio(
                1000.0 * self.push_seconds.get(op, 0.0), train_docs)

        out["features.project_ms_per_doc"] = ms("features.project", docs)
        out["features.ngram_ms_per_doc"] = ms("features.ngram", docs)
        out["features.augment_ms_per_doc"] = ms("features.augment", docs)
        out["features.ngram_windows_per_doc"] = ratio(counts["ngram_windows"],
                                                      counts["ngram_docs"])
        out["features.pad_row_doc_frac"] = ratio(counts["pad_row_docs"], counts["ngram_docs"])

        out["model.bind_ms_per_call"] = ms("model.bind", calls["model.bind"])
        out["model.attend_ms_per_doc"] = ms("model.attend", docs)
        out["model.compose_ms_per_doc"] = ms("model.compose", docs)
        out["model.classify_ms_per_doc"] = ms("model.classify", docs)
        out["model.forward_self_ms_per_doc"] = ms("model.forward", docs)
        out["model.predict_self_ms_per_call"] = ms("model.predict", calls["model.predict"])
        out["model.param_count"] = float(param_count)

        out["training.loss_ms_per_doc"] = ratio(
            1000.0 * (own.get("training.loss", 0.0) + own.get("training.loss_mean", 0.0)),
            calls["training.loss"])
        out["training.dropout_mask_ms_per_step"] = ms("training.dropout_mask", steps)
        out["training.adadelta_ms_per_step"] = ms("training.adadelta", steps)
        out["training.adadelta_bytes_per_step"] = float(ADADELTA_BYTES_PER_PARAM * param_count)
        out["training.epoch_self_ms_per_step"] = ms("training.epoch", steps)
        out["training.fit_self_ms_per_epoch"] = ms("training.fit", calls["training.epoch"])
        dev_evaluate_s = sum(
            end - start for name, start, end, parent
            in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)
            if name == "training.evaluate" and parent >= 0
            and tracer.names[parent] == "training.fit")
        out["training.evaluate_s"] = ratio(dev_evaluate_s, calls["training.fit"])
        out["training.evaluate_self_ms_per_doc"] = ms("training.evaluate",
                                                      counts["evaluate_docs"])
        out["training.build_model_ms"] = ms("training.build_model",
                                            calls["training.build_model"])

        out["checkpoint.save_ms"] = ms("checkpoint.save", calls["checkpoint.save"])
        out["checkpoint.load_ms"] = ms("checkpoint.load", calls["checkpoint.load"])
        out["checkpoint.bytes"] = float(checkpoint_bytes)
        out["data.save_dataset_ms"] = ms("data.save_dataset", calls["data.save_dataset"])
        out["data.load_dataset_ms"] = ms("data.load_dataset", calls["data.load_dataset"])
        out["synthetic.corpus_ms"] = ms("synthetic.corpus", calls["synthetic.corpus"])

        out["analysis.extract_ms_per_doc"] = ms("analysis.extract", counts["extract_docs"])
        out["analysis.nb_train_ms"] = ms("analysis.nb_train", calls["analysis.nb_train"])
        out["analysis.nb_predict_ms_per_doc"] = ms("analysis.nb_predict",
                                                   counts["extract_docs"])

        wall = tracer.total_seconds(ROOT_SPAN)
        harness = sum(own.get(name, 0.0) for name in HARNESS_SPANS)
        out["trace.self_time_coverage_frac"] = ratio(wall - harness, wall)
        out["trace.untraced_round_s"] = untraced_round_s
        out["trace.traced_round_s"] = traced_round_s
        out["trace.overhead_frac"] = ratio(traced_round_s - untraced_round_s,
                                           untraced_round_s)
        out["trace.spans"] = float(len(tracer.names))
        return out


def layer_unit(name: str) -> str:
    """Unit read off a per-layer metric's name: ``..._ms`` and ``..._ms_per_...``
    are ms, ``..._s`` s, ``..._frac`` a fraction, ``bytes`` bytes, the rest counts."""
    metric = name.split(".", 2)[1]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "fraction"),
                         ("bytes", "bytes")):
        if metric.endswith(suffix) or f"{suffix}_per_" in metric:
            return unit
    return "count"
