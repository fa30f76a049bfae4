"""The three benchmark workloads and the run each of them makes.

A run sets up its inputs, builds one model and then repeats cycles until
its time is up. A cycle fits the model for one epoch on the next slice of
the train split (training continues from the previous cycle), scores the
next segment of the test split with it (``evaluate``, one ``model.predict``
call per document, and view extraction plus one naive Bayes probe per
view) and times the set-up again. The first cycle warms up; its timings
are dropped. Every kind of sample is so taken all through the run, not in
one stretch of it. Every call waits for the previous one: a closed loop
with a single client.

All library calls go through module attributes (``training.fit``,
``analysis.nb_train``) so the traced run can wrap them where callers look
them up.
"""

from __future__ import annotations

import os
import resource
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mvnet import analysis, checkpoint, config, data, synthetic, training
from mvnet.numeric import NumericError

from layers import ROOT_SPAN, LayerTrace, layer_unit
from spans import patched

# The failures a round counts and survives; anything else aborts the run.
COUNTED_ERRORS = (NumericError, ValueError)
# Every fit runs this many epochs; patience equals it, so early stopping
# never fires. One epoch already reaches the 0.95 accuracy gate.
EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict                 # TrainConfig fields; the run seed is added
    corpus: dict                 # keyword_corpus arguments for train/dev/test
    fit_docs: int                # train docs per fit: the split is fitted slice by slice
    score_docs: int              # test docs scored per cycle
    serve_corpus: dict | None = None  # separate test split, when it differs
    checkpointed: bool = False   # serve the model through save/load
    min_test_accuracy: float | None = None

    def train_config(self, seed: int) -> config.TrainConfig:
        return config.TrainConfig(**self.config, seed=seed, max_epochs=EPOCHS,
                                  patience=EPOCHS)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="keyword-short",
        why=("acceptance BENCH model and corpus; per-node Python overhead and "
             "n-gram windows dominate, so every planned tape optimisation moves it"),
        config=dict(views=4, view_dim=32, embed_dim=32, batch_size=50,
                    dropout=0.2, lr_scale=1.0, conv_features=True, variant="full"),
        corpus=dict(num_classes=4, train_size=2000, dev_size=100, test_size=400,
                    keywords_per_class=5, noise_words=30, min_len=10, max_len=20,
                    min_keywords=2, max_keywords=4),
        fit_docs=500,
        score_docs=200,
        min_test_accuracy=0.95,
    ),
    Workload(
        name="wide-noconv",
        why=("ag preset widths with n-gram rows off: n-gram changes must not move "
             "it, while backward, Adadelta and view composition dominate"),
        config=dict(views=8, view_dim=100, embed_dim=300, batch_size=23,
                    dropout=0.2, lr_scale=1.0, conv_features=False, variant="full"),
        corpus=dict(num_classes=4, train_size=1200, dev_size=100, test_size=400,
                    keywords_per_class=5, noise_words=30, min_len=10, max_len=20,
                    min_keywords=2, max_keywords=4),
        fit_docs=600,
        score_docs=200,
        min_test_accuracy=0.95,
    ),
    Workload(
        name="infer-long",
        why=("a V=8 model trained briefly, checkpointed, then serving 3-124 token "
             "docs: large n-gram windows, pad rows and a wide length spread"),
        config=dict(views=8, view_dim=32, embed_dim=32, batch_size=10,
                    dropout=0.2, lr_scale=1.0, conv_features=True, variant="full"),
        corpus=dict(num_classes=4, train_size=400, dev_size=40, test_size=0,
                    keywords_per_class=5, noise_words=30, min_len=1, max_len=40,
                    min_keywords=2, max_keywords=4),
        fit_docs=400,
        score_docs=100,
        serve_corpus=dict(num_classes=4, train_size=0, dev_size=0, test_size=400,
                          keywords_per_class=5, noise_words=30, min_len=1,
                          max_len=120, min_keywords=2, max_keywords=4),
        checkpointed=True,
    ),
)}

# The machine this was tuned on changes speed by up to a factor of two for
# ten seconds and more at a time, so no metric may come from one stretch of
# the run: every cycle adds fit, step, scoring and set-up samples.
CHUNK_DOCS = 25     # test documents per evaluate / predict / analyze sample
SETUPS_PER_CYCLE = 2


def make_inputs(workload: Workload, seed: int):
    """The generated (train, dev, test) documents; a pure function of the seed."""
    train, dev, test = synthetic.keyword_corpus(**workload.corpus, seed=seed)
    if workload.serve_corpus is not None:
        _, _, test = synthetic.keyword_corpus(**workload.serve_corpus, seed=seed)
    return train, dev, test


@dataclass
class Inputs:
    train: list
    dev: list
    test: list
    workdir: str
    checkpoint_bytes: int = 0


def setup(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Corpus, vocabulary and initial weights; for a checkpointed workload
    also a checkpoint and the test split written and loaded back. The loaded
    model only counts toward the set-up time: rounds serve the model they
    fit."""
    train, dev, test = make_inputs(workload, seed)
    model = training.build_model(workload.train_config(seed), train)
    inputs = Inputs(train=train, dev=dev, test=test, workdir=workdir)
    if workload.checkpointed:
        ckpt_path = os.path.join(workdir, "setup.ckpt")
        test_path = os.path.join(workdir, "test.tsv")
        checkpoint.save_checkpoint(ckpt_path, model)
        data.save_dataset(test_path, test)
        checkpoint.load_checkpoint(ckpt_path)
        inputs.test, _ = data.load_dataset(test_path)
        inputs.checkpoint_bytes = os.path.getsize(ckpt_path)
    return inputs


class StepClock:
    """Full mini-batch step times, taken at two call boundaries inside
    ``fit``; one clock read per step, cheap enough to leave on."""

    def __init__(self):
        self.full_steps: list[float] = []   # seconds per full mini-batch
        self._last = 0.0
        self._epoch: list[float] = []

    def install(self):
        """Context manager that wraps the two boundaries for the block."""
        train_epoch = training.train_epoch
        adadelta_step = training.adadelta_step

        def timed_epoch(model, dataset, cfg, streams, state):
            self._epoch = []
            self._last = perf_counter()
            stats = train_epoch(model, dataset, cfg, streams, state)
            self.full_steps.extend(self._epoch[:len(dataset) // cfg.batch_size])
            return stats

        def timed_step(*args, **kwargs):
            result = adadelta_step(*args, **kwargs)
            now = perf_counter()
            self._epoch.append(now - self._last)
            self._last = now
            return result

        return patched([(training, "train_epoch", timed_epoch),
                        (training, "adadelta_step", timed_step)])


def timed(fn, *args):
    started = perf_counter()
    result = fn(*args)
    return result, perf_counter() - started


@dataclass
class Samples:
    """Everything a run measures and counts, and the checks that failed."""

    fit_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    predict_s: list[float] = field(default_factory=list)  # per call
    eval_s: float = 0.0       # in evaluate calls on the test chunks
    evaluated_docs: int = 0
    gated_docs: int = 0       # scored by a model fitted on the whole train split
    gated_correct: int = 0
    analyze_s: float = 0.0    # in view extraction and the probes
    analyzed_docs: int = 0
    attempted: int = 0
    failed: int = 0
    param_count: int = 0
    problems: list[str] = field(default_factory=list)

    def drop_timings(self, clock: StepClock):
        """Forget every timing so far: the first cycle of a run warms up."""
        for samples in (clock.full_steps, self.fit_s, self.setup_s, self.predict_s):
            samples.clear()
        self.eval_s = self.analyze_s = 0.0
        self.evaluated_docs = self.analyzed_docs = 0

    def attempt(self, fn, *args):
        """(True, result), or (False, None) after a counted failure."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except COUNTED_ERRORS:
            self.failed += 1
            return False, None


def fit_once(workload: Workload, inputs: Inputs, model, cycle: int, out: Samples):
    """Fit ``model`` for one epoch on the cycle's slice of the train split;
    for a checkpointed workload save and load it and check the copy.
    Returns the model to score, or None."""
    cfg = model.config
    begin = cycle * workload.fit_docs % len(inputs.train)
    docs = inputs.train[begin:begin + workload.fit_docs]
    (ok, _), seconds = timed(out.attempt, training.fit, model, docs, inputs.dev, cfg)
    out.fit_s.append(seconds)
    if not ok:
        return None
    out.param_count = sum(v.size for v in model.params.values())
    if not workload.checkpointed:
        return model
    path = os.path.join(inputs.workdir, "trained.ckpt")
    ok, _ = out.attempt(checkpoint.save_checkpoint, path, model)
    ok, loaded = out.attempt(checkpoint.load_checkpoint, path) if ok else (False, None)
    if not ok:
        return None
    if list(loaded.params) != list(model.params) or not all(
            np.array_equal(model.params[k], loaded.params[k]) for k in model.params):
        out.problems.append("loaded checkpoint parameters differ from the trained model")
    sample = inputs.test[::10]
    if [model.predict(d) for d in sample] != [loaded.predict(d) for d in sample]:
        out.problems.append("loaded and in-memory models predict differently")
    return loaded


def score_segment(workload: Workload, inputs: Inputs, model, cycle: int,
                  trained: bool, out: Samples):
    """Score the cycle's segment of the test split chunk by chunk:
    ``evaluate``, one ``predict`` per document, and view extraction with a
    naive Bayes probe per view; then check the segment. ``trained`` says the
    model has been fitted on the whole train split, so its accuracy counts
    and is gated."""
    classes = model.num_classes
    cfg = model.config
    begin = cycle * workload.score_docs % len(inputs.test)
    segment = inputs.test[begin:begin + workload.score_docs]
    correct = tally = 0
    bad_views = bad_probes = 0
    for start in range(0, len(segment), CHUNK_DOCS):
        docs = segment[start:start + CHUNK_DOCS]
        (ok, result), seconds = timed(out.attempt, training.evaluate, model, docs)
        if ok:
            out.eval_s += seconds
            out.evaluated_docs += len(docs)
            correct += sum(result.confusion[c][c] for c in range(classes))
        for doc in docs:
            (ok, label), seconds = timed(out.attempt, model.predict, doc)
            out.predict_s.append(seconds)
            tally += ok and label == doc.label
        analyze_started = perf_counter()
        ok, views = out.attempt(analysis.extract_view_representations, model, docs)
        if ok:
            if (views.vectors.shape != (len(docs), cfg.views, cfg.view_dim)
                    or not np.isfinite(views.vectors).all()):
                bad_views += 1
            for index in range(cfg.views):
                vectors = views.view(index)
                ok, probe = out.attempt(analysis.nb_train, vectors, views.labels, classes)
                for row in vectors if ok else ():
                    ok, result = out.attempt(analysis.nb_predict, probe, row)
                    bad_probes += ok and not 0 <= result[0] < classes
            out.analyze_s += perf_counter() - analyze_started
            out.analyzed_docs += len(docs)
    if trained:
        out.gated_docs += len(segment)
        out.gated_correct += correct
        accuracy = correct / len(segment)
        if workload.min_test_accuracy is not None and accuracy < workload.min_test_accuracy:
            out.problems.append(f"test accuracy {accuracy:.4f} below "
                                f"{workload.min_test_accuracy} in cycle {cycle}")
    if tally != correct:
        out.problems.append(f"predict tally {tally} != evaluate correct count {correct}")
    if bad_views:
        out.problems.append(f"{bad_views} chunks of view vectors with a wrong shape "
                            f"or non-finite values")
    if bad_probes:
        out.problems.append(f"{bad_probes} probe predictions out of range")


def run_round(workload: Workload, seed: int, inputs: Inputs, out: Samples,
              seconds: float, warm_up: StepClock | None = None) -> float:
    """Build a model, then repeat cycles (fit a slice, score a segment, set
    up again) until one more cycle as long as the last would end after
    ``seconds``; at least one cycle per train slice, so the model is fitted
    on the whole split and the accuracy gate is checked at least once, and
    at least two. Given the run's ``warm_up`` clock, the first cycle's
    timings are dropped. Returns the round's wall time."""
    started = perf_counter()
    model = training.build_model(workload.train_config(seed), inputs.train)
    slices = len(inputs.train) // workload.fit_docs
    cycle = 0
    while True:
        cycle_started = perf_counter()
        served = fit_once(workload, inputs, model, cycle, out)
        if served is None:
            out.problems.append(f"a fit failed in cycle {cycle}, so the round stopped")
            break
        score_segment(workload, inputs, served, cycle, cycle >= slices - 1, out)
        for _ in range(SETUPS_PER_CYCLE):
            out.setup_s.append(timed(setup, workload, seed, inputs.workdir)[1])
        if warm_up is not None and cycle == 0:
            out.drop_timings(warm_up)
        cycle += 1
        now = perf_counter()
        if (cycle >= max(slices, 2)
                and now - started + (now - cycle_started) > seconds):
            break
    return perf_counter() - started


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunReport:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    detail: dict


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        workdir: str, spans_path: str | None = None) -> RunReport:
    """Set up, then measure for ``seconds``. With ``trace`` the run is three
    rounds of the fewest cycles a round makes: untraced, traced and
    untraced; the mean of the untraced two is the overhead baseline."""
    out = Samples()
    clock = StepClock()
    layer_trace = LayerTrace() if trace else None
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        inputs, setup_s = timed(setup, workload, seed, scratch)
        out.setup_s.append(setup_s)
        with clock.install():
            if layer_trace is None:
                round_s = [run_round(workload, seed, inputs, out, seconds,
                                     warm_up=clock)]
            else:
                # Untraced rounds on both sides of the traced one, so a drift
                # in machine speed cancels out of the overhead.
                round_s = [run_round(workload, seed, inputs, out, 0.0)]
                with layer_trace.active() as tracer, tracer.span(ROOT_SPAN):
                    round_s.append(run_round(workload, seed, inputs, out, 0.0))
                round_s.append(run_round(workload, seed, inputs, out, 0.0))

    detail = {"round_s": round_s, "timed_cycles": len(out.fit_s),
              "train_steps": len(clock.full_steps),
              "scored_docs": out.evaluated_docs, "predict_calls": len(out.predict_s),
              "setups": len(out.setup_s), "param_count": out.param_count,
              "problems": out.problems[:5]}
    if layer_trace is not None:
        untraced_s = (round_s[0] + round_s[2]) / 2
        layer = layer_trace.metrics(out.param_count, inputs.checkpoint_bytes,
                                    untraced_s, round_s[1])
        if spans_path is not None:
            layer_trace.tracer.write(spans_path)
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    else:
        metrics = end_to_end(workload, out, clock)
    return RunReport(correct=not out.problems and out.failed == 0,
                     attempted=out.attempted, failed=out.failed, metrics=metrics,
                     detail=detail)


def end_to_end(workload: Workload, out: Samples, clock: StepClock):
    """Every end-to-end metric. Throughputs are work over time summed across
    the run; latencies are the median and a high percentile of the per-call
    samples; ``fit_s`` and ``setup_s`` are medians over repeats."""
    step_ms = [1000.0 * s for s in clock.full_steps]
    predict_ms = [1000.0 * s for s in out.predict_s]
    batch = workload.config["batch_size"]
    median = statistics.median
    return {
        "train_docs_per_s": (1000.0 * batch * len(step_ms) / sum(step_ms), "docs/s"),
        "train_step_ms_p50": (median(step_ms), "ms"),
        "train_step_ms_p90": (percentile(step_ms, 90), "ms"),
        "fit_s": (median(out.fit_s), "s"),
        "eval_docs_per_s": (out.evaluated_docs / out.eval_s, "docs/s"),
        "predict_ms_p50": (median(predict_ms), "ms"),
        "predict_ms_p90": (percentile(predict_ms, 90), "ms"),
        "analyze_docs_per_s": (out.analyzed_docs / out.analyze_s, "docs/s"),
        "test_accuracy": (out.gated_correct / out.gated_docs, "fraction"),
        "setup_s": (median(out.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((out.attempted - out.failed) / out.attempted, "fraction"),
    }
