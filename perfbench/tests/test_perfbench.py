"""Tests of the benchmark itself: input generation, self-time arithmetic,
the metric names against BENCHMARK.json, and one short run per workload.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from layers import LayerTrace
from spans import Tracer, self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def input_bytes(workload, seed):
    splits = workloads.make_inputs(workload, seed)
    return "\n".join(f"{doc.label}\t{doc.raw}" for split in splits
                     for doc in split).encode("utf-8")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = input_bytes(workload, 3)
    assert first == input_bytes(workload, 3)
    assert first != input_bytes(workload, 4)


def test_workloads_match_benchmark_json():
    spec = benchmark_spec()
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()]


class TestSelfTime:
    def test_nested_tree(self):
        # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        parents = [-1, 0, 1, 0]
        assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_and_overhanging_children_counted_once(self):
        # children [1, 4] and [3, 6] overlap; [8, 12] overhangs the parent's end
        starts = [0.0, 1.0, 3.0, 8.0]
        ends = [10.0, 4.0, 6.0, 12.0]
        parents = [-1, 0, 0, 0]
        assert self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 4.0]

    def test_self_seconds_sums_by_name(self):
        tracer = Tracer()
        tracer.names = ["root", "leaf", "leaf"]
        tracer.starts = [0.0, 1.0, 4.0]
        tracer.ends = [6.0, 2.0, 6.0]
        tracer.parents = [-1, 0, 0]
        assert tracer.self_seconds() == {"root": 3.0, "leaf": 3.0}

    def test_spans_close_in_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.parents == [-1, 0]
        assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]


TINY = workloads.Workload(
    name="tiny", why="test only",
    config=dict(views=3, view_dim=8, embed_dim=8, batch_size=10, dropout=0.2,
                lr_scale=1.0, conv_features=True, variant="full"),
    corpus=dict(num_classes=4, train_size=80, dev_size=8, test_size=0,
                min_len=1, max_len=8),
    fit_docs=40,
    score_docs=24,
    serve_corpus=dict(num_classes=4, train_size=0, dev_size=0, test_size=24,
                      min_len=1, max_len=12),
    checkpointed=True,
)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    report = workloads.run(TINY, 5, 0.001, True, str(tmp_path))
    assert report.correct
    names = [m["name"] for m in benchmark_spec()["per_layer"]]
    assert sorted(report.metrics) == sorted(names)
    values = {name: value for name, (value, _) in report.metrics.items()}
    assert values["trace.self_time_coverage_frac"] > 0.9
    assert values["numeric.nodes_per_doc"] == pytest.approx(sum(
        v for k, v in values.items() if k.startswith("numeric.nodes_per_doc.")))
    assert values["features.pad_row_doc_frac"] > 0


def test_exact_counts_repeat(tmp_path):
    exact = ("numeric.nodes_per_doc", "features.ngram_windows_per_doc",
             "features.pad_row_doc_frac", "model.param_count")
    runs = [workloads.run(TINY, 6, 0.001, True, str(tmp_path)) for _ in range(2)]
    for name in exact:
        assert runs[0].metrics[name] == runs[1].metrics[name]


def test_layer_trace_restores_wrapped_functions():
    from mvnet import model, training
    before = (model.ngram_features, training.evaluate, model.MvnModel.forward)
    with LayerTrace().active():
        assert model.ngram_features is not before[0]
    assert (model.ngram_features, training.evaluate, model.MvnModel.forward) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_output_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    report = workloads.run(workload, 1, 0.001, False, str(tmp_path))
    assert report.correct, report.detail["problems"]
    assert report.failed == 0 and report.attempted > 0
    names = [m["name"] for m in benchmark_spec()["end_to_end"]]
    assert sorted(report.metrics) == sorted(names)
    assert all(value > 0 for value, _ in report.metrics.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keyword-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
