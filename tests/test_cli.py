"""End-to-end command line coverage on a small synthetic task."""

import json
import re
import warnings

import numpy as np
import pytest

from mvnet.cli import main
from mvnet.data import save_dataset

TINY_CFG = """\
views = 2
view_dim = 4
embed_dim = 8
batch_size = 20
max_epochs = 2
patience = 5
dropout = 0.0
lr_scale = 1.0
conv_features = false
seed = 11
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, tiny_corpus):
    root = tmp_path_factory.mktemp("cli")
    train, dev, test = tiny_corpus
    save_dataset(root / "train.tsv", train)
    save_dataset(root / "dev.tsv", dev)
    save_dataset(root / "test.tsv", test)
    (root / "tiny.cfg").write_text(TINY_CFG)
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "trained"
    code = main(["train", "--config", str(workspace / "tiny.cfg"),
                 "--train", str(workspace / "train.tsv"),
                 "--dev", str(workspace / "dev.tsv"),
                 "--out", str(out)])
    assert code == 0
    return out


def train_args(workspace, out, *extra):
    return ["train", "--train", str(workspace / "train.tsv"),
            "--dev", str(workspace / "dev.tsv"), "--out", str(out), *extra]


class TestTrain:
    def test_writes_all_artifacts(self, trained):
        assert (trained / "model.ckpt").exists()
        assert (trained / "curve.jsonl").exists()
        assert (trained / "manifest.json").exists()

    def test_manifest_records_inputs_and_config(self, workspace, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["views"] == 2
        assert manifest["config"]["lr_scale"] == 1.0
        assert set(manifest["datasets"]) == {"train", "dev"}
        for role in ("train", "dev"):
            entry = manifest["datasets"][role]
            assert len(entry["sha256"]) == 64
        assert manifest["outputs"]["checkpoint"].endswith("model.ckpt")
        assert manifest["started_at"] <= manifest["finished_at"]

    def test_curve_is_json_lines_with_epoch_fields(self, trained):
        lines = (trained / "curve.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines, start=1):
            record = json.loads(line)
            assert record["epoch"] == i
            assert set(record) == {"epoch", "train_loss", "dev_loss", "dev_accuracy"}

    def test_repeat_runs_are_byte_identical(self, workspace):
        outs = []
        for name in ("rep1", "rep2"):
            out = workspace / name
            code = main(["train", "--config", str(workspace / "tiny.cfg"),
                         "--train", str(workspace / "train.tsv"),
                         "--dev", str(workspace / "dev.tsv"), "--out", str(out)])
            assert code == 0
            outs.append(out)
        assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()
        assert (outs[0] / "curve.jsonl").read_bytes() == (outs[1] / "curve.jsonl").read_bytes()

    def test_flags_override_config_file_over_preset(self, workspace):
        out = workspace / "merged"
        code = main(["train", "--preset", "ag",
                     "--config", str(workspace / "tiny.cfg"),
                     "--views", "3", "--variant", "chain",
                     "--train", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"), "--out", str(out)])
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["views"] == 3          # flag beats the config file
        assert config["variant"] == "chain"  # flag-only setting
        assert config["view_dim"] == 4       # config file beats the preset
        assert config["batch_size"] == 20    # config file beats the preset
        assert config["embed_dim"] == 8      # config file beats the default

    def test_seed_flag_changes_the_run(self, workspace):
        a = workspace / "seed-a"
        b = workspace / "seed-b"
        for out, seed in ((a, "101"), (b, "202")):
            code = main(["train", "--config", str(workspace / "tiny.cfg"),
                         "--seed", seed,
                         "--train", str(workspace / "train.tsv"),
                         "--dev", str(workspace / "dev.tsv"), "--out", str(out)])
            assert code == 0
        assert (a / "model.ckpt").read_bytes() != (b / "model.ckpt").read_bytes()


class TestEval:
    def test_metrics_file_and_error_rate_identity(self, workspace, trained):
        out = workspace / "scored"
        code = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                     "--test", str(workspace / "test.tsv"), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["error_rate"] + 100.0 * metrics["accuracy"] == pytest.approx(100.0)
        assert metrics["examples"] == 60
        assert len(metrics["per_class"]) == 4
        confusion = np.array(metrics["confusion_matrix"])
        assert confusion.sum() == 60

    def test_unreadable_checkpoint_is_a_user_error(self, workspace, capsys):
        bogus = workspace / "bogus.ckpt"
        bogus.write_bytes(b"junkjunkjunk")
        code = main(["eval", "--checkpoint", str(bogus),
                     "--test", str(workspace / "test.tsv"),
                     "--out", str(workspace / "scored-bad")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestAblate:
    def test_report_rows_and_ensemble_stats(self, workspace):
        out = workspace / "ablation"
        code = main(["ablate", "--config", str(workspace / "tiny.cfg"),
                     "--runs", "2",
                     "--train", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--test", str(workspace / "test.tsv"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "ablation.json").read_text())
        rows = {row["name"]: row for row in report["rows"]}
        assert list(rows) == ["full", "ensemble", "no_links", "chain"]
        for row in rows.values():
            assert 0.0 <= row["test_accuracy"] <= 1.0
        ensemble = rows["ensemble"]
        assert ensemble["learners"] == 2
        assert len(ensemble["learner_accuracies"]) == 2
        mean = sum(ensemble["learner_accuracies"]) / 2
        assert ensemble["learner_mean"] == pytest.approx(mean)
        assert ensemble["learner_stdev"] >= 0.0
        csv_lines = (out / "ablation.csv").read_text().splitlines()
        assert csv_lines[0] == "name,test_accuracy"
        assert len(csv_lines) == 5


class TestSweep:
    def test_csv_and_json_agree(self, workspace):
        out = workspace / "sweep"
        code = main(["sweep-views", "--config", str(workspace / "tiny.cfg"),
                     "--views", "1,2",
                     "--train", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--test", str(workspace / "test.tsv"), "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "views,dev_accuracy,test_accuracy"
        assert len(lines) == 3
        report = json.loads((out / "sweep.json").read_text())
        assert [row["views"] for row in report["rows"]] == [1, 2]


class TestAnalyzeViews:
    def test_f1_matrix_shape(self, workspace, trained):
        out = workspace / "views"
        code = main(["analyze-views", "--checkpoint", str(trained / "model.ckpt"),
                     "--train", str(workspace / "train.tsv"),
                     "--test", str(workspace / "test.tsv"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "view_f1.json").read_text())
        matrix = np.array(report["f1"])
        assert matrix.shape == (2, 4)
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()
        csv_lines = (out / "view_f1.csv").read_text().splitlines()
        assert csv_lines[0] == "view,class0,class1,class2,class3"
        assert len(csv_lines) == 3


class TestErrorHandling:
    def test_malformed_dataset_aborts_with_code_2(self, workspace, capsys):
        bad = workspace / "bad.tsv"
        bad.write_text("0\tfine text\nnot a valid line\n")
        code = main(["train", "--config", str(workspace / "tiny.cfg"),
                     "--train", str(bad), "--dev", str(workspace / "dev.tsv"),
                     "--out", str(workspace / "bad-run")])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_missing_dataset_file_reports_cleanly(self, workspace, capsys):
        code = main(["train", "--config", str(workspace / "tiny.cfg"),
                     "--train", str(workspace / "absent.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--out", str(workspace / "missing-run")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value_reports_line(self, workspace, capsys):
        broken = workspace / "broken.cfg"
        broken.write_text("views = 2\ndropout = lots\n")
        code = main(["train", "--config", str(broken),
                     "--train", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--out", str(workspace / "broken-run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dropout" in err and ":2:" in err

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep-views"])
    def test_diverging_run_reports_one_line(self, workspace, capsys, command):
        diverging = workspace / "diverging.cfg"
        diverging.write_text(TINY_CFG + "lr_scale = 1e300\n")
        args = [command, "--config", str(diverging),
                "--train", str(workspace / "train.tsv"),
                "--dev", str(workspace / "dev.tsv"),
                "--out", str(workspace / f"diverged-{command}")]
        if command != "train":
            args += ["--test", str(workspace / "test.tsv")]
        if command == "sweep-views":
            args += ["--views", "2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args)
        assert code == 2
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert re.match(r"error: epoch 1, batch \d+: \w+: ", err), err
        assert err.count("\n") == 1

    def test_unknown_variant_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit):
            main(["train", "--variant", "ring",
                  "--train", str(workspace / "train.tsv"),
                  "--dev", str(workspace / "dev.tsv"),
                  "--out", str(workspace / "x")])
