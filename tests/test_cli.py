"""End-to-end command line coverage on a small synthetic task."""

import hashlib
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
        for view, line in enumerate(csv_lines[1:], start=1):
            cells = line.split(",")
            assert cells[0] == str(view)
            assert [float(cell) for cell in cells[1:]] == report["f1"][view - 1]


class TestManifest:
    @pytest.mark.parametrize("command,roles", [
        ("eval", {"checkpoint", "test"}),
        ("ablate", {"train", "dev", "test", "embeddings"}),
        ("sweep-views", {"train", "dev", "test", "embeddings"}),
        ("analyze-views", {"checkpoint", "train", "test"})])
    def test_records_every_input_file(self, workspace, trained, command, roles):
        vectors = workspace / "manifest-vectors.txt"
        vectors.write_text("alpha " + " ".join(["0.1"] * 8) + "\n")
        paths = {"checkpoint": trained / "model.ckpt", "train": workspace / "train.tsv",
                 "dev": workspace / "dev.tsv", "test": workspace / "test.tsv",
                 "embeddings": vectors}
        out = workspace / f"manifest-{command}"
        args = [command, "--out", str(out)]
        for role in sorted(roles):
            args += [f"--{role}", str(paths[role])]
        if "embeddings" in roles:
            args += ["--config", str(workspace / "tiny.cfg")]
        args += {"ablate": ["--runs", "1"], "sweep-views": ["--views", "1"]}.get(command, [])
        assert main(args) == 0
        datasets = json.loads((out / "manifest.json").read_text())["datasets"]
        assert set(datasets) == roles
        for role in roles:
            assert datasets[role] == {
                "path": str(paths[role]),
                "sha256": hashlib.sha256(paths[role].read_bytes()).hexdigest()}


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

    def test_more_classes_than_documents_reports_one_line(self, workspace, capsys):
        labels = workspace / "labels.tsv"
        labels.write_text("0\tred apple\n1\tblue sky\n40\tgreen grass\n")
        code = main(["train", "--config", str(workspace / "tiny.cfg"),
                     "--train", str(labels), "--dev", str(workspace / "dev.tsv"),
                     "--out", str(workspace / "labels-run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "41 classes" in err
        assert err.count("\n") == 1

    def test_non_finite_embeddings_report_one_line(self, workspace, capsys):
        vectors = workspace / "nan-vectors.txt"
        vectors.write_text("alpha " + " ".join(["nan"] + ["0.1"] * 7) + "\n")
        code = main(["train", "--config", str(workspace / "tiny.cfg"),
                     "--train", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--embeddings", str(vectors), "--out", str(workspace / "nan-run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {vectors}:1: non-finite value\n"

    def test_blank_embeddings_file_reports_one_line(self, workspace, capsys):
        vectors = workspace / "blank-vectors.txt"
        vectors.write_text("\n\n")
        code = main(["train", "--config", str(workspace / "tiny.cfg"),
                     "--train", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--embeddings", str(vectors), "--out", str(workspace / "blank-run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {vectors}: no vectors found\n"

    @pytest.mark.parametrize("command,role", [
        ("train", "dev"), ("eval", "test"), ("ablate", "dev"), ("ablate", "test"),
        ("sweep-views", "test"), ("analyze-views", "test")])
    def test_label_beyond_the_class_count_reports_its_line(self, workspace, trained,
                                                           capsys, command, role):
        # The training labels are 0-3, so the model has 4 classes.
        bad = workspace / f"label-{command}-{role}.tsv"
        bad.write_text("0\tred apple\n1\tblue sky\n7\tgreen grass\n")
        paths = {"train": workspace / "train.tsv", "dev": workspace / "dev.tsv",
                 "test": workspace / "test.tsv", role: bad}
        roles = {"train": ("train", "dev"), "eval": ("test",),
                 "analyze-views": ("train", "test")}.get(command, ("train", "dev", "test"))
        args = [command, "--out", str(workspace / f"label-{command}-{role}-run")]
        if command in ("eval", "analyze-views"):
            args += ["--checkpoint", str(trained / "model.ckpt")]
        else:
            args += ["--config", str(workspace / "tiny.cfg")]
        if command == "sweep-views":
            args += ["--views", "2"]
        for name in roles:
            args += [f"--{name}", str(paths[name])]
        code = main(args)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}:3: label 7 out of range for 4 classes\n"

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

    @pytest.mark.parametrize("command,flag,path", [
        ("train", "--train", "."), ("train", "--config", "."), ("train", "--embeddings", "."),
        ("eval", "--checkpoint", "."), ("train", "--out", "train.tsv"),
        ("eval", "--out", "train.tsv/sub")])
    def test_unusable_path_reports_one_line(self, workspace, trained, capsys,
                                            command, flag, path):
        # A directory where a file is read; an --out that is, or lies under, a file.
        out = str(workspace / f"path-{command}")
        args = {"train": train_args(workspace, out),
                "eval": ["eval", "--checkpoint", str(trained / "model.ckpt"),
                         "--test", str(workspace / "test.tsv"), "--out", out]}[command]
        code = main(args + [flag, str(workspace / path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_rejected_before_training(self, workspace, capsys, runs):
        out = workspace / f"runs{runs}"
        code = main(["ablate", "--config", str(workspace / "tiny.cfg"), "--runs", runs,
                     "--train", str(workspace / "train.tsv"),
                     "--dev", str(workspace / "dev.tsv"),
                     "--test", str(workspace / "test.tsv"), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --runs must be at least 1, got {runs}\n"
        assert captured.out == ""
        assert not (out / "ablation.json").exists()

    def test_unknown_variant_rejected_by_parser(self, workspace):
        with pytest.raises(SystemExit):
            main(["train", "--variant", "ring",
                  "--train", str(workspace / "train.tsv"),
                  "--dev", str(workspace / "dev.tsv"),
                  "--out", str(workspace / "x")])
