"""Command line front end: train, eval, ablate, sweep-views, analyze-views."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (
    MissingClassError,
    class_f_measures,
    ensemble_vote,
    extract_view_representations,
    nb_predict,
    nb_train,
    view_sweep,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    ConfigError,
    PRESET_NAMES,
    TrainConfig,
    VARIANT_CHAIN,
    VARIANT_FULL,
    VARIANT_NO_LINKS,
    VARIANTS,
    config_to_dict,
    load_config,
    preset,
)
from .data import DatasetError, load_dataset
from .features import EmbeddingFileError
from .files import atomic_open
from .model import view_stack_param_count
from .numeric import NumericError
from .training import build_model, evaluate, fit

# NumericError covers a run that diverges: it names the op that first
# produced a non-finite value.
_USER_ERRORS = (ConfigError, DatasetError, EmbeddingFileError, CheckpointError,
                MissingClassError, NumericError, FileNotFoundError, ValueError)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, payload) -> None:
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass
class RunManifest:
    """Everything needed to replay a command: resolved config, input
    checksums, seed, and the artifacts it produced."""

    command: str
    seed: int
    config: dict
    datasets: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    started_at: str = ""
    finished_at: str = ""

    def add_dataset(self, role: str, path) -> None:
        self.datasets[role] = {"path": str(path), "sha256": _sha256(path)}

    def add_output(self, role: str, path) -> None:
        self.outputs[role] = str(path)

    def write(self, path) -> None:
        self.finished_at = _utc_now()
        _write_json(path, dataclasses.asdict(self))


def _resolve_config(args) -> TrainConfig:
    base = preset(args.preset) if getattr(args, "preset", None) else TrainConfig()
    if getattr(args, "config", None):
        base = load_config(args.config, base=base)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    views = getattr(args, "views", None)
    if views is not None and isinstance(views, int):
        overrides["views"] = views
    if getattr(args, "variant", None):
        overrides["variant"] = args.variant
    if getattr(args, "conv_features", None):
        overrides["conv_features"] = args.conv_features == "on"
    config = dataclasses.replace(base, **overrides)
    config.validate()
    return config


def _manifest_for(args, config: TrainConfig, roles) -> RunManifest:
    manifest = RunManifest(command=args.command, seed=config.seed,
                           config=config_to_dict(config), started_at=_utc_now())
    for role in roles:
        manifest.add_dataset(role, getattr(args, role))
    return manifest


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_role(args, role: str):
    docs, malformed = load_dataset(getattr(args, role))
    if malformed:
        print(f"note: skipped {malformed} malformed line(s) in {getattr(args, role)}")
    return docs


def _epoch_printer(record) -> None:
    print(f"epoch {record.epoch:3d}  train_loss={record.train_loss:.4f}  "
          f"dev_loss={record.dev_loss:.4f}  dev_acc={record.dev_accuracy:.4f}")


def cmd_train(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    manifest = _manifest_for(args, config, ("train", "dev"))
    if args.embeddings:
        manifest.add_dataset("embeddings", args.embeddings)
    train_docs = _load_role(args, "train")
    dev_docs = _load_role(args, "dev")
    model = build_model(config, train_docs, args.embeddings)
    result = fit(model, train_docs, dev_docs, config, progress=_epoch_printer)
    checkpoint_path = out / "model.ckpt"
    save_checkpoint(checkpoint_path, model)
    curve_path = out / "curve.jsonl"
    with atomic_open(curve_path) as handle:
        for record in result.curve:
            handle.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    manifest.add_output("checkpoint", checkpoint_path)
    manifest.add_output("curve", curve_path)
    manifest.write(out / "manifest.json")
    print(f"best epoch {result.best_epoch}: dev_acc={result.best_dev_accuracy:.4f} "
          f"dev_loss={result.best_dev_loss:.4f}")
    print(f"wrote {checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    out = _out_dir(args)
    manifest = RunManifest(command=args.command, seed=model.config.seed,
                           config=config_to_dict(model.config), started_at=_utc_now())
    manifest.add_dataset("test", args.test)
    docs = _load_role(args, "test")
    result = evaluate(model, docs)
    payload = {
        "accuracy": result.accuracy,
        "error_rate": 100.0 - 100.0 * result.accuracy,
        "mean_loss": result.mean_loss,
        "examples": len(docs),
        "per_class": [
            {"class": c, "precision": result.precision[c], "recall": result.recall[c],
             "f1": result.f1[c], "support": result.support[c]}
            for c in range(model.num_classes)
        ],
        "confusion_matrix": result.confusion,
    }
    metrics_path = out / "metrics.json"
    _write_json(metrics_path, payload)
    manifest.add_output("metrics", metrics_path)
    manifest.write(out / "manifest.json")
    print(f"accuracy={result.accuracy:.4f}  error_rate={payload['error_rate']:.2f}  "
          f"mean_loss={result.mean_loss:.4f}")
    return 0


def _train_once(config: TrainConfig, train_docs, dev_docs, embeddings_path):
    model = build_model(config, train_docs, embeddings_path)
    result = fit(model, train_docs, dev_docs, config)
    return model, result


def cmd_ablate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    manifest = _manifest_for(args, config, ("train", "dev", "test"))
    train_docs = _load_role(args, "train")
    dev_docs = _load_role(args, "dev")
    test_docs = _load_role(args, "test")
    rows = []

    def variant_row(name: str, variant: str) -> None:
        variant_config = dataclasses.replace(config, variant=variant)
        model, _ = _train_once(variant_config, train_docs, dev_docs, args.embeddings)
        accuracy = evaluate(model, test_docs).accuracy
        rows.append({
            "name": name,
            "test_accuracy": accuracy,
            "view_stack_params": view_stack_param_count(
                config.views, config.view_dim, variant),
        })
        print(f"{name:10s} test_acc={accuracy:.4f}")

    variant_row("full", VARIANT_FULL)

    learners = args.runs if args.runs else config.views
    models = []
    accuracies = []
    for i in range(learners):
        learner_config = dataclasses.replace(config, views=1, seed=config.seed + 1 + i)
        model, _ = _train_once(learner_config, train_docs, dev_docs, args.embeddings)
        models.append(model)
        accuracies.append(evaluate(model, test_docs).accuracy)
    vote = ensemble_vote(models, test_docs)
    spread = statistics.stdev(accuracies) if len(accuracies) >= 2 else 0.0
    rows.append({
        "name": "ensemble",
        "test_accuracy": vote,
        "learners": learners,
        "learner_accuracies": accuracies,
        "learner_mean": statistics.fmean(accuracies),
        "learner_stdev": spread,
    })
    print(f"{'ensemble':10s} test_acc={vote:.4f}  "
          f"learners={statistics.fmean(accuracies):.4f} ± {spread:.4f}")

    variant_row("no_links", VARIANT_NO_LINKS)
    variant_row("chain", VARIANT_CHAIN)

    report_path = out / "ablation.json"
    _write_json(report_path, {"rows": rows})
    csv_path = out / "ablation.csv"
    with atomic_open(csv_path) as handle:
        handle.write("name,test_accuracy\n")
        for row in rows:
            handle.write(f"{row['name']},{row['test_accuracy']!r}\n")
    manifest.add_output("report", report_path)
    manifest.add_output("csv", csv_path)
    manifest.write(out / "manifest.json")
    return 0


def cmd_sweep_views(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    manifest = _manifest_for(args, config, ("train", "dev", "test"))
    train_docs = _load_role(args, "train")
    dev_docs = _load_role(args, "dev")
    test_docs = _load_role(args, "test")
    counts = [int(v) for v in args.views.split(",") if v.strip()]
    rows = view_sweep(config, counts, train_docs, dev_docs, test_docs,
                      args.embeddings,
                      progress=lambda row: print(
                          f"views={row.views}  dev_acc={row.dev_accuracy:.4f}  "
                          f"test_acc={row.test_accuracy:.4f}"))
    csv_path = out / "sweep.csv"
    with atomic_open(csv_path) as handle:
        handle.write("views,dev_accuracy,test_accuracy\n")
        for row in rows:
            handle.write(f"{row.views},{row.dev_accuracy!r},{row.test_accuracy!r}\n")
    json_path = out / "sweep.json"
    _write_json(json_path, {"rows": [dataclasses.asdict(r) for r in rows]})
    manifest.add_output("csv", csv_path)
    manifest.add_output("report", json_path)
    manifest.write(out / "manifest.json")
    return 0


def cmd_analyze_views(args) -> int:
    model = load_checkpoint(args.checkpoint)
    out = _out_dir(args)
    manifest = RunManifest(command=args.command, seed=model.config.seed,
                           config=config_to_dict(model.config), started_at=_utc_now())
    manifest.add_dataset("train", args.train)
    manifest.add_dataset("test", args.test)
    train_docs = _load_role(args, "train")
    test_docs = _load_role(args, "test")
    train_views = extract_view_representations(model, train_docs)
    test_views = extract_view_representations(model, test_docs)
    classes = model.num_classes
    matrix = np.zeros((model.config.views, classes))
    for i in range(model.config.views):
        probe = nb_train(train_views.view(i), train_views.labels, classes)
        predictions = [nb_predict(probe, x)[0] for x in test_views.view(i)]
        matrix[i] = class_f_measures(predictions, test_views.labels, classes)
    json_path = out / "view_f1.json"
    _write_json(json_path, {"views": model.config.views, "classes": classes,
                            "f1": matrix.tolist()})
    csv_path = out / "view_f1.csv"
    with atomic_open(csv_path) as handle:
        handle.write("view," + ",".join(f"class{c}" for c in range(classes)) + "\n")
        for i in range(model.config.views):
            handle.write(f"{i + 1}," + ",".join(repr(v) for v in matrix[i]) + "\n")
    manifest.add_output("report", json_path)
    manifest.add_output("csv", csv_path)
    manifest.write(out / "manifest.json")
    for i in range(model.config.views):
        print(f"view {i + 1}: " + "  ".join(f"F1[{c}]={matrix[i, c]:.3f}"
                                            for c in range(classes)))
    return 0


def _add_config_options(parser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--preset", choices=PRESET_NAMES,
                        help="named hyperparameter bundle applied before the config file")
    parser.add_argument("--seed", type=int, help="override the run seed")


def _add_model_options(parser) -> None:
    parser.add_argument("--views", type=int, help="number of views")
    parser.add_argument("--variant", choices=VARIANTS, help="view linking variant")
    parser.add_argument("--conv-features", choices=("on", "off"),
                        dest="conv_features", help="toggle pooled n-gram feature rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvn", description="Multi-view attention text classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_config_options(train)
    _add_model_options(train)
    train.add_argument("--train", required=True, help="training set (label<TAB>text)")
    train.add_argument("--dev", required=True, help="development set for model selection")
    train.add_argument("--embeddings", help="token embedding text file")
    train.add_argument("--out", required=True, help="output directory")
    train.set_defaults(func=cmd_train)

    evaluate_cmd = sub.add_parser("eval", help="score a checkpoint on a dataset")
    evaluate_cmd.add_argument("--checkpoint", required=True)
    evaluate_cmd.add_argument("--test", required=True)
    evaluate_cmd.add_argument("--out", required=True)
    evaluate_cmd.set_defaults(func=cmd_eval)

    ablate = sub.add_parser(
        "ablate", help="compare full, single-view ensemble, no-links, and chain")
    _add_config_options(ablate)
    _add_model_options(ablate)
    ablate.add_argument("--train", required=True)
    ablate.add_argument("--dev", required=True)
    ablate.add_argument("--test", required=True)
    ablate.add_argument("--embeddings")
    ablate.add_argument("--runs", type=int,
                        help="single-view learners in the ensemble (default: view count)")
    ablate.add_argument("--out", required=True)
    ablate.set_defaults(func=cmd_ablate)

    sweep = sub.add_parser("sweep-views", help="train once per view count")
    _add_config_options(sweep)
    sweep.add_argument("--views", required=True,
                       help="comma-separated view counts, e.g. 1,2,4,8")
    sweep.add_argument("--train", required=True)
    sweep.add_argument("--dev", required=True)
    sweep.add_argument("--test", required=True)
    sweep.add_argument("--embeddings")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep_views)

    analyze = sub.add_parser(
        "analyze-views", help="per-view naive Bayes probes over a checkpoint")
    analyze.add_argument("--checkpoint", required=True)
    analyze.add_argument("--train", required=True)
    analyze.add_argument("--test", required=True)
    analyze.add_argument("--out", required=True)
    analyze.set_defaults(func=cmd_analyze_views)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The tape checks every result and raises NumericError naming the
        # op, so numpy's own overflow warnings would only repeat that report.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
