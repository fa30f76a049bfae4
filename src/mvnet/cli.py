"""Command line front end: train, eval, ablate, sweep-views, analyze-views."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import sys
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
    load_config,
    preset,
)
from .data import DatasetError, load_dataset, num_classes
from .features import EmbeddingFileError
from .files import atomic_open
from .model import view_stack_param_count
from .numeric import NumericError
from .training import build_model, evaluate, fit, train_and_score

# NumericError covers a run that diverges: it names the op that first
# produced a non-finite value. OSError covers any input or output path that
# cannot be read or written: missing, a directory, or under a file.
_USER_ERRORS = (ConfigError, DatasetError, EmbeddingFileError, CheckpointError,
                MissingClassError, NumericError, OSError, ValueError)

# Every input file a command can take, with its help text. The manifest
# records the sha256 of each one given; the config file is recorded by its
# resolved values instead.
_INPUTS = {
    "checkpoint": "checkpoint written by mvn train",
    "train": "training set (label<TAB>text)",
    "dev": "development set for model selection",
    "test": "test set",
    "embeddings": "token embedding text file",
}


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_lines(path, lines) -> None:
    with atomic_open(path) as handle:
        for line in lines:
            handle.write(line + "\n")


def _write_json(path, payload) -> None:
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _write_report(out: Path, name: str, payload: dict, header, rows) -> dict:
    """Write ``payload`` to ``<name>.json`` and ``header`` plus ``rows`` of
    Python ints, floats or strings to ``<name>.csv``; return their outputs."""
    _write_json(out / f"{name}.json", payload)
    _write_lines(out / f"{name}.csv",
                 [",".join(header)] + [",".join(map(str, row)) for row in rows])
    return {"report": f"{name}.json", "csv": f"{name}.csv"}


def _resolve_config(args) -> TrainConfig:
    base = preset(args.preset) if args.preset else TrainConfig()
    if args.config:
        base = load_config(args.config, base=base)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "views", None) is not None:
        overrides["views"] = args.views
    if getattr(args, "variant", None):
        overrides["variant"] = args.variant
    if getattr(args, "conv_features", None):
        overrides["conv_features"] = args.conv_features == "on"
    return dataclasses.replace(base, **overrides)


def _load(args, classes: int | None, *roles) -> list:
    """The documents of each role, in order. Labels are checked against
    ``classes``, or, when it is None, against the class count of the first
    role's documents."""
    loaded = []
    for role in roles:
        docs, malformed = load_dataset(getattr(args, role), classes=classes)
        if malformed:
            print(f"note: skipped {malformed} malformed line(s) in {getattr(args, role)}")
        classes = classes or num_classes(docs)
        loaded.append(docs)
    return loaded


def _epoch_printer(record) -> None:
    print(f"epoch {record.epoch:3d}  train_loss={record.train_loss:.4f}  "
          f"dev_loss={record.dev_loss:.4f}  dev_acc={record.dev_accuracy:.4f}")


def cmd_train(args, out: Path) -> tuple[TrainConfig, dict]:
    config = _resolve_config(args)
    train_docs, dev_docs = _load(args, None, "train", "dev")
    model = build_model(config, train_docs, args.embeddings)
    result = fit(model, train_docs, dev_docs, config, progress=_epoch_printer)
    save_checkpoint(out / "model.ckpt", model)
    _write_lines(out / "curve.jsonl", [json.dumps(dataclasses.asdict(record), sort_keys=True)
                                       for record in result.curve])
    print(f"best epoch {result.best_epoch}: dev_acc={result.best_dev_accuracy:.4f} "
          f"dev_loss={result.best_dev_loss:.4f}")
    print(f"wrote {out / 'model.ckpt'}")
    return config, {"checkpoint": "model.ckpt", "curve": "curve.jsonl"}


def cmd_eval(args, out: Path) -> tuple[TrainConfig, dict]:
    model = load_checkpoint(args.checkpoint)
    [docs] = _load(args, model.num_classes, "test")
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
    _write_json(out / "metrics.json", payload)
    print(f"accuracy={result.accuracy:.4f}  error_rate={payload['error_rate']:.2f}  "
          f"mean_loss={result.mean_loss:.4f}")
    return model.config, {"metrics": "metrics.json"}


def cmd_ablate(args, out: Path) -> tuple[TrainConfig, dict]:
    if args.runs is not None and args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    config = _resolve_config(args)
    train_docs, dev_docs, test_docs = _load(args, None, "train", "dev", "test")
    rows = []

    def variant_row(name: str, variant: str) -> None:
        variant_config = dataclasses.replace(config, variant=variant)
        _, _, test = train_and_score(variant_config, train_docs, dev_docs, test_docs,
                                     args.embeddings)
        rows.append({
            "name": name,
            "test_accuracy": test.accuracy,
            "view_stack_params": view_stack_param_count(
                config.views, config.view_dim, variant),
        })
        print(f"{name:10s} test_acc={test.accuracy:.4f}")

    variant_row("full", VARIANT_FULL)

    learners = [train_and_score(dataclasses.replace(config, views=1, seed=config.seed + 1 + i),
                                train_docs, dev_docs, test_docs, args.embeddings)
                for i in range(args.runs or config.views)]
    accuracies = [test.accuracy for _, _, test in learners]
    vote = ensemble_vote([model for model, _, _ in learners], test_docs)
    spread = statistics.stdev(accuracies) if len(accuracies) >= 2 else 0.0
    rows.append({
        "name": "ensemble",
        "test_accuracy": vote,
        "learners": len(learners),
        "learner_accuracies": accuracies,
        "learner_mean": statistics.fmean(accuracies),
        "learner_stdev": spread,
    })
    print(f"{'ensemble':10s} test_acc={vote:.4f}  "
          f"learners={statistics.fmean(accuracies):.4f} ± {spread:.4f}")

    variant_row("no_links", VARIANT_NO_LINKS)
    variant_row("chain", VARIANT_CHAIN)

    return config, _write_report(out, "ablation", {"rows": rows}, ("name", "test_accuracy"),
                                 [(row["name"], row["test_accuracy"]) for row in rows])


def cmd_sweep_views(args, out: Path) -> tuple[TrainConfig, dict]:
    config = _resolve_config(args)
    train_docs, dev_docs, test_docs = _load(args, None, "train", "dev", "test")
    counts = [int(v) for v in args.view_counts.split(",") if v.strip()]
    rows = view_sweep(config, counts, train_docs, dev_docs, test_docs, args.embeddings,
                      progress=lambda row: print(
                          f"views={row.views}  dev_acc={row.dev_accuracy:.4f}  "
                          f"test_acc={row.test_accuracy:.4f}"))
    return config, _write_report(
        out, "sweep", {"rows": [dataclasses.asdict(r) for r in rows]},
        ("views", "dev_accuracy", "test_accuracy"),
        [(r.views, r.dev_accuracy, r.test_accuracy) for r in rows])


def cmd_analyze_views(args, out: Path) -> tuple[TrainConfig, dict]:
    model = load_checkpoint(args.checkpoint)
    classes = model.num_classes
    train_docs, test_docs = _load(args, classes, "train", "test")
    train_views = extract_view_representations(model, train_docs)
    test_views = extract_view_representations(model, test_docs)
    f1 = []
    for i in range(model.config.views):
        probe = nb_train(train_views.view(i), train_views.labels, classes)
        predictions = [nb_predict(probe, x)[0] for x in test_views.view(i)]
        f1.append(class_f_measures(predictions, test_views.labels, classes).tolist())
    outputs = _write_report(
        out, "view_f1", {"views": model.config.views, "classes": classes, "f1": f1},
        ["view"] + [f"class{c}" for c in range(classes)],
        [[i + 1] + row for i, row in enumerate(f1)])
    for i, row in enumerate(f1, start=1):
        print(f"view {i}: " + "  ".join(f"F1[{c}]={v:.3f}" for c, v in enumerate(row)))
    return model.config, outputs


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


def _add_command(sub, name: str, func, help_text: str, inputs, *add_options):
    """A subcommand that runs ``func`` on the ``inputs`` files, each required
    but the embeddings, and ``--out``; each of ``add_options`` adds more."""
    parser = sub.add_parser(name, help=help_text)
    for role in inputs:
        parser.add_argument(f"--{role}", required=role != "embeddings", help=_INPUTS[role])
    parser.add_argument("--out", required=True, help="output directory")
    for add in add_options:
        add(parser)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvn", description="Multi-view attention text classifier")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "train", cmd_train, "train a model and write a checkpoint",
                 ("train", "dev", "embeddings"), _add_config_options, _add_model_options)
    _add_command(sub, "eval", cmd_eval, "score a checkpoint on a dataset",
                 ("checkpoint", "test"))
    ablate = _add_command(sub, "ablate", cmd_ablate,
                          "compare full, single-view ensemble, no-links, and chain",
                          ("train", "dev", "test", "embeddings"),
                          _add_config_options, _add_model_options)
    ablate.add_argument("--runs", type=int,
                        help="single-view learners in the ensemble (default: view count)")
    sweep = _add_command(sub, "sweep-views", cmd_sweep_views, "train once per view count",
                         ("train", "dev", "test", "embeddings"), _add_config_options)
    sweep.add_argument("--views", required=True, dest="view_counts", metavar="VIEWS",
                       help="comma-separated view counts, e.g. 1,2,4,8")
    _add_command(sub, "analyze-views", cmd_analyze_views,
                 "per-view naive Bayes probes over a checkpoint", ("checkpoint", "train", "test"))
    return parser


def main(argv=None) -> int:
    """Run one command: hash its input files, create ``--out``, run the
    command, and write ``manifest.json`` from the config and outputs it
    returns. A bad input prints one ``error: ...`` line and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        started_at = _utc_now()
        datasets = {role: {"path": str(path), "sha256": _sha256(path)}
                    for role in _INPUTS if (path := getattr(args, role, None))}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # The tape checks every result and raises NumericError naming the
        # op, so numpy's own overflow warnings would only repeat that report.
        with np.errstate(over="ignore", invalid="ignore"):
            config, outputs = args.func(args, out)
        _write_json(out / "manifest.json", {
            "command": args.command, "seed": config.seed, "config": dataclasses.asdict(config),
            "datasets": datasets,
            "outputs": {role: str(out / name) for role, name in outputs.items()},
            "started_at": started_at, "finished_at": _utc_now()})
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
