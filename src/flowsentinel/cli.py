"""Batch command line: train, evaluate, predict, inspect.

Progress goes to stderr, results to stdout or --out files. Exit codes:
0 success, 1 usage error, 2 data error (DataError), 3 model-file error
(ModelStoreError).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager

import numpy as np

from .dataset import (
    DEFAULT_LABEL_COLUMN,
    TASKS,
    default_taxonomy,
    load_csv,
    load_feature_matrix,
    load_taxonomy,
    map_labels,
    subsample_stratified,
)
from .errors import DataError, FlowSentinelError, ModelStoreError
from .pipeline import (
    apply_standardizer,
    encode_labels,
    fit_standardizer,
    stratified_split,
)
from .store import ModelMetadata, check_model_dir, dir_fault, load_model, save_model
from .tensor import Tensor
from .trainer import (
    ArchitectureConfig,
    TrainConfig,
    build_model,
    evaluate,
    predict,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="flowsentinel", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_train = sub.add_parser("train", help="train a model from a CSV")
    p_train.add_argument("--data", required=True, help="training CSV path")
    p_train.add_argument("--task", choices=TASKS, default="multiclass")
    p_train.add_argument("--label-column", default=DEFAULT_LABEL_COLUMN)
    p_train.add_argument("--taxonomy", help="taxonomy rules file")
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p_train.add_argument("--lr", type=float, default=TrainConfig.lr)
    p_train.add_argument("--val-split", type=float,
                         default=TrainConfig.val_fraction)
    p_train.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_train.add_argument("--early-stop-patience", type=int,
                         default=TrainConfig.early_stop_patience)
    p_train.add_argument("--limit-per-class", type=int, default=None)
    p_train.add_argument("--out", required=True, help="model file to write")

    p_eval = sub.add_parser("evaluate", help="evaluate a model on a CSV")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--format", choices=("text", "structured"), default="text")
    p_eval.add_argument("--out", help="write the report here instead of stdout")

    p_pred = sub.add_parser("predict", help="label a CSV with a trained model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", help="output CSV (default: stdout)")

    p_inspect = sub.add_parser("inspect", help="describe a model file")
    p_inspect.add_argument("--model", required=True)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and map errors to exit codes."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required (train/evaluate/predict/inspect)")
        handler = {
            "train": _cmd_train,
            "evaluate": _cmd_evaluate,
            "predict": _cmd_predict,
            "inspect": _cmd_inspect,
        }[args.command]
        # Overflow is caught by explicit finiteness checks and reported as
        # one error line, so numpy's own warnings would only add noise.
        with np.errstate(all="ignore"):
            handler(args)
        return EXIT_OK
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except FlowSentinelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # every open is wrapped with its path; anything left is a failed
        # write to an --out file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


def _load_taxonomy(args):
    return load_taxonomy(args.taxonomy) if args.taxonomy else default_taxonomy()


def _check_out(path: str | None) -> None:
    """Refuse an --out whose directory cannot take it before the work that
    would fill it."""
    if path and (reason := dir_fault(path)):
        raise DataError(f"cannot write {path}: {reason}")


@contextmanager
def _output(path: str | None, what: str):
    """Yield the --out file, or stdout when there is none; a written file
    is named on stderr."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        yield fh
    print(f"{what} written to {path}", file=sys.stderr)


def _cmd_train(args) -> None:
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        val_fraction=args.val_split,
        seed=args.seed,
        early_stop_patience=args.early_stop_patience,
    )
    taxonomy = _load_taxonomy(args)
    ds = load_csv(args.data, args.label_column)
    if ds.sample_count == 0:
        raise DataError(f"{args.data}: no samples to train on")
    if args.limit_per_class is not None:
        ds = subsample_stratified(ds, args.limit_per_class, cfg.seed)
    mapped = map_labels(ds.raw_labels, taxonomy, args.task)
    label_map, class_idx = encode_labels(mapped)
    if len(label_map) < 2:
        raise DataError(
            f"{args.data}: task {args.task} maps every row to the one class "
            f"{label_map[0]!r}; training needs at least 2 classes"
        )
    split = stratified_split(class_idx, cfg.val_fraction, cfg.seed)
    train_rows = Tensor._wrap(
        np.ascontiguousarray(ds.features.array[split.train_indices])
    )
    preproc = fit_standardizer(train_rows, label_map=label_map, task=args.task)
    x3 = apply_standardizer(preproc, ds.features)
    arch = ArchitectureConfig(
        feature_count=ds.features.shape[1], class_count=len(label_map)
    )
    model = build_model(arch, np.random.default_rng(cfg.seed))
    check_model_dir(args.out)  # after the data checks, before the first epoch

    def on_epoch(k, n, tl, ta, vl, va):
        print(
            f"epoch {k}/{n} train_loss={tl:.6f} train_acc={ta:.4f} "
            f"val_loss={vl:.6f} val_acc={va:.4f}",
            file=sys.stderr,
        )

    model, history = train(model, x3, class_idx, cfg, split, on_epoch=on_epoch)
    # report the epoch whose parameters the model holds
    held = history.best_epoch if cfg.early_stop_patience > 0 else -1
    final = {key: getattr(history, key)[held]
             for key in ("train_loss", "train_acc", "val_loss", "val_acc")}
    metadata = ModelMetadata(
        label_column=args.label_column,
        train_config=cfg,
        source=args.data,
        epochs_run=history.epochs_run(),
        best_epoch=history.best_epoch,
        final_metrics=final,
    )
    save_model(args.out, model, preproc, taxonomy, metadata, ds.feature_names)
    print(
        f"trained task={args.task} classes={len(label_map)} "
        f"features={arch.feature_count} samples={ds.sample_count} "
        f"epochs_run={history.epochs_run()} best_epoch={history.best_epoch + 1}"
    )
    print(
        f"final train_loss={final['train_loss']:.6f} "
        f"train_acc={final['train_acc']:.4f} "
        f"val_loss={final['val_loss']:.6f} "
        f"val_acc={final['val_acc']:.4f}"
    )
    print(f"model written to {args.out}")


def _cmd_evaluate(args) -> None:
    model, preproc, taxonomy, metadata, feature_names = load_model(args.model)
    ds = load_csv(args.data, metadata.label_column, feature_names)
    _check_out(args.out)
    report = evaluate(model, preproc, ds, taxonomy)
    if args.format == "structured":
        text = json.dumps(report.to_dict(), indent=2)
    else:
        text = report.to_text()
    with _output(args.out, "report") as fh:
        print(text, file=fh)


def _cmd_predict(args) -> None:
    model, preproc, taxonomy, metadata, feature_names = load_model(args.model)
    features = load_feature_matrix(args.data, feature_names)
    _check_out(args.out)
    pred_idx, probs = predict(model, preproc, features)
    class_names = preproc.label_map
    header = ["predicted_label"] + [f"prob_{name}" for name in class_names]
    rows = (
        [class_names[pred_idx[i]]] + [repr(float(v)) for v in probs.array[i]]
        for i in range(len(pred_idx))
    )
    with _output(args.out, "predictions") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_inspect(args) -> None:
    model, preproc, taxonomy, metadata, feature_names = load_model(args.model)
    arch = model.arch
    print(f"task: {preproc.task}")
    print(f"seed: {metadata.train_config.seed}")
    print(f"source: {metadata.source}")
    print(
        f"architecture: conv({arch.conv1_filters},k{arch.kernel_size}) -> relu "
        f"-> pool({arch.pool_size}) -> conv({arch.conv2_filters},"
        f"k{arch.kernel_size}) -> relu -> pool({arch.pool_size}) -> flatten "
        f"-> dense({arch.dense_units}) -> relu -> dense({arch.class_count}) "
        f"-> softmax"
    )
    print(f"features ({arch.feature_count}): {', '.join(feature_names)}")
    degenerate = int(np.count_nonzero(preproc.degenerate))
    print(f"standardizer: fitted, {degenerate} degenerate feature(s)")
    print(f"classes ({arch.class_count}):")
    for i, name in enumerate(preproc.label_map):
        print(f"  {i}: {name}")
    print("parameters:")
    total = 0
    for name, values in model.params.items():
        total += values.size
        print(f"  {name}: shape {values.shape}, {values.size} values")
    print(f"  total: {total} values")
    print("taxonomy rules:")
    for rule in taxonomy.rules:
        print(f"  {rule.kind},{rule.pattern},{rule.category}")
    cfg = metadata.train_config
    print(
        f"training: epochs={cfg.epochs} batch_size={cfg.batch_size} "
        f"lr={cfg.lr} val_fraction={cfg.val_fraction} "
        f"early_stop_patience={cfg.early_stop_patience} "
        f"epochs_run={metadata.epochs_run} best_epoch={metadata.best_epoch + 1}"
    )
    if metadata.final_metrics:
        parts = " ".join(
            f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in metadata.final_metrics.items()
        )
        print(f"final: {parts}")


if __name__ == "__main__":
    main()
