"""Command-line driver: prepare, train, evaluate, recommend, reproduce.

A command writes at most one file, which :func:`_output` names from the
flags: ``--out``, or ``<out-dir>/table{N}.csv`` for reproduce.
:func:`main` first checks that neither that file nor its manifest is a
file the command reads, then makes its directory (so ``train --out
models/k.json`` makes ``models/``; a failed or interrupted command
removes those still empty), hands it to the command, which writes it whole
or not at all and returns its seed, then writes ``<output>.manifest.json``:
the command, its ``args`` (every parsed flag with a value, defaults
included, as strings), the seed and the output's sha256, so re-runs can be
checked for identical bytes.  A failure is one ``error:`` line and exit
code 1; Ctrl-C is ``error: interrupted`` and exit code 130.
``SEMIAE_LOG`` (debug/info/warning/error) controls log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import trainer
from .dataset import (PreparedData, RatingDataset, binarize, load_raw_directory,
                      read_prepared, split, write_prepared)
from .evaluation import most_popular, recall_at_n, rmse
from .trainer import (TrainConfig, TrainedModel, load_model, load_model_and_echo,
                      predict_ratings, recommend_top_n, save_model)

log = logging.getLogger(__name__)

# Published benchmark numbers the reproduce command prints next to ours.
PUBLISHED_RMSE = {
    "ml-100k": {0.8: 0.896, 0.5: 0.926},
    "ml-1m": {0.8: 0.858, 0.5: 0.882},
}
PUBLISHED_RECALL = {  # by dataset / train fraction / method / metric
    "ml-100k": {
        0.3: {"semi-autoencoder": {"recall@5": 9.487, "recall@10": 14.836},
              "most-popular": {"recall@5": 7.036, "recall@10": 11.297}},
        0.5: {"semi-autoencoder": {"recall@5": 9.543, "recall@10": 15.909},
              "most-popular": {"recall@5": 7.535, "recall@10": 13.185}},
    },
}

# table number -> (task, train fractions)
TABLES = {1: ("rating", (0.8, 0.5)), 2: ("ranking", (0.3, 0.5))}
TABLE_COLUMNS = ["dataset", "task", "train_fraction", "seed", "method",
                 "metric", "value"]
RECALL_NS = (5, 10)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args: argparse.Namespace, output: Path,
                    seed: int | None) -> None:
    ds_mod.write_json(f"{output}.manifest.json", {
        "command": args.command,
        "args": {k: str(v) for k, v in vars(args).items()
                 if v is not None and k not in ("command", "func")},
        "seed": seed,
        "output_dir": str(output.parent.resolve()),
        "outputs": {str(output): _sha256(output)},
        "created_unix": time.time(),
    })


def _output(args: argparse.Namespace) -> tuple[Path, str] | tuple[None, None]:
    """The command's output file and how its flags name it, or (None, None)."""
    if args.command == "reproduce":
        name = f"table{args.table}.csv"
        return Path(args.out_dir, name), f"{name} in --out-dir {args.out_dir}"
    out = getattr(args, "out", None)
    return (None, None) if out is None else (Path(out), f"--out {out}")


def _check_outputs(args: argparse.Namespace, output: Path, named: str) -> None:
    """Neither ``output`` nor its manifest may be a file the command reads:
    ``--data``, ``--model``, ``--config`` or a raw file of ``--raw``."""
    reads = [(f"--{flag} {value}", Path(value))
             for flag in ("data", "model", "config")
             if (value := getattr(args, flag, None)) is not None]
    if (raw := getattr(args, "raw", None)) is not None:
        reads += [(f"{name} in --raw {raw}", Path(raw, name))
                  for name, *_ in map(ds_mod.LAYOUTS[args.format].get,
                                      ("ratings", "users", "items"))]
    manifest = Path(f"{output}.manifest.json").resolve()
    for what, read in reads:
        if read.resolve() == output.resolve():
            raise ValueError(f"{named} and {what} name the same file")
        if read.resolve() == manifest:
            raise ValueError(f"{what} and the manifest of {named} name the "
                             "same file")


def _load_config(config_path: str | None, task: str) -> TrainConfig:
    if config_path is None:
        return TrainConfig.defaults(task)
    with ds_mod.json_object(config_path, "config") as doc:
        return TrainConfig.from_dict(doc, task)


def _split(prepared: PreparedData, cfg: TrainConfig, fraction: float | None,
           seed: int) -> tuple[RatingDataset, RatingDataset | None]:
    """The seeded (train, test) halves in the task's form, binarized for
    ranking.  Without a fraction every rating trains and there is no test
    half."""
    train, test = ((prepared.ratings, None) if fraction is None
                   else split(prepared.ratings, fraction, seed))
    if cfg.task == "ranking":
        train = binarize(train, cfg.binarize_threshold, cfg.binarize_comparison)
        if test is not None:
            test = binarize(test, cfg.binarize_threshold,
                            cfg.binarize_comparison)
    return train, test


def _fit(prepared: PreparedData, cfg: TrainConfig,
         train: RatingDataset) -> TrainedModel:
    if cfg.task == "ranking":
        return trainer.train_ranking(train, prepared.user_side, cfg)
    return trainer.train_rating(train, prepared.item_side, cfg)


def _score(model: TrainedModel, prepared: PreparedData, train: RatingDataset,
           test: RatingDataset, recall_ns=RECALL_NS,
           baseline: bool = False) -> dict[tuple[str, str], float]:
    """Held-out metrics keyed by (method, metric): RMSE for a rating model,
    Recall@N for a ranking model and, with ``baseline``, for the
    most-popular baseline after it."""
    if model.task == "rating":
        preds = predict_ratings(model, train, prepared.item_side)
        return {("semi-autoencoder", "rmse"): rmse(preds, test)}
    # every N reads the head of each user's top max(N) list, which the
    # library ranks once per model and data
    top = max(recall_ns)
    methods = {"semi-autoencoder": lambda u: recommend_top_n(
        model, train, prepared.user_side, u, top)}
    if baseline:
        methods["most-popular"] = lambda u: most_popular(train, u, top)
    return {(method, f"recall@{n}"): recall_at_n(rec, test, n)
            for method, rec in methods.items() for n in sorted(set(recall_ns))}


def run_cell(prepared: PreparedData, cfg: TrainConfig, fraction: float,
             seed: int) -> dict[tuple[str, str], float]:
    """One cell of a results table: split once with ``seed``, fit ``cfg``
    on the training half and score the test half (with the most-popular
    baseline for ranking)."""
    train, test = _split(prepared, cfg, fraction, seed)
    model = _fit(prepared, cfg, train)
    return _score(model, prepared, train, test, baseline=True)


def cmd_prepare(args, out: Path) -> None:
    data = load_raw_directory(args.raw, args.format)
    write_prepared(out, data)
    ds = data.ratings
    print(f"M={ds.num_users} N={ds.num_items} |Omega|={len(ds)} "
          f"K_user={data.user_side.dim} K_item={data.item_side.dim}")


def cmd_train(args, out: Path) -> int:
    prepared = read_prepared(args.data)
    cfg = _load_config(args.config, args.task)
    train, _ = _split(prepared, cfg, args.train_fraction, cfg.seed)
    model = _fit(prepared, cfg, train)
    save_model(out, model, {"train_fraction": args.train_fraction})
    print(f"trained {cfg.task} model: hidden={cfg.hidden_dim} "
          f"epochs={cfg.epochs} final_loss={model.loss_history[-1]:.6f}")
    return cfg.seed


def _warn_on_split_mismatch(echo: dict, model: TrainedModel,
                            train_fraction: float, seed: int) -> None:
    """Held-out scores are only honest when evaluate reuses the training
    split; flag diverging split parameters in the model file's echo."""
    if "train_fraction" in echo:
        trained = echo["train_fraction"]
        if trained is None:
            log.warning("model was trained on the full dataset; every "
                        "held-out rating was part of its training input")
        elif trained != train_fraction:
            log.warning("model was trained on a %s split but evaluating with "
                        "--train-fraction %s; the test half overlaps the "
                        "training data", trained, train_fraction)
    if model.config.seed != seed:
        log.warning("model was trained with seed %d but evaluating with "
                    "--seed %d; the splits differ", model.config.seed, seed)


def cmd_evaluate(args, out: Path | None) -> int:
    model, echo = load_model_and_echo(args.model)
    prepared = read_prepared(args.data)
    recall_ns = RECALL_NS
    if args.recall is not None:
        recall_ns = _parse_ints(args.recall)
        if not recall_ns:
            raise ValueError("--recall needs at least one N value")
        if model.task == "rating":
            raise ValueError("--recall is a ranking metric; this model "
                             "predicts ratings (use it without --recall)")
        if min(recall_ns) < 0:
            raise ValueError(f"--recall values must be >= 0, got {args.recall}")
    train, test = _split(prepared, model.config, args.train_fraction, args.seed)
    metrics = _score(model, prepared, train, test, recall_ns)
    # after scoring, so that a model refused by the data warns of nothing
    _warn_on_split_mismatch(echo, model, args.train_fraction, args.seed)
    report = {"task": model.task,
              "num_evaluated_users": len(np.unique(test.users)),
              "config_echo": {"train_fraction": args.train_fraction,
                              "config": model.config.to_dict()},
              "seed": args.seed}
    if model.task == "rating":
        report["rmse"] = metrics["semi-autoencoder", "rmse"]
    else:
        report["recall"] = {str(n): metrics["semi-autoencoder", f"recall@{n}"]
                            for n in sorted(recall_ns)}
    print(json.dumps(report, sort_keys=True, indent=2))
    if out is not None:
        ds_mod.write_json(out, report)
    return args.seed


def cmd_recommend(args, out: None) -> None:
    if args.seed is not None and args.train_fraction is None:
        raise ValueError("--seed needs --train-fraction, whose split it "
                         "seeds")
    model = load_model(args.model)
    if model.task != "ranking":
        raise ValueError("recommend needs a ranking-task model")
    prepared = read_prepared(args.data)
    ds = prepared.ratings
    try:
        user_index = ds.user_ids.index(args.user)
    except ValueError:
        raise ValueError(f"user id {args.user} not in the dataset") from None
    seed = args.seed if args.seed is not None else model.config.seed
    train, _ = _split(prepared, model.config, args.train_fraction, seed)
    items = recommend_top_n(model, train, prepared.user_side, user_index, args.n)
    for rank, item in enumerate(items, start=1):
        print(f"{rank}\t{ds.item_ids[item]}")


def _summary_line(dataset: str, task: str, fraction: float, method: str,
                  metric: str, mean: float, std: float) -> str:
    pct = int(fraction * 100)
    if task == "rating":
        text = f"{dataset} rating {pct}% train: RMSE {mean:.4f} +- {std:.4f}"
        published = PUBLISHED_RMSE.get(dataset, {}).get(fraction)
    else:
        text = (f"{dataset} ranking {pct}% train, {method} "
                f"{metric.capitalize()}: {mean:.3f} +- {std:.3f}")
        published = (PUBLISHED_RECALL.get(dataset, {}).get(fraction, {})
                     .get(method, {}).get(metric))
    return text + (f" (published {published})" if published is not None else "")


def cmd_reproduce(args, out: Path) -> None:
    seeds = _parse_ints(args.seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    task, fractions = TABLES[args.table]
    prepared = load_raw_directory(args.raw, args.format)
    base = _load_config(args.config, task).to_dict()
    rows: list[list[str]] = []
    summary: list[str] = []

    def add(fraction: float, seed, method: str, metric: str, value: float):
        rows.append([args.format, task, repr(fraction), str(seed), method,
                     metric, repr(float(value))])

    for fraction in fractions:
        per_seed: dict[tuple[str, str], list[float]] = {}
        for seed in seeds:
            cfg = TrainConfig.from_dict({**base, "seed": seed})
            metrics = run_cell(prepared, cfg, fraction, seed)
            for (method, metric), value in metrics.items():
                add(fraction, seed, method, metric, value)
                per_seed.setdefault((method, metric), []).append(value)
            log.info("%s %s fraction=%s seed=%d: %s", task, args.format,
                     fraction, seed, metrics)
        # methods in name order; each method's metrics in scoring order
        for (method, metric), values in sorted(per_seed.items(),
                                               key=lambda kv: kv[0][0]):
            arr = np.asarray(values, np.float64)
            mean, std = float(arr.mean()), float(arr.std(ddof=0))
            add(fraction, "mean", method, metric, mean)
            add(fraction, "std", method, metric, std)
            summary.append(_summary_line(args.format, task, fraction, method,
                                         metric, mean, std))

    with ds_mod.write_whole(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(rows)
    print("\n".join(summary))
    print(f"wrote {out}")


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiae",
        description="Semi-autoencoder collaborative filtering benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse a raw MovieLens directory")
    p.add_argument("--raw", required=True, help="raw dataset directory")
    p.add_argument("--format", choices=ds_mod.FORMATS, default="ml-100k")
    p.add_argument("--out", required=True, help="prepared-dataset JSON path")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on prepared data")
    p.add_argument("--data", required=True, help="prepared-dataset JSON")
    p.add_argument("--task", choices=trainer.TASKS, required=True)
    p.add_argument("--config", help="flat JSON config (strict keys)")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--train-fraction", type=float,
                   help="train on a seeded split with this fraction, in (0, 1); "
                        "omit it to train on every rating")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model on a held-out split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--train-fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--recall", help="comma-separated N values, e.g. 5,10")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-n items for one user")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--user", type=int, required=True, help="raw user id")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--train-fraction", type=float,
                   help="restrict the input interactions to the seeded split "
                        "train made with this fraction, in (0, 1); omit it to "
                        "use every rating")
    p.add_argument("--seed", type=int,
                   help="seed of that split (default: the model's)")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("reproduce", help="rerun the benchmark tables")
    p.add_argument("--table", type=int, choices=(1, 2), required=True)
    p.add_argument("--raw", required=True, help="raw dataset directory")
    p.add_argument("--format", choices=ds_mod.FORMATS, default="ml-100k")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--config", help="config overrides applied to the defaults")
    p.add_argument("--out-dir", default="reproduction")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("SEMIAE_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    path, named = _output(args)
    made: list[Path] = []  # output directories that did not exist
    try:
        if path is not None:
            _check_outputs(args, path, named)
            made += [p for p in path.absolute().parents if not p.exists()]
            path.absolute().parent.mkdir(parents=True, exist_ok=True)
        seed = args.func(args, path)
        if path is not None:
            _write_manifest(args, path, seed)
        return 0
    except (ValueError, OSError, MemoryError, KeyboardInterrupt) as exc:
        interrupted = isinstance(exc, KeyboardInterrupt)
        print(f"error: {'interrupted' if interrupted else exc}",
              file=sys.stderr)
        for directory in sorted(made, reverse=True):  # children first
            with suppress(OSError):  # one that is not empty stays
                directory.rmdir()
        return 130 if interrupted else 1


if __name__ == "__main__":
    sys.exit(main())
