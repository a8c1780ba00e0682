#!/usr/bin/env python3
"""The semiae benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seeded generator writes the inputs
(cached under ``perfbench/.work/inputs``, outside the clock); the run then
repeats whole rounds of the workload, checking every round's outputs, and
past the workload's ``min_rounds`` starts no round that would end after
``--seconds``.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` each untraced round is followed by a traced one, and the
result carries the per-layer metrics plus the tracing overhead (traced
minus untraced ``total_s``).  The last line of standard output is the
result as JSON; the two lines before it hold the untraced rounds' own
figures and the environment.

BLAS and OpenMP threads are fixed at one, before numpy is imported, so that
figures do not depend on what else the machine runs.
"""

import os

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402  (the thread settings must come first)
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s", "train_rows_per_s": "rows/s", "eval_s": "s",
    "model_bytes": "bytes", "train_loss": "loss", "peak_rss_mb": "MiB", "total_s": "s",
}

# per-layer metric -> (span name, statistic); "_s" is self time, except for
# the cli command spans, whose whole duration is reported
LAYER_SPANS = {
    "dataset.parse_s": ("dataset.parse", "self_s"),
    "dataset.split_s": ("dataset.split", "self_s"),
    "dataset.split_calls": ("dataset.split", "calls"),
    "dataset.binarize_s": ("dataset.binarize", "self_s"),
    "dataset.densify_s": ("dataset.densify", "self_s"),
    "dataset.densify_calls": ("dataset.densify", "calls"),
    "dataset.prepared_write_s": ("dataset.prepared_write", "self_s"),
    "dataset.prepared_read_s": ("dataset.prepared_read", "self_s"),
    "dataset.prepared_read_calls": ("dataset.prepared_read", "calls"),
    "model.loss_grad_s": ("model.loss_grad", "self_s"),
    "model.loss_grad_calls": ("model.loss_grad", "calls"),
    "model.forward_s": ("model.forward", "self_s"),
    "model.forward_calls": ("model.forward", "calls"),
    "model.params_save_s": ("model.params_save", "self_s"),
    "model.params_load_s": ("model.params_load", "self_s"),
    "model.params_load_calls": ("model.params_load", "calls"),
    "optim.update_s": ("optim.update", "self_s"),
    "optim.update_calls": ("optim.update", "calls"),
    "trainer.train_self_s": ("trainer.train", "self_s"),
    "trainer.predict_s": ("trainer.predict", "self_s"),
    "trainer.recommend_s": ("trainer.recommend", "self_s"),
    "trainer.recommend_calls": ("trainer.recommend", "calls"),
    "trainer.save_s": ("trainer.save", "self_s"),
    "trainer.load_s": ("trainer.load", "self_s"),
    "evaluation.rmse_s": ("evaluation.rmse", "self_s"),
    "evaluation.recall_self_s": ("evaluation.recall", "self_s"),
    "evaluation.recall_calls": ("evaluation.recall", "calls"),
    "evaluation.most_popular_s": ("evaluation.most_popular", "self_s"),
    "evaluation.most_popular_calls": ("evaluation.most_popular", "calls"),
    "cli.prepare_s": ("cli.prepare", "total_s"),
    "cli.train_s": ("cli.train", "total_s"),
    "cli.evaluate_s": ("cli.evaluate", "total_s"),
    "cli.recommend_s": ("cli.recommend", "total_s"),
    "cli.reproduce_s": ("cli.reproduce", "total_s"),
}
# figures a workload reports where its stage runs, and 0 elsewhere
LAYER_VALUES = {"evaluation.rmse": "rating", "evaluation.recall_at_10": "%",
                "dataset.prepared_bytes": "bytes"}
TRACE_FIGURES = ("cli.self_s", "cli.startup_s", "trace.total_s", "trace.overhead_s",
                 "trace.unaccounted_s")


def layer_unit(name: str) -> str:
    if name in LAYER_VALUES:
        return LAYER_VALUES[name]
    return "count" if name.endswith("_calls") else "s"


PER_LAYER = [*LAYER_SPANS, *TRACE_FIGURES, *LAYER_VALUES]


@dataclass
class Context:
    root: Path
    work: Path
    raw: Path
    truth: dict
    seed: int


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def end_to_end(plain: list) -> dict:
    """End-to-end figures of a run.

    Timings are the fastest of the run's samples.  ``total_s`` and
    ``train_rows_per_s`` have one sample per round.  A round's ``eval_s``
    maps each part of the evaluation to its samples, and ``eval_s`` is the
    sum over the parts of each part's fastest sample.  On a shared host,
    other tenants slow this process in phases of seconds to minutes, by up
    to 2x on interpreter-bound stages; the fastest sample carries the least
    of that interference.  ``setup_s`` is the median of every set-up in the run.
    ``model_bytes`` and ``train_loss`` are the same every round for one
    seed; their mean is reported.  ``peak_rss_mb`` is read after the first
    pass, before any check, since the checks allocate on their own.
    """
    out = {name: statistics.fmean(r["figures"][name] for r in plain)
           for name in ("model_bytes", "train_loss")}
    out["train_rows_per_s"] = max(r["figures"]["train_rows_per_s"] for r in plain)
    out["total_s"] = min(r["figures"]["total_s"] for r in plain)
    parts: dict = {}
    for r in plain:
        for part, samples in r["figures"]["eval_s"].items():
            parts.setdefault(part, []).extend(samples)
    out["eval_s"] = sum(min(samples) for samples in parts.values())
    out["setup_s"] = statistics.median(t for r in plain for t in r["setup_samples"])
    out["peak_rss_mb"] = plain[0]["figures"]["peak_rss_mb"]
    return {name: out[name] for name in END_TO_END}


def traced_metrics(plain: list, traced: list) -> dict:
    """Median over traced rounds of each per-layer figure."""
    per_round = []
    for rnd in traced:
        stats, top, startup = rnd["trace"]
        total = rnd["figures"]["total_s"]
        row = {name: stats.get(span, {}).get(field, 0)
               for name, (span, field) in LAYER_SPANS.items()}
        row["cli.self_s"] = sum(e["self_s"] for s, e in stats.items() if s.startswith("cli."))
        row["cli.startup_s"] = startup
        row["trace.total_s"] = total
        row["trace.unaccounted_s"] = total - top - startup
        row.update({name: rnd["layers"].get(name, 0) for name in LAYER_VALUES})
        per_round.append(row)
    out = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    # the first untraced round alone pays the process's one-time costs
    out["trace.overhead_s"] = out["trace.total_s"] - statistics.fmean(
        r["figures"]["total_s"] for r in (plain[1:] or plain))
    return {name: out[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rating-ml1m", "ranking-ml100k", "cli-ml100k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semiae" / "__init__.py").is_file():
        print(f"error: no semiae sources under {ROOT / 'src'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import generate
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    raw, truth = generate.cached_inputs(HERE / ".work" / "inputs", cls.fmt, args.seed)
    work = HERE / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = workloads.Ledger()
    plain, traced = [], []
    try:
        workload = cls(Context(ROOT, work, raw, truth, args.seed))
        # per-layer figures have no bound: a traced run needs only one pass
        min_rounds = 1 if args.trace else cls.min_rounds
        start = time.perf_counter()
        rounds, longest = 0, 0.0
        while True:
            began = time.perf_counter()
            rounds += 1
            result = workload.run_round(False, ledger)
            if result is not None:
                plain.append(result)
            if args.trace:
                result = workload.run_round(True, ledger)
                if result is not None:
                    traced.append(result)
            now = time.perf_counter()
            longest = max(longest, now - began)
            # past the workload's minimum, start no round that would end
            # after --seconds
            if rounds >= min_rounds and now - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in ledger.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("error: no round of the workload completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_metrics(plain, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(plain)
        units = END_TO_END
    print(f"{args.workload} seed={args.seed} rounds={rounds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print(f"  operations: attempted {ledger.attempted}, failed {ledger.failed}")
    print(json.dumps({"rounds": [{**r["figures"], "setup_s": r["setup_samples"]}
                                 for r in plain]}))
    print(json.dumps({"environment": environment(np)}))
    print(json.dumps({
        "correct": ledger.rejected == 0, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
