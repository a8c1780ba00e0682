#!/usr/bin/env python3
"""Time the parts of the training step, per call, for each task.

On a ``semiae.synthetic`` layout of the shape that ``tools/artifact_hashes.py``
takes (the same options and defaults), trains the rating model on an 80 %
split at the Table 1 defaults and the ranking model on a 30 % split,
binarized, at the Table 2 defaults, each for a few epochs, in this process
at one BLAS and OpenMP thread unless the caller's environment sets a count.
For each task it prints one line per part that ran:

    task  part  calls  microseconds per call  total seconds

then ``epoch``: the epochs run and the training's wall time per epoch.  The
parts are the batch build (``build_vectors``, ``sparse_rows``), the sparse
step's flat indices, built once an epoch (``sparse_index``), the step
(``loss_and_gradients``, ``sparse_loss_and_gradients``), the L2 term
(``_l2``) and ``update``.  A part's time includes the parts it calls: the
step's holds the L2 term's.

Each part is timed by a wrapper put in place of its name in
``semiae.trainer``'s namespace, and the L2 term's in ``semiae.model``'s; a
name that a checkout lacks is skipped.  So the same script times another
checkout, given its root, as ``tools/bench_pairs.py run`` takes it:

    python3 tools/step_times.py --users 943 --items 1682 --ratings 100000
    python3 tools/step_times.py --checkout /path/to/parent --users 943 \\
        --items 1682 --ratings 100000

The checkout's ``src/`` goes first on ``sys.path``.  A directory without
``src/semiae/__init__.py`` is refused, and so is a ``semiae`` already
loaded from another tree, as in a process that imported this checkout's,
each with one ``error:`` line.  Only the standard library and the
checkout's ``semiae`` (numpy) are used.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# artifact_hashes.py's, not imported from it: importing it loads this
# checkout's semiae, and --checkout must choose which one is timed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FORMATS = ("ml-100k", "ml-1m")
# (module, names) of the timed parts, in the order they are printed
PARTS = (("semiae.trainer", ("build_vectors", "sparse_rows", "sparse_index",
                             "loss_and_gradients", "sparse_loss_and_gradients",
                             "update")),
         ("semiae.model", ("_l2",)))
# (task, train fraction) of each training, as Tables 1 and 2 split first
TASKS = (("rating", 0.8), ("ranking", 0.3))


def _timed(fn, record: list):
    """``fn`` that adds each call's nanoseconds to ``record[1]`` and counts
    it in ``record[0]``."""
    clock = time.perf_counter_ns

    def timed(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[1] += clock() - start
            record[0] += 1
    return timed


def step_times(fmt: str = "ml-100k", num_users: int = 300,
               num_items: int = 80, num_ratings: int = 6000, seed: int = 0,
               epochs: dict[str, int] | None = None
               ) -> list[tuple[str, str, int, float, float]]:
    """``(task, part, calls, microseconds per call, total seconds)`` of each
    part that ran, then of ``epoch``, per task; ``epochs`` maps a task to
    its epoch count (rating 2, ranking 50 by default)."""
    from semiae import dataset, trainer
    from semiae.synthetic import write_layout

    epochs = {"rating": 2, "ranking": 50, **(epochs or {})}

    with tempfile.TemporaryDirectory() as tmp:
        write_layout(Path(tmp) / "raw", fmt, num_users, num_items,
                     num_ratings, seed)
        prepared = dataset.load_raw_directory(Path(tmp) / "raw", fmt)
    rows = []
    for task, fraction in TASKS:
        cfg = trainer.TrainConfig.from_dict({"epochs": epochs[task]}, task)
        train, _ = dataset.split(prepared.ratings, fraction, cfg.seed)
        records: dict[str, list] = {}
        originals = []
        for module_name, names in PARTS:
            module = importlib.import_module(module_name)
            for name in names:
                if hasattr(module, name):
                    original = getattr(module, name)
                    originals.append((module, name, original))
                    setattr(module, name,
                            _timed(original, records.setdefault(name, [0, 0])))
        try:
            start = time.perf_counter()
            if task == "rating":
                trainer.train_rating(train, prepared.item_side, cfg)
            else:
                liked = dataset.binarize(train, cfg.binarize_threshold,
                                         cfg.binarize_comparison)
                trainer.train_ranking(liked, prepared.user_side, cfg)
            wall = time.perf_counter() - start
        finally:
            for module, name, original in originals:
                setattr(module, name, original)
        for name, (calls, ns) in records.items():
            if calls:
                rows.append((task, name, calls, ns / calls / 1e3, ns / 1e9))
        rows.append((task, "epoch", cfg.epochs, wall / cfg.epochs * 1e6, wall))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout whose semiae is timed "
                             "(default: this one)")
    parser.add_argument("--format", choices=FORMATS, default="ml-100k")
    parser.add_argument("--users", type=int, default=300)
    parser.add_argument("--items", type=int, default=80)
    parser.add_argument("--ratings", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic layout")
    parser.add_argument("--rating-epochs", type=int, default=2)
    parser.add_argument("--ranking-epochs", type=int, default=50)
    args = parser.parse_args(argv)
    # before numpy is first imported, which reads them
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    package = (args.checkout / "src" / "semiae").resolve()
    if not (package / "__init__.py").is_file():
        print(f"error: {args.checkout} holds no src/semiae/__init__.py",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    loaded = Path(importlib.import_module("semiae").__file__).resolve()
    if loaded.parent != package:
        print(f"error: semiae was loaded from {loaded.parent}, not from "
              f"{package}", file=sys.stderr)
        return 2
    for task, part, calls, per_call, total in step_times(
            args.format, args.users, args.items, args.ratings, args.seed,
            {"rating": args.rating_epochs, "ranking": args.ranking_epochs}):
        print(f"{task:<8} {part:<26} {calls:>7} calls {per_call:>10.1f} us "
              f"{total:>8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
