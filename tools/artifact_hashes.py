#!/usr/bin/env python3
"""Hash every artifact and every command output of one pass over the CLI.

In a temporary directory, on a ``semiae.synthetic`` layout, runs each
command in its own process, as a user would:

    prepare; train and evaluate (rating, then ranking); train a second
    ranking model, at the Table 2 defaults; recommend for the first and
    the last user; reproduce --table 2; reproduce --table 1

and prints one ``sha256  name`` line for every file the commands wrote and
for the stdout and stderr of every command.  Manifests are hashed without
their ``created_unix`` and ``output_dir`` entries, and log lines on stderr
without their time stamp; everything else is hashed as written.  Byte
parity between two checkouts is then a diff:

    python3 tools/artifact_hashes.py --format ml-1m > new.txt
    python3 /path/to/other/checkout/tools/artifact_hashes.py --format ml-1m > old.txt
    diff old.txt new.txt

The CLI comes from the ``src/`` of the checkout that holds this script.
Its processes run at one BLAS and OpenMP thread unless the caller's
environment sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``: trained weights differ between thread counts, so the
hashes would otherwise depend on the machine's cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from semiae.dataset import FORMATS, LAYOUTS, parse_ratings  # noqa: E402
from semiae.synthetic import write_layout  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONFIGS = {
    # the default H=500, so the rating model's weight matrices span several
    # blocks of the training step's elementwise passes
    "rating": {"epochs": 3, "seed": 1},
    # a sigmoid output layer, so that its derivative in the training step
    # and its activation in scoring are covered too
    "ranking": {"epochs": 5, "seed": 1, "binarize_threshold": 3.0,
                "f": "sigmoid"},
    # the Table 2 defaults, an identity f and the loss over every output,
    # whose training steps from each batch's triples
    "ranking-default": {"epochs": 5, "seed": 1, "binarize_threshold": 3.0},
    # rating trains with adam and ranking with sgd; reproduce takes the
    # third optimizer and a tanh hidden layer, on the identity-f step from
    # each batch's triples
    "reproduce": {"epochs": 5, "seed": 1, "binarize_threshold": 3.0,
                  "optimizer": "rmsprop", "g": "tanh"},
}
STAMP = re.compile(rb"^\d{4}-\d\d-\d\d \d\d:\d\d:\d\d,\d{3} ", re.MULTILINE)


def commands(fmt: str, last_user: int = 1) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) of the pass, in order; raw user id 1 exists
    in every synthetic layout, and ``last_user`` is the raw id of the
    layout's last rated user."""
    recommend = ["--n", "10", "--train-fraction", "0.5", "--seed", "1"]
    return [
        ("prepare", ["prepare", "--raw", "raw", "--format", fmt,
                     "--out", "out/prepared.json"]),
        ("train-rating", ["train", "--data", "out/prepared.json", "--task",
                          "rating", "--config", "rating.cfg.json",
                          "--out", "out/rating.json",
                          "--train-fraction", "0.8"]),
        ("evaluate-rating", ["evaluate", "--model", "out/rating.json",
                             "--data", "out/prepared.json",
                             "--train-fraction", "0.8", "--seed", "1",
                             "--out", "out/rating.eval.json"]),
        ("train-ranking", ["train", "--data", "out/prepared.json", "--task",
                           "ranking", "--config", "ranking.cfg.json",
                           "--out", "out/ranking.json",
                           "--train-fraction", "0.5"]),
        ("train-ranking-default", ["train", "--data", "out/prepared.json",
                                   "--task", "ranking", "--config",
                                   "ranking-default.cfg.json", "--out",
                                   "out/ranking-default.json",
                                   "--train-fraction", "0.5"]),
        ("evaluate-ranking", ["evaluate", "--model", "out/ranking.json",
                              "--data", "out/prepared.json",
                              "--train-fraction", "0.5", "--seed", "1",
                              "--recall", "1,5,10",
                              "--out", "out/ranking.eval.json"]),
        ("recommend", ["recommend", "--model", "out/ranking.json",
                       "--data", "out/prepared.json", "--user", "1",
                       *recommend]),
        # past the first scoring chunk of the top-n lists, on the default
        # layout
        ("recommend-last", ["recommend", "--model", "out/ranking.json",
                            "--data", "out/prepared.json",
                            "--user", str(last_user), *recommend]),
        ("reproduce", ["reproduce", "--table", "2", "--raw", "raw",
                       "--format", fmt, "--seeds", "1,2",
                       "--config", "reproduce.cfg.json",
                       "--out-dir", "out/table2"]),
        # the item rows of the rating model, through the table 1 cells
        ("reproduce-table1", ["reproduce", "--table", "1", "--raw", "raw",
                              "--format", fmt, "--seeds", "1",
                              "--config", "rating.cfg.json",
                              "--out-dir", "out/table1"]),
    ]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name.endswith(".manifest.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("created_unix", None)
        doc.pop("output_dir", None)
        return _digest(json.dumps(doc, sort_keys=True).encode())
    return _digest(path.read_bytes())


def child_env() -> dict[str, str]:
    """The environment of the pass's processes: this checkout's ``src/``,
    one BLAS and OpenMP thread unless the caller set a count, no log."""
    env = {var: "1" for var in THREAD_VARS}  # unless the caller set them
    env.update(os.environ, PYTHONPATH=str(SRC))
    env.pop("SEMIAE_LOG", None)
    return env


def set_up(work: Path, fmt: str, num_users: int, num_items: int,
           num_ratings: int, seed: int) -> int:
    """Write the synthetic layout to ``work/raw`` and each of
    :data:`CONFIGS` to ``work/<name>.cfg.json``; returns the raw id of the
    layout's last rated user, for :func:`commands`."""
    write_layout(work / "raw", fmt, num_users, num_items, num_ratings, seed)
    for task, cfg in CONFIGS.items():
        (work / f"{task}.cfg.json").write_text(json.dumps(cfg))
    ratings = work / "raw" / LAYOUTS[fmt]["ratings"][0]
    return parse_ratings(ratings, fmt).user_ids[-1]


def artifact_hashes(fmt: str = "ml-100k", num_users: int = 300,
                    num_items: int = 80, num_ratings: int = 6000,
                    seed: int = 0) -> list[str]:
    """The ``sha256  name`` lines of one pass over the CLI."""
    env = child_env()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        last_user = set_up(work, fmt, num_users, num_items, num_ratings, seed)
        for label, argv in commands(fmt, last_user):
            run = subprocess.run([sys.executable, "-m", "semiae.cli", *argv],
                                 cwd=work, env=env, capture_output=True)
            if run.returncode != 0:
                raise RuntimeError(f"{label} exited {run.returncode}: "
                                   f"{run.stderr.decode(errors='replace')}")
            lines.append(f"{_digest(run.stdout)}  {label}.stdout")
            lines.append(f"{_digest(STAMP.sub(b'', run.stderr))}  {label}.stderr")
        out = work / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            lines.append(f"{_file_digest(path)}  {path.relative_to(out)}")
    return lines


def layout_args(description: str, argv: list[str] | None
                ) -> tuple[str, int, int, int, int]:
    """The layout of the pass from the command line: format, users, items,
    ratings and seed."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--format", choices=FORMATS, default="ml-100k")
    # more users than one scoring chunk of the top-n lists (256)
    parser.add_argument("--users", type=int, default=300)
    parser.add_argument("--items", type=int, default=80)
    parser.add_argument("--ratings", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic layout")
    args = parser.parse_args(argv)
    return args.format, args.users, args.items, args.ratings, args.seed


def main(argv: list[str] | None = None) -> int:
    layout = layout_args(__doc__.splitlines()[0], argv)
    print("\n".join(artifact_hashes(*layout)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
