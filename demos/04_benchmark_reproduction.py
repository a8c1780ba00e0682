#!/usr/bin/env python3
# Driving the benchmark-reproduction CLI.  With the real MovieLens archives
# under ./data this reruns the published ranking table; without them it
# demonstrates the identical mechanics on a generated stand-in directory.

import sys
import tempfile
from pathlib import Path

from semiae.cli import main
from semiae.synthetic import write_layout

real = Path("data/ml-100k")

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    if real.joinpath("u.data").exists():
        raw = real
        config_args = []
        print("found data/ml-100k; reproducing the ranking table "
              "(a few minutes per seed)")
    else:
        raw = write_layout(work / "ml-100k-stand-in", "ml-100k", num_users=60,
                           num_items=40, num_ratings=900, seed=1)
        cfg = work / "short.json"
        cfg.write_text('{"epochs": 50, "binarize_threshold": 3.0}')
        config_args = ["--config", str(cfg)]
        print("data/ml-100k not found -> running on a generated stand-in")
        print("(fetch the real archives with: python3 tools/fetch_movielens.py)")

    code = main(["reproduce", "--table", "2", "--raw", str(raw),
                 "--seeds", "1,2", "--out-dir", str(work / "out"),
                 *config_args])
    print("\nartifacts (removed on exit):")
    for p in sorted((work / "out").iterdir()):
        print(" ", p)
sys.exit(code)
