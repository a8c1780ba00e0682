#!/usr/bin/env python3
"""Paired benchmark runs of this checkout against a parent checkout.

    python3 tools/bench_pairs.py run PARENT --seeds 1501-1510 \\
        --out BENCH_13.json --description "what the change is"
    python3 tools/bench_pairs.py summary BENCH_13.json

``run`` runs ``perfbench/run.py --trace 0`` once per side (this checkout is
the ``change``, the directory ``PARENT`` the ``parent``), for every seed and
every workload of ``BENCHMARK.json``, each run as long as its
``run_seconds``.  The two runs of a pair alternate which side goes first:
odd seeds run the parent first, even seeds the change.
After each run the result lines are written to ``--out`` as
``{"description", "runs": [{workload, seed, side, ran_first_in_pair, trace,
environment, result, rounds}]}``, where ``rounds`` holds each untraced
round's own figures, so that an interrupted series keeps what it ran.
A run that exits non-zero is recorded with ``result: null`` and its last
line of standard error.

``summary`` (and ``run``, when done) prints, for each workload and
end-to-end metric, both sides' medians with their quartiles, the change of
the median relative to the parent's, the pairs in which the change is
better (and equal), for ``train_loss`` and ``model_bytes`` the pairs
whose rounds give the same values on both sides (a run reports the mean
over its rounds, whose last digit can differ between runs of different
round counts), whether the medians lie further apart than the
parent's quartiles, and the no-regression verdict: ``yes`` when the
change's median is worse than the parent's by more than the metric's
relative ``bound``, else ``unresolved`` when the parent's quartiles lie
further apart than that bound and not every run of the change is better
than every run of the parent, else ``no``.  Then, for each part of
``eval_s`` in the rounds (``semi-ae Recall@5``, ...), both sides' median
over runs of the run's fastest sample of that part, and the pairs in which
the change is faster, so that a claim shows which part moved.  Which direction is better,
and each bound, come from this checkout's ``BENCHMARK.json``.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")
# metrics that are the same every round of a run, so that equal rounds
# mean an equal figure
ROUND_METRICS = ("train_loss", "model_bytes")


def seed_range(text: str) -> list[int]:
    """``"1501-1510"`` or ``"1501,1503"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(checkout: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py --trace 0`` from the root of ``checkout``:
    its rounds, environment and result lines, or a null result and the
    error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"environment": None, "result": None, "error": error}
    return {"environment": json.loads(lines[-2])["environment"],
            "result": json.loads(lines[-1]),
            "rounds": json.loads(lines[-3])["rounds"]}


def run_pairs(parent: Path, seeds: list[int], out: Path,
              description: str) -> list[dict]:
    checkouts = {"parent": parent, "change": ROOT}
    runs: list[dict] = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            for side in order:
                print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "ran_first_in_pair": order[0], "trace": 0,
                             **one_run(checkouts[side], workload, seed)})
                out.write_text(json.dumps({"description": description,
                                           "runs": runs}, indent=1) + "\n")
    return runs


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(runs: list[dict], metrics: list[dict]) -> list[str]:
    """One line per workload and metric; ``metrics`` are the end-to-end
    entries of ``BENCHMARK.json``, each with its ``name``, ``better``
    (``"lower"`` or ``"higher"``) and relative ``bound``."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        values: dict = {}  # (metric, side) -> {seed: value}
        rounds: dict = {}  # (metric, side, seed) -> set of round values
        parts: dict = {}  # eval_s part -> side -> {seed: fastest sample}
        failed = {side: 0 for side in SIDES}
        for r in runs:
            if r["workload"] != workload:
                continue
            if r["result"] is None or not r["result"]["correct"]:
                failed[r["side"]] += 1
                continue
            for metric, entry in r["result"]["metrics"].items():
                values.setdefault((metric, r["side"]), {})[r["seed"]] = entry["value"]
            for metric in ROUND_METRICS if "rounds" in r else ():
                rounds[metric, r["side"], r["seed"]] = {
                    figures[metric] for figures in r["rounds"]}
            for figures in r.get("rounds", ()):
                for part, samples in figures.get("eval_s", {}).items():
                    seen = parts.setdefault(part, {}).setdefault(r["side"], {})
                    seen[r["seed"]] = min(min(samples),
                                          seen.get(r["seed"], math.inf))
        lines.append(f"{workload}: failed or incorrect runs parent "
                     f"{failed['parent']}, change {failed['change']}")
        for spec in metrics:
            metric = spec["name"]
            old = values.get((metric, "parent"), {})
            new = values.get((metric, "change"), {})
            seeds = sorted(set(old) & set(new))
            if not seeds:
                continue
            sign = 1 if spec["better"] == "higher" else -1
            won = sum(sign * (new[s] - old[s]) > 0 for s in seeds)
            tied = sum(new[s] == old[s] for s in seeds)
            same = ""
            if metric in ROUND_METRICS:
                both = [s for s in seeds
                        if all((metric, side, s) in rounds for side in SIDES)]
                equal = sum(rounds[metric, "parent", s]
                            == rounds[metric, "change", s] for s in both)
                same = f", rounds equal in {equal}/{len(both)}"
            (m0, a0, b0), (m1, a1, b1) = (_spread(list(side.values()))
                                          for side in (old, new))
            rel = f"{100 * (m1 - m0) / m0:+.1f}%" if m0 else "n/a"
            apart = "yes" if abs(m1 - m0) > b0 - a0 else "no"
            bound = spec["bound"] * abs(m0)
            if sign * (m0 - m1) > bound:
                worse = "yes"
            elif b0 - a0 > bound and (min(sign * v for v in new.values())
                                      <= max(sign * v for v in old.values())):
                # the parent's own runs spread wider than the bound, and
                # some run of the change is no better than some parent run
                worse = "unresolved"
            else:
                worse = "no"
            lines.append(
                f"  {metric:18s} parent {m0:.6g} ({a0:.6g}-{b0:.6g})  change "
                f"{m1:.6g} ({a1:.6g}-{b1:.6g})  {rel}  change better in "
                f"{won}/{len(seeds)} pairs, equal in {tied}{same}; medians apart "
                f"beyond the parent's quartiles: {apart}; worse beyond the "
                f"{spec['bound']:.0%} bound: {worse}")
        for part, sides in parts.items():
            old, new = (sides.get(side, {}) for side in SIDES)
            seeds = sorted(set(old) & set(new))
            if not seeds:
                continue
            m0, m1 = (statistics.median(side[s] for s in seeds)
                      for side in (old, new))
            rel = f"{100 * (m1 - m0) / m0:+.1f}%" if m0 else "n/a"
            faster = sum(new[s] < old[s] for s in seeds)
            lines.append(f"  eval_s part {part!r}: parent {m0:.6g}  change "
                         f"{m1:.6g}  {rel}  change faster in "
                         f"{faster}/{len(seeds)} pairs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the pairs, write and summarize them")
    run.add_argument("parent", type=Path, help="root of the parent checkout")
    run.add_argument("--seeds", type=seed_range, required=True,
                     help="e.g. 1501-1510 or 1501,1503")
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--description", required=True)
    summary = sub.add_parser("summary", help="summarize a written file")
    summary.add_argument("file", type=Path)
    args = parser.parse_args(argv)

    if args.command == "run":
        if not (args.parent / "perfbench" / "run.py").is_file():
            parser.error(f"{args.parent} holds no perfbench/run.py")
        runs = run_pairs(args.parent.resolve(), args.seeds, args.out,
                         args.description)
    else:
        runs = json.loads(args.file.read_text())["runs"]
    print("\n".join(summarize(runs, BENCHMARK["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
