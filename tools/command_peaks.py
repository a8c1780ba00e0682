#!/usr/bin/env python3
"""Print the exit code, wall time and peak RSS of each command of the CLI.

Runs the pass of ``tools/artifact_hashes.py``, on the same synthetic
layout, with the same configs and environment (one BLAS and OpenMP thread
unless the caller sets a count), each command in its own process, and
prints one line per command:

    label  exit code  wall seconds  peak RSS in MiB

The peak is the child's ``ru_maxrss`` from ``os.wait4``.  At ml-100k shape:

    python3 tools/command_peaks.py --users 943 --items 1682 --ratings 100000

Unlike ``artifact_hashes.py``, a command that fails does not stop the pass:
its line shows its exit code, and its stderr passes through.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_hashes import child_env, commands, layout_args, set_up  # noqa: E402


def command_peaks(fmt: str = "ml-100k", num_users: int = 300,
                  num_items: int = 80, num_ratings: int = 6000,
                  seed: int = 0) -> list[tuple[str, int, float, float]]:
    """``(label, exit code, wall seconds, peak RSS in MiB)`` of each
    command of the pass, in order."""
    env = child_env()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        last_user = set_up(work, fmt, num_users, num_items, num_ratings, seed)
        for label, argv in commands(fmt, last_user):
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "semiae.cli", *argv], cwd=work,
                env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            # reaped here, so that Popen does not wait for it again
            child.returncode = os.waitstatus_to_exitcode(status)
            rows.append((label, child.returncode, wall,
                         usage.ru_maxrss / 1024))  # KiB on Linux
    return rows


def main(argv: list[str] | None = None) -> int:
    layout = layout_args(__doc__.splitlines()[0], argv)
    for label, code, wall, peak in command_peaks(*layout):
        print(f"{label:<22} exit {code:<3} {wall:7.2f} s {peak:8.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
