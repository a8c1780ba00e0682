#!/usr/bin/env python3
"""A mutation sweep of one module of ``src/semiae``: which code does no test
pin?

    python3 tools/mutants.py model

Each site of the module is changed by one operator at a time: ``+`` and
``-`` swap, so do ``*`` and ``/``, ``<`` and ``<=``, ``>`` and ``>=``,
``==`` and ``!=``, ``is`` and ``is not`` (in an expression or an augmented
assignment), and an int or float constant gains 1.  The mutant is written
back with ``ast.unparse`` into a copy of the tree in a temporary directory
(``BENCHMARK.json`` and ``perfbench/`` included, as tier-1 reads them; not
``.git``, ``data/``, caches, ``.hypothesis/`` or ``perfbench/.work/``), so
the checkout is never touched.  Each mutant runs the module's own tests,
``tests/test_MODULE.py``, with ``pytest -x``; a mutant they pass runs the
whole tier-1.  A mutant that tier-1 passes too survives, and is printed as

    src/semiae/model.py:42: old -> new

where ``old`` is the changed expression or statement (for a constant, the
expression around it) and ``new`` its mutant.  A mutant listed in
``tools/equivalent_mutants.json``, by file, enclosing function and that
text, is skipped: it is equivalent, and the entry gives the reason.  Keys
hold no line numbers, which drift.  A run that fails or times out kills its
mutant.  The tests run at one BLAS thread, from the copy's ``src/``, without
bytecode files.  The exit code is 1 if a mutant survived.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENTS = "tools/equivalent_mutants.json"
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
IGNORED = shutil.ignore_patterns(".git", "data", "__pycache__",
                                 ".pytest_cache", ".hypothesis", ".benchmarks",
                                 ".work")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def _annotate(tree: ast.AST) -> list[ast.AST]:
    """The nodes of ``tree`` in source order, each given its parent and
    the qualified name of its enclosing function or class."""
    nodes = []

    def visit(node, parent, scope):
        node.parent, node.scope = parent, scope
        nodes.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = node.name if scope == "<module>" else \
                f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, node, scope)

    visit(tree, None, "<module>")
    return nodes


def _mutations(node: ast.AST) -> list[tuple[ast.AST, object]]:
    """``(node, change)`` for each mutant of ``node``: a change is a swap
    of its operator, the index of a comparison's operator to swap, or
    ``"+1"`` for a constant."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
            type(node.op) in SWAPS:
        return [(node, "op")]
    if isinstance(node, ast.Compare):
        return [(node, k) for k, op in enumerate(node.ops)
                if type(op) in SWAPS]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return [(node, "+1")]
    return []


def _mutate(node: ast.AST, change):
    """Apply ``change`` to ``node``; returns a function that undoes it."""
    if change == "op":
        old = node.op
        node.op = SWAPS[type(old)]()
        return lambda: setattr(node, "op", old)
    if change == "+1":
        old = node.value
        node.value = old + 1
        return lambda: setattr(node, "value", old)
    old = node.ops[change]
    node.ops[change] = SWAPS[type(old)]()
    return lambda: node.ops.__setitem__(change, old)


def _shown(node: ast.AST) -> ast.AST:
    """The node whose text shows a mutant: a constant shows in the
    expression or statement around it (past a sign), or alone as a
    parameter's default."""
    if not isinstance(node, ast.Constant):
        return node
    shown = node.parent
    while isinstance(shown, ast.UnaryOp):
        shown = shown.parent
    return node if isinstance(shown, ast.arguments) else shown


def sites(source: str) -> tuple[ast.Module, list[dict]]:
    """The tree of the module ``source`` and every mutant of it, in source
    order: its node and change, line, function, and the shown text before
    and after."""
    tree = ast.parse(source)
    found = []
    for node, change in (m for n in _annotate(tree) for m in _mutations(n)):
        shown = _shown(node)
        old = ast.unparse(shown)
        undo = _mutate(node, change)
        found.append({"node": node, "change": change, "line": node.lineno,
                      "function": node.scope,
                      "mutant": f"{old} -> {ast.unparse(shown)}"})
        undo()
    return tree, found


def mutant_source(tree: ast.Module, site: dict) -> str:
    """The module of ``tree`` with the mutant ``site`` applied."""
    undo = _mutate(site["node"], site["change"])
    try:
        return ast.unparse(tree)
    finally:
        undo()


def _run_tests(tree: Path, tests: list[str], timeout: float) -> bool:
    """Whether ``pytest -x`` on ``tests`` passes in ``tree``."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=tree, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def sweep(root: Path, module: str, out=sys.stdout) -> list[str]:
    """Sweep every site of ``src/semiae/MODULE.py`` under ``root``; print
    and return the survivors' lines."""
    path = f"src/semiae/{module}.py"
    own = [f"tests/test_{module}.py"]
    listed = root / EQUIVALENTS
    skip = {(e["file"], e["function"], e["mutant"])
            for e in (json.loads(listed.read_text()) if listed.exists()
                      else [])}
    tree, found = sites((root / path).read_text())
    survivors, skipped = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        copied = Path(tmp) / "tree"
        shutil.copytree(root, copied, ignore=IGNORED)
        target = copied / path
        # the tests must pass on the module as ast.unparse writes it
        target.write_text(ast.unparse(tree))
        start = time.perf_counter()
        if not _run_tests(copied, own, None):
            raise SystemExit(f"error: {own[0]} fails on the unmutated "
                             f"{path}")
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        for site in found:
            if (path, site["function"], site["mutant"]) in skip:
                skipped += 1
                continue
            target.write_text(mutant_source(tree, site))
            if _run_tests(copied, own, timeout) and \
                    _run_tests(copied, [], 10 * timeout):
                line = f"{path}:{site['line']}: {site['mutant']}"
                survivors.append(line)
                print(line, file=out, flush=True)
    print(f"{path}: {len(found)} sites, {skipped} listed equivalent, "
          f"{len(survivors)} survivors", file=out)
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="a module of src/semiae, as 'model'")
    args = parser.parse_args(argv)
    return 1 if sweep(ROOT, args.module) else 0


if __name__ == "__main__":
    sys.exit(main())
