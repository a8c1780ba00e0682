import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semiae

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in semiae.__all__ if not hasattr(semiae, name)]
    assert missing == []


def test_readme_library_import_line_works():
    match = re.search(r"^from semiae import \(.*?\)$", README.read_text(),
                      re.M | re.S)
    assert match is not None
    namespace: dict = {}
    exec(match.group(0), namespace)
    imported = set(namespace) - {"__builtins__"}
    assert imported and imported <= set(semiae.__all__)


def test_every_traced_function_exists():
    # perfbench/spans.py wraps these by name; a rename would silently drop
    # its span from a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{home}.{name}" for home, names in spans.SPANS.values()
               for name in names
               if not callable(getattr(importlib.import_module(home), name,
                                       None))]
    assert missing == []


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # from a directory without data/, so the demos use generated stand-ins,
    # and with a temporary directory of their own, which they must leave
    # as they found it
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp.iterdir()) == []
