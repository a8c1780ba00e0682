import re
from pathlib import Path

import semiae

README = Path(__file__).resolve().parents[1] / "README.md"


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
