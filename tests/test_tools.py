import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_hashes_repeat_and_cover_every_output():
    tool = load_tool("artifact_hashes")
    shape = dict(fmt="ml-100k", num_users=20, num_items=15, num_ratings=150)
    first = tool.artifact_hashes(**shape)
    assert tool.artifact_hashes(**shape) == first
    names = [line.split("  ", 1)[1] for line in first]
    for label, _ in tool.commands("ml-100k"):
        assert f"{label}.stdout" in names and f"{label}.stderr" in names
    for artifact in ("prepared.json", "rating.json", "rating.losses.csv",
                     "rating.eval.json", "ranking.json", "ranking.eval.json",
                     "table2/table2.csv", "table2/table2_summary.txt"):
        assert artifact in names
    # every command that writes a file writes a manifest beside it
    for written in ("prepared.json", "rating.json", "ranking.json",
                    "rating.eval.json", "ranking.eval.json",
                    "table2/table2.csv"):
        assert f"{written}.manifest.json" in names
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)
