import importlib.util
import statistics
import subprocess
from pathlib import Path

import pytest

from semiae.dataset import FORMATS

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fmt", FORMATS)
def test_artifact_hashes_repeat_and_cover_every_output(fmt):
    tool = load_tool("artifact_hashes")
    # 1 of 20 users and 5 of 30 items have no rating, so side rows are dropped
    shape = dict(fmt=fmt, num_users=20, num_items=30, num_ratings=70)
    first = tool.artifact_hashes(**shape)
    assert tool.artifact_hashes(**shape) == first
    names = [line.split("  ", 1)[1] for line in first]
    streams = [f"{label}.{stream}" for label, _ in tool.commands(fmt)
               for stream in ("stdout", "stderr")]
    # every command that writes a file writes one, and a manifest beside it
    written = ("prepared.json", "rating.json", "rating.eval.json",
               "ranking.json", "ranking-default.json", "ranking.eval.json",
               "table2/table2.csv", "table1/table1.csv")
    assert names[:len(streams)] == streams
    assert sorted(names[len(streams):]) == sorted(
        name for output in written
        for name in (output, f"{output}.manifest.json"))
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)


def test_artifact_hashes_children_run_at_one_blas_thread(monkeypatch):
    tool = load_tool("artifact_hashes")
    for var in tool.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    # a thread count the caller sets is kept
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.setenv("SEMIAE_LOG", "info")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    seen = []

    def fake_run(argv, cwd, env, capture_output):
        seen.append(env)
        return subprocess.CompletedProcess(argv, 0, b"", b"")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    tool.artifact_hashes(num_users=5, num_items=4, num_ratings=10)
    assert len(seen) == len(tool.commands("ml-100k"))
    for env in seen:
        assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"],
                env["MKL_NUM_THREADS"]) == ("1", "3", "1")
        assert env["PYTHONPATH"] == str(tool.SRC)
        assert "SEMIAE_LOG" not in env


def test_command_peaks_prints_one_line_per_command(capsys):
    tool = load_tool("command_peaks")
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        label for label, _ in load_tool("artifact_hashes").commands("ml-100k")]
    for line in lines:
        _, exit_word, code, wall, seconds, peak, mib = line.split()
        assert (exit_word, code, seconds, mib) == ("exit", "0", "s", "MiB")
        assert float(wall) > 0 and float(peak) > 0


def test_step_times_prints_each_part_of_each_task(capsys, monkeypatch):
    tool = load_tool("step_times")
    for var in tool.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert tool.main(["--rating-epochs", "1", "--ranking-epochs", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[:2] for row in rows] == [
        ["rating", "build_vectors"], ["rating", "loss_and_gradients"],
        ["rating", "update"], ["rating", "_penalty"],
        ["rating", "_add_penalty_gradient"], ["rating", "epoch"],
        ["ranking", "sparse_rows"], ["ranking", "sparse_index"],
        ["ranking", "sparse_loss_and_gradients"],
        ["ranking", "update"], ["ranking", "_penalty"],
        ["ranking", "_add_penalty_gradient"], ["ranking", "epoch"]]
    calls = {(task, part): int(count) for task, part, count, *_ in rows}
    # 80 items in batches of 64, 300 users in 5 batches; the ranking
    # epoch lays out its rows, and the step's indices, once
    assert calls["rating", "loss_and_gradients"] == 2
    assert calls["ranking", "sparse_loss_and_gradients"] == 15
    assert (calls["ranking", "sparse_rows"] == calls["ranking", "sparse_index"]
            == calls["ranking", "epoch"] == 3)
    for _, _, _, calls_word, per_call, us, total, s in rows:
        assert (calls_word, us, s) == ("calls", "us", "s")
        assert float(per_call) > 0 and float(total) >= 0


def test_bench_pairs_summary_counts_pairs_won_per_metric():
    tool = load_tool("bench_pairs")

    def run(seed, side, eval_s, loss, correct=True):
        # model_bytes is 3% larger and train_rows_per_s 20% lower in the
        # change: beyond the first's 2% bound, within the second's 25%;
        # the parent's setup_s spreads far wider than its 25% bound, and
        # every run of the change is faster than every run of the parent
        worse = side == "change"
        metrics = {"eval_s": {"value": eval_s, "unit": "s"},
                   "setup_s": {"value": 0.05 if worse else seed / 10,
                               "unit": "s"},
                   "train_loss": {"value": loss, "unit": "loss"},
                   "model_bytes": {"value": 1030 if worse else 1000,
                                   "unit": "bytes"},
                   "train_rows_per_s": {"value": 80 if worse else 100,
                                        "unit": "rows/s"}}
        return {"workload": "ranking-ml100k", "seed": seed, "side": side,
                "ran_first_in_pair": "parent" if seed % 2 else "change",
                "trace": 0, "environment": {},
                "result": {"correct": correct, "attempted": 10, "failed": 0,
                           "metrics": metrics}}

    runs = [run(1, "parent", 0.20, 8.0), run(1, "change", 0.10, 8.0),
            run(2, "change", 0.12, 7.5), run(2, "parent", 0.18, 7.5),
            run(3, "parent", 0.16, 7.0), run(3, "change", 0.17, 7.0),
            run(4, "parent", 0.30, 6.0),
            {**run(4, "change", 0.0, 6.0), "result": None, "error": "boom"},
            run(5, "parent", 0.01, 5.0, correct=False),
            run(5, "change", 0.11, 5.0)]
    lines = tool.summarize(runs, [
        {"name": name, "better": better, "bound": bound}
        for name, better, bound in [
            ("eval_s", "lower", 0.25), ("setup_s", "lower", 0.25),
            ("train_loss", "lower", 0.25),
            ("total_s", "lower", 0.25), ("model_bytes", "lower", 0.02),
            ("train_rows_per_s", "higher", 0.25)]])
    assert lines[0] == ("ranking-ml100k: failed or incorrect runs parent 1, "
                        "change 1")
    # seed 4 has no change result and seed 5 no correct parent result, so
    # three pairs; total_s has no values
    assert len(lines) == 6
    eval_line, setup_line, loss_line, bytes_line, rows_line = lines[1:]
    assert eval_line.split()[:2] == ["eval_s", "parent"]
    # parent 0.16, 0.18, 0.20, 0.30: median 0.19, inclusive quartiles
    # 0.175 and 0.225; change 0.10, 0.11, 0.12, 0.17: median 0.115
    assert "parent 0.19 (0.175-0.225)" in eval_line
    assert "change 0.115 (0.1075-0.1325)" in eval_line
    assert "-39.5%" in eval_line
    assert "change better in 2/3 pairs, equal in 0" in eval_line
    # the parent's quartiles are 0.05 apart, wider than 25% of 0.19, and
    # the change's 0.17 is slower than the parent's 0.16
    assert eval_line.endswith("beyond the parent's quartiles: yes; "
                              "worse beyond the 25% bound: unresolved")
    # parent 0.1-0.4 (quartiles 0.175-0.325 around 0.25), change 0.05
    assert "parent 0.25 (0.175-0.325)" in setup_line
    assert setup_line.endswith("worse beyond the 25% bound: no")
    assert "change better in 0/3 pairs, equal in 3" in loss_line
    assert loss_line.endswith("beyond the parent's quartiles: no; "
                              "worse beyond the 25% bound: no")
    assert bytes_line.endswith("worse beyond the 2% bound: yes")
    assert "-20.0%" in rows_line
    assert rows_line.endswith("worse beyond the 25% bound: no")
    assert tool.seed_range("1501-1503,1507") == [1501, 1502, 1503, 1507]


def test_bench_pairs_summary_counts_pairs_whose_rounds_agree():
    tool = load_tool("bench_pairs")
    loss = 255.6213562950183
    # the same value every round, yet its mean over 3 rounds and over 4
    # differ in the last digit
    parent_mean, change_mean = (statistics.fmean([loss] * k) for k in (3, 4))
    assert parent_mean != change_mean

    def run(side, value, rounds):
        metrics = {"train_loss": {"value": value, "unit": "loss"},
                   "model_bytes": {"value": 1000, "unit": "bytes"}}
        return {"workload": "cli-ml100k", "seed": 1, "side": side,
                "ran_first_in_pair": "parent", "trace": 0, "environment": {},
                "result": {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": metrics},
                "rounds": [{"train_loss": loss, "model_bytes": 1000}] * rounds}

    runs = [run("parent", parent_mean, 3), run("change", change_mean, 4)]
    specs = [{"name": name, "better": "lower", "bound": 0.02}
             for name in ("train_loss", "model_bytes")]
    loss_line, bytes_line = tool.summarize(runs, specs)[1:]
    assert "equal in 0, rounds equal in 1/1;" in loss_line
    assert "equal in 1, rounds equal in 1/1;" in bytes_line
    # a round that differs is no longer equal
    runs[1]["rounds"] = runs[1]["rounds"][:3] + [{"train_loss": loss + 1,
                                                   "model_bytes": 1000}]
    assert "rounds equal in 0/1;" in tool.summarize(runs, specs)[1]


def test_bench_pairs_summary_shows_each_eval_part():
    tool = load_tool("bench_pairs")

    def run(seed, side, recall, popular, correct=True):
        # two rounds; a part's figure is its fastest sample in either
        rounds = [{"eval_s": {"semi-ae Recall@5": [recall + 0.5],
                              "most-popular Recall@5": [popular, 9.0]}},
                  {"eval_s": {"semi-ae Recall@5": [recall],
                              "most-popular Recall@5": [popular + 1.0]}}]
        for figures in rounds:
            figures.update(train_loss=1.0, model_bytes=1000)
        return {"workload": "ranking-ml100k", "seed": seed, "side": side,
                "ran_first_in_pair": "parent", "trace": 0, "environment": {},
                "result": {"correct": correct, "attempted": 1, "failed": 0,
                           "metrics": {"eval_s": {"value": recall + popular,
                                                  "unit": "s"}}},
                "rounds": rounds}

    runs = [run(1, "parent", 0.10, 0.010), run(1, "change", 0.05, 0.011),
            run(2, "parent", 0.12, 0.012), run(2, "change", 0.04, 0.010),
            run(3, "parent", 0.08, 0.008), run(3, "change", 0.06, 0.009),
            # an incorrect run's parts are left out, as its figures are
            run(4, "parent", 0.01, 0.001), run(4, "change", 5.0, 5.0,
                                               correct=False)]
    lines = tool.summarize(runs, [{"name": "eval_s", "better": "lower",
                                   "bound": 0.25}])
    assert lines[2:] == [
        "  eval_s part 'semi-ae Recall@5': parent 0.1  change 0.05  -50.0%  "
        "change faster in 3/3 pairs",
        "  eval_s part 'most-popular Recall@5': parent 0.01  change 0.01  "
        "+0.0%  change faster in 1/3 pairs"]
