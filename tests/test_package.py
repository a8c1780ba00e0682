import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semiae
from semiae.cli import main
from semiae.dataset import binarize, load_raw_directory, split
from semiae.evaluation import rmse
from semiae.model import loss_and_gradients
from semiae.trainer import (TrainConfig, load_model, predict_ratings,
                            recommend_top_n, train_ranking, train_rating)

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
    # perfbench/spans.py wraps these by name; a missing one makes a traced
    # benchmark run fail as its tracer installs
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = [(importlib.import_module(home), name)
              for home, names in spans.SPANS.values() for name in names]
    missing = [f"{module.__name__}.{name}" for module, name in traced
               if not callable(getattr(module, name, None))]
    assert missing == []
    originals = [getattr(module, name) for module, name in traced]
    tracer = spans.Tracer().install()
    try:
        assert all(getattr(module, name).__wrapped__ is original
                   for (module, name), original in zip(traced, originals))
    finally:
        tracer.restore()
    assert [getattr(module, name) for module, name in traced] == originals


@pytest.mark.parametrize("task", ["rating", "ranking"])
def test_benchmark_reads_the_model_file(task, ml100k_dir, tmp_path):
    # perfbench reads a model file without semiae: the weights through
    # checks.params_from_doc, and two entries of the echo
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    prepared, model = tmp_path / "prepared.json", tmp_path / "model.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2, "hidden_dim": 4}))
    for argv in (["prepare", "--raw", ml100k_dir, "--out", prepared],
                 ["train", "--data", prepared, "--task", task, "--config",
                  cfg, "--out", model]):
        assert main([str(a) for a in argv]) == 0
    doc = json.loads(model.read_text())
    read = checks.params_from_doc(doc)
    params = load_model(model).params
    for name in ("Q", "Q1", "p", "p1", "g", "f"):
        np.testing.assert_array_equal(read[name], getattr(params, name))
    echo = doc["training_config_echo"]
    assert len(echo["loss_history"]) == 2
    assert echo["config"]["binarize_threshold"] == 4.0


@pytest.mark.parametrize("task", ["rating", "ranking"])
def test_benchmark_reads_the_library(task, ml100k_dir):
    # perfbench/workloads.py calls the library by these names, positionally;
    # a rename or a new required argument would break only the benchmark
    cfg = TrainConfig.from_dict({"epochs": 1, "seed": 1}, task)
    assert cfg.epochs == 1
    for name in ("binarize_threshold", "binarize_comparison",
                 "mask_ranking_loss", "regularization"):
        assert hasattr(cfg, name)
    prepared = load_raw_directory(ml100k_dir, "ml-100k")
    ds = prepared.ratings
    train, test = split(ds, 0.8, 1)
    if task == "rating":
        model = train_rating(train, prepared.item_side, cfg)
        pred = predict_ratings(model, train, prepared.item_side)
        assert pred.shape == (ds.num_items, ds.num_users)
        assert np.isfinite(rmse(pred, test))
    else:
        btrain = binarize(train, cfg.binarize_threshold,
                          cfg.binarize_comparison)
        model = train_ranking(btrain, prepared.user_side, cfg)
        top = recommend_top_n(model, btrain, prepared.user_side, 0, 10)
        assert len(top) == 10 and all(0 <= i < ds.num_items for i in top)
    assert model.orientation == ("item" if task == "rating" else "user")
    assert len(model.loss_history) == model.config.epochs == 1
    params = model.params
    x = np.random.default_rng(1).random((3, params.input_dim))
    targets = x[:, :params.output_dim]
    _, grads = loss_and_gradients(params, x, targets, targets > 0.5,
                                  model.config.regularization)
    for name in ("Q", "Q1", "p", "p1"):
        assert getattr(grads, "d" + name).shape == getattr(params, name).shape


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
