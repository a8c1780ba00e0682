"""The benchmark's checks accept the program's outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each test feeds a check a real output of the program, which must pass, and
then the same output with one deliberate fault, which must be rejected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import generate  # noqa: E402
from semiae import dataset, evaluation, model, trainer  # noqa: E402


def _rejects(fn, *args) -> None:
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def _triples(ds) -> tuple:
    return ds.users.copy(), ds.items.copy(), ds.ratings.copy()


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    raw, truth = generate.cached_inputs(root, "ml-100k", 3)
    prepared = dataset.load_raw_directory(raw, "ml-100k")
    train, test = dataset.split(prepared.ratings, 0.3, 3)
    btrain, btest = dataset.binarize(train), dataset.binarize(test)
    cfg = trainer.TrainConfig.from_dict({"epochs": 2, "seed": 3}, "ranking")
    ranker = trainer.train_ranking(btrain, prepared.user_side, cfg)
    path = root / "ranking-model.json"
    trainer.save_model(path, ranker)
    return {"root": root, "truth": truth, "prepared": prepared, "train": train,
            "test": test, "btrain": btrain, "btest": btest, "ranker": ranker,
            "path": path}


def _view(prepared) -> dict:
    ds = prepared.ratings
    user_ids = np.asarray(ds.user_ids)
    item_ids = np.asarray(ds.item_ids)
    return {"user_ids": user_ids, "item_ids": item_ids,
            "raw_user": user_ids[ds.users], "raw_item": item_ids[ds.items],
            "rating": ds.ratings.copy(), "user_rows": prepared.user_side.rows.copy(),
            "item_rows": prepared.item_side.rows.copy(),
            "num_missing_year": prepared.item_side.num_missing_year}


def test_parser_check(data):
    view = _view(data["prepared"])
    checks.check_parsed(view, data["truth"])
    for key, corrupt in (
            ("rating", lambda a: a.__setitem__(0, a[0] % 5 + 1)),
            ("user_rows", lambda a: a.__setitem__((5, slice(0, 2)), a[5, 1::-1])),
            ("item_rows", lambda a: a.__setitem__((7, -1), a[7, -1] + 0.01))):
        bad = {**view, key: view[key].copy()}
        corrupt(bad[key])
        _rejects(checks.check_parsed, bad, data["truth"])
    _rejects(checks.check_parsed, {**view, "user_ids": view["user_ids"][1:]}, data["truth"])


def test_split_and_binarize_checks(data):
    full = _triples(data["prepared"].ratings)
    train, test = _triples(data["train"]), _triples(data["test"])
    num_items = data["prepared"].ratings.num_items
    checks.check_partition(full, train, test, num_items, 0.3)
    moved = tuple(np.concatenate([a, b[:1]]) for a, b in zip(train, test))
    _rejects(checks.check_partition, full, moved, tuple(a[1:] for a in test), num_items, 0.3)
    doubled = tuple(np.concatenate([a, a[:1]]) for a in test)
    _rejects(checks.check_partition, full, train, doubled, num_items, 0.3)
    relabelled = (test[0], test[1], test[2] + (test[2] < 5))
    _rejects(checks.check_partition, full, train, relabelled, num_items, 0.3)

    likes = _triples(data["btrain"])
    checks.check_binarized(train, likes)
    _rejects(checks.check_binarized, train, tuple(a[1:] for a in likes))


def test_gradient_check():
    rng = np.random.default_rng(0)
    params = model.glorot_init(12, 4, 8, rng=rng)
    x = rng.normal(size=(5, 12))
    targets = x[:, :8]
    mask = rng.random((5, 8)) < 0.5
    loss, g = model.loss_and_gradients(params, x, targets, mask, 0.1)
    own = {"Q": params.Q, "Q1": params.Q1, "p": params.p, "p1": params.p1,
           "g": params.g, "f": params.f}
    grads = {"Q": g.dQ, "Q1": g.dQ1, "p": g.dp, "p1": g.dp1}
    checks.check_gradient(own, grads, loss, x, targets, mask, 0.1, np.random.default_rng(1))
    bad = {**grads, "Q": grads["Q"].copy()}
    bad["Q"][3, 2] += 0.1
    _rejects(checks.check_gradient, own, bad, loss, x, targets, mask, 0.1,
             np.random.default_rng(1))
    _rejects(checks.check_gradient, own, grads, loss * 1.001, x, targets, mask, 0.1,
             np.random.default_rng(1))


def test_model_file_and_round_trip_checks(data):
    params = data["ranker"].params
    arrays = {"Q": params.Q, "Q1": params.Q1, "p": params.p, "p1": params.p1}
    doc = json.loads(data["path"].read_text())
    checks.check_same_arrays(arrays, checks.params_from_doc(doc), "model file")
    doc["Q"][0][0] = float(np.nextafter(doc["Q"][0][0], np.inf))
    _rejects(checks.check_same_arrays, arrays, checks.params_from_doc(doc), "model file")
    loaded = trainer.load_model(data["path"]).params
    checks.check_same_arrays(arrays, {"Q": loaded.Q, "Q1": loaded.Q1, "p": loaded.p,
                                      "p1": loaded.p1}, "load_model")


def test_prediction_and_rmse_checks(data):
    prepared, train, test = data["prepared"], data["train"], data["test"]
    cfg = trainer.TrainConfig.from_dict({"epochs": 1, "seed": 3, "hidden_dim": 20}, "rating")
    rater = trainer.train_rating(train, prepared.item_side, cfg)
    pred = trainer.predict_ratings(rater, train, prepared.item_side)
    ds = prepared.ratings
    checks.check_predictions(pred, (ds.num_items, ds.num_users))
    for bad_value in (5.5, np.nan):
        bad = pred.copy()
        bad[1, 2] = bad_value
        _rejects(checks.check_predictions, bad, (ds.num_items, ds.num_users))
    items = np.arange(0, ds.num_items, 7)
    own_params = {"Q": rater.params.Q, "Q1": rater.params.Q1, "p": rater.params.p,
                  "p1": rater.params.p1, "g": rater.params.g, "f": rater.params.f}
    own = checks.own_item_predictions(own_params, _triples(train), ds.num_users,
                                      prepared.item_side.rows, items)
    checks.check_prediction_rows(pred, own, items)
    bad = pred.copy()
    bad[items[3], 10] += 1e-6
    _rejects(checks.check_prediction_rows, bad, own, items)
    value = evaluation.rmse(pred, test)
    want = checks.own_rmse(pred, _triples(test))
    checks.check_close(value, want, "rmse")
    _rejects(checks.check_close, value * (1 + 1e-7), want, "rmse")


def _lists(data, recommend) -> dict:
    users = sorted(set(data["btest"].users.tolist()))
    return {u: recommend(u) for u in users}


def test_top_n_checks(data):
    btrain, prepared, ranker = data["btrain"], data["prepared"], data["ranker"]
    lists = _lists(data, lambda u: trainer.recommend_top_n(
        ranker, btrain, prepared.user_side, u, 10))
    scores = checks.own_user_scores(checks.params_from_doc(json.loads(data["path"].read_text())),
                                    _triples(btrain), prepared.user_side.rows)
    checks.check_top_n(lists, scores, _triples(btrain), 10)
    user = next(iter(lists))
    consumed = set(btrain.items[btrain.users == user].tolist())
    ranked = [int(i) for i in np.lexsort((np.arange(scores.shape[1]), -scores[user]))
              if int(i) not in consumed]
    corruptions = (
        ranked[:9] + [ranked[10]],              # one item swapped for a lower one
        ranked[1::-1] + ranked[2:10],           # two items out of order
        ranked[:9] + [ranked[0]],               # a repeated item
    )
    if consumed:
        corruptions += (ranked[:9] + [min(consumed)],)   # a consumed item
    for bad in corruptions:
        _rejects(checks.check_top_n, {**lists, user: bad}, scores, _triples(btrain), 10)


def test_most_popular_and_recall_checks(data):
    btrain, btest = data["btrain"], data["btest"]
    lists = _lists(data, lambda u: evaluation.most_popular(btrain, u, 10))
    num_items = data["prepared"].ratings.num_items
    checks.check_most_popular(lists, _triples(btrain), num_items, 10)
    user = next(iter(lists))
    swapped = list(lists[user])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    _rejects(checks.check_most_popular, {**lists, user: swapped}, _triples(btrain),
             num_items, 10)

    value = evaluation.recall_at_n(lambda u: lists[u], btest, 10)
    checks.check_close(value, checks.own_recall(lists, _triples(btest), 10), "Recall@10")
    relevant = sorted(set(btest.items[btest.users == user].tolist()))
    all_hits = (relevant + [i for i in lists[user] if i not in relevant])[:10]
    _rejects(checks.check_close, value,
             checks.own_recall({**lists, user: all_hits}, _triples(btest), 10), "Recall@10")
    _rejects(checks.own_recall, {u: v for u, v in lists.items() if u != user},
             _triples(btest), 10)


def test_manifest_check(tmp_path):
    out = tmp_path / "artifact.json"
    out.write_text('{"a": 1}')
    manifest = tmp_path / "artifact.json.manifest.json"
    manifest.write_text(json.dumps({"outputs": {str(out): checks.sha256(out)}}))
    checks.check_manifest(manifest)
    out.write_text('{"a": 2}')
    _rejects(checks.check_manifest, manifest)


def test_benchmark_json_names_what_run_reports():
    import run
    import workloads

    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])
    # rating-ml1m runs by hand only (README: why it is not in BENCHMARK.json)
    assert {w["name"] for w in doc["workloads"]} == {"ranking-ml100k", "cli-ml100k"}
    assert {w["name"] for w in doc["workloads"]} < set(workloads.WORKLOADS)
