"""The three benchmark workloads.

A round sets up ``setup_repeats`` times; the last set-up starts the timed
pass, which ends when the program's last step returns.  The pass's outputs
are then checked apart from the clock.  The library workloads call the
program through module attributes (``self.ds.split``...) so that an
installed :class:`spans.Tracer` sees every call; the CLI workload runs each
command as its own process.

Every check is one operation.  A failed check counts its operation as failed
and the run goes on; a pass that raises counts every operation of the round
as failed.  So each round attempts the same operations, ``OPS``.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rejected = 0          # failures that are wrong outputs
        self.reasons: list[str] = []

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.rejected += 1
            self.reasons.append(f"{name}: {exc}")
        except Exception as exc:  # a malformed output must not stop the run
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.rejected += 1
            self.reasons.append(f"{name}: {type(exc).__name__}: {exc}")

    def fail_all(self, names, reason: str) -> None:
        self.attempted += len(names)
        self.failed += len(names)
        self.reasons.extend(f"{name}: {reason}" for name in names)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _triples(ds) -> tuple:
    return ds.users, ds.items, ds.ratings


def _param_arrays(params) -> dict:
    return {"Q": params.Q, "Q1": params.Q1, "p": params.p, "p1": params.p1}


def _own_params(params) -> dict:
    return {**_param_arrays(params), "g": params.g, "f": params.f}


def _run_steps(steps: list) -> tuple[dict, dict]:
    """Run ``(name, fn)`` steps in order; the times and last result per name.

    A repeated step lets its earlier result go before it runs again, so the
    repeat holds no more memory than the first run did.
    """
    times: dict = {}
    results: dict = {}
    for name, fn in steps:
        results.pop(name, None)
        t0 = time.perf_counter()
        results[name] = fn()
        times.setdefault(name, []).append(time.perf_counter() - t0)
    return times, results


class Workload:
    """Round structure shared by the three workloads."""

    setup_repeats = 3
    min_rounds = 1
    OPS: tuple[str, ...] = ()

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def run_round(self, traced: bool, ledger: Ledger) -> dict | None:
        """One round; traced rounds set up once and record spans."""
        setup_times = []
        for _ in range(0 if traced else self.setup_repeats - 1):
            t0 = time.perf_counter()
            self.setup(False)
            setup_times.append(time.perf_counter() - t0)
        tracer = self.start_trace() if traced else None
        t0 = time.perf_counter()
        try:
            state = self.setup(traced)
            setup_times.append(time.perf_counter() - t0)
            result = self.run_pass(state, traced)
            total = time.perf_counter() - t0
            result = self.read_outputs(result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            ledger.fail_all(self.OPS, f"the pass raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.restore()
        figures = {**result["figures"], "total_s": total, "peak_rss_mb": self.peak_rss_mib()}
        self.check(state, result, ledger)
        out = {"figures": figures, "setup_samples": setup_times, "layers": result["layers"]}
        if traced:
            out["trace"] = self.trace_stats(tracer)
        return out

    # hooks
    def read_outputs(self, result):
        """The pass's figures, per-layer values and outputs for the checks."""
        return result

    def start_trace(self):
        return spans.Tracer().install()

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace_stats(self, tracer) -> tuple[dict, float, float]:
        """Layer statistics, top-level span time and process start-up time."""
        return spans.layer_stats(tracer.spans), spans.top_level_time(tracer.spans), 0.0


class _Library(Workload):
    """A workload that calls the library in this process."""

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        from semiae import dataset, evaluation, model, trainer
        self.ds, self.ev, self.mdl, self.tm = dataset, evaluation, model, trainer

    def _library_view(self, prepared) -> dict:
        ds = prepared.ratings
        user_ids = np.asarray(ds.user_ids, np.int64)
        item_ids = np.asarray(ds.item_ids, np.int64)
        return {
            "user_ids": user_ids, "item_ids": item_ids,
            "raw_user": user_ids[ds.users], "raw_item": item_ids[ds.items],
            "rating": ds.ratings, "user_rows": prepared.user_side.rows,
            "item_rows": prepared.item_side.rows,
            "num_missing_year": prepared.item_side.num_missing_year,
        }

    def _check_model(self, ledger: Ledger, model, loaded, path: Path, train,
                     side_rows: np.ndarray, masked: bool) -> None:
        """The train, save and load operations: gradient at the trained
        parameters on a small batch densified here, model file contents and
        a bit-identical round trip."""
        def trained() -> None:
            rng = np.random.default_rng([self.ctx.seed, 7])
            by_item = model.orientation == "item"
            rows_of = train.items if by_item else train.users
            cols_of = train.users if by_item else train.items
            width = train.num_users if by_item else train.num_items
            picks = np.sort(rng.choice(np.unique(rows_of), size=8, replace=False))
            targets = checks.dense_rows(rows_of, cols_of, train.ratings, picks, width)
            mask = (checks.dense_rows(rows_of, cols_of, np.ones(len(rows_of)), picks, width) > 0
                    if masked else np.ones_like(targets, bool))
            x = np.hstack([targets, side_rows[picks]])
            reg = model.config.regularization
            history = np.asarray(model.loss_history)
            checks.require(len(history) == model.config.epochs
                           and bool(np.all(np.isfinite(history))),
                           f"loss history {history!r} is not one finite value per epoch")
            loss, g = self.mdl.loss_and_gradients(model.params, x, targets, mask, reg)
            checks.check_gradient(_own_params(model.params),
                                  {"Q": g.dQ, "Q1": g.dQ1, "p": g.dp, "p1": g.dp1},
                                  loss, x, targets, mask, reg, rng)

        def saved() -> None:
            checks.check_same_arrays(_param_arrays(model.params),
                                     checks.params_from_doc(_read_json(path)), "model file")

        def round_trip() -> None:
            checks.check_same_arrays(_param_arrays(model.params),
                                     _param_arrays(loaded.params), "load_model")
            checks.require(loaded.loss_history == model.loss_history
                           and loaded.config == model.config,
                           "load_model changed the loss history or config")

        ledger.check("train", trained)
        ledger.check("save", saved)
        ledger.check("load", round_trip)


class RatingML1M(_Library):
    """Table 1 protocol at ml-1m shape: masked rating prediction on item rows."""

    name = "rating-ml1m"
    fmt = "ml-1m"
    fraction = 0.8
    epochs = 1
    setup_repeats = 2
    OPS = ("parse", "split", "train", "save", "load", "predict", "rmse")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.cfg = self.tm.TrainConfig.from_dict({"epochs": self.epochs, "seed": ctx.seed},
                                                 "rating")

    def setup(self, traced: bool):
        prepared = self.ds.load_raw_directory(self.ctx.raw, self.fmt)
        train, test = self.ds.split(prepared.ratings, self.fraction, self.ctx.seed)
        return prepared, train, test

    def run_pass(self, state, traced: bool) -> dict:
        prepared, train, test = state
        path = self.ctx.work / "rating-model.json"
        t0 = time.perf_counter()
        model = self.tm.train_rating(train, prepared.item_side, self.cfg)
        t1 = time.perf_counter()

        def evaluate():
            pred = self.tm.predict_ratings(model, train, prepared.item_side)
            return pred, self.ev.rmse(pred, test)

        # evaluation takes about a second: it runs five times, before, between
        # and after the model file's write and read, so that its samples
        # spread over the pass
        times, out = _run_steps([("eval", evaluate), ("eval", evaluate),
                                 ("save", lambda: self.tm.save_model(path, model)),
                                 ("eval", evaluate),
                                 ("load", lambda: self.tm.load_model(path)),
                                 ("eval", evaluate), ("eval", evaluate)])
        pred, value = out["eval"]
        return {
            "figures": {"train_rows_per_s": train.num_items * self.epochs / (t1 - t0),
                        "eval_s": {"predict + rmse": times["eval"]},
                        "model_bytes": path.stat().st_size,
                        "train_loss": model.loss_history[-1]},
            "layers": {"evaluation.rmse": value},
            "outputs": (model, out["load"], path, pred, value),
        }

    def check(self, state, result, ledger: Ledger) -> None:
        prepared, train, test = state
        model, loaded, path, pred, value = result["outputs"]
        ds = prepared.ratings
        ledger.check("parse", checks.check_parsed, self._library_view(prepared),
                     self.ctx.truth)
        ledger.check("split", checks.check_partition, _triples(ds), _triples(train),
                     _triples(test), ds.num_items, self.fraction)
        self._check_model(ledger, model, loaded, path, train, prepared.item_side.rows, True)
        def predictions() -> None:
            items = np.sort(np.random.default_rng([self.ctx.seed, 8]).choice(
                ds.num_items, size=256, replace=False))
            checks.check_predictions(pred, (ds.num_items, ds.num_users))
            own = checks.own_item_predictions(_own_params(model.params), _triples(train),
                                              ds.num_users, prepared.item_side.rows, items)
            checks.check_prediction_rows(pred, own, items)

        ledger.check("predict", predictions)
        ledger.check("rmse", lambda: checks.check_close(
            value, checks.own_rmse(pred, _triples(test)), "rmse"))


class RankingML100K(_Library):
    """Table 2 protocol at ml-100k shape: full-loss top-n on binarized user rows."""

    name = "ranking-ml100k"
    fmt = "ml-100k"
    fraction = 0.3
    epochs = 50
    ns = (5, 10)
    OPS = ("parse", "split", "binarize", "train", "save", "load", "semi-ae lists",
           "semi-ae recall", "most-popular lists", "most-popular recall")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.cfg = self.tm.TrainConfig.from_dict({"epochs": self.epochs, "seed": ctx.seed},
                                                 "ranking")

    def setup(self, traced: bool):
        prepared = self.ds.load_raw_directory(self.ctx.raw, self.fmt)
        train, test = self.ds.split(prepared.ratings, self.fraction, self.ctx.seed)
        threshold, comparison = self.cfg.binarize_threshold, self.cfg.binarize_comparison
        return (prepared, train, test, self.ds.binarize(train, threshold, comparison),
                self.ds.binarize(test, threshold, comparison))

    def run_pass(self, state, traced: bool) -> dict:
        prepared, _, _, btrain, btest = state
        path = self.ctx.work / "ranking-model.json"
        t0 = time.perf_counter()
        model = self.tm.train_ranking(btrain, prepared.user_side, self.cfg)
        t1 = time.perf_counter()
        top = max(self.ns)

        # the two recommenders `semiae reproduce --table 2` scores, each list
        # recorded for the checks
        def ours(user: int) -> list[int]:
            return self.tm.recommend_top_n(model, btrain, prepared.user_side, user, top)

        def baseline(user: int) -> list[int]:
            return self.ev.most_popular(btrain, user, top)

        def recording(recommend, into: dict):
            def rec(user: int) -> list[int]:
                into[user] = recommend(user)
                return into[user]
            return rec

        lists: dict = {}
        recall: dict = {}
        parts: dict = {}
        for method, recommend in (("semi-ae", ours), ("most-popular", baseline)):
            for n in self.ns:
                lists[method, n] = {}
                t2 = time.perf_counter()
                recall[method, n] = self.ev.recall_at_n(
                    recording(recommend, lists[method, n]), btest, n)
                parts[f"{method} Recall@{n}"] = [time.perf_counter() - t2]
        self.tm.save_model(path, model)
        loaded = self.tm.load_model(path)
        return {
            "figures": {"train_rows_per_s": btrain.num_users * self.epochs / (t1 - t0),
                        "eval_s": parts, "model_bytes": path.stat().st_size,
                        "train_loss": model.loss_history[-1]},
            "layers": {"evaluation.recall_at_10": recall["semi-ae", 10]},
            "outputs": (model, loaded, path, lists, recall),
        }

    def check(self, state, result, ledger: Ledger) -> None:
        prepared, train, test, btrain, btest = state
        model, loaded, path, lists, recall = result["outputs"]
        ds = prepared.ratings
        ledger.check("parse", checks.check_parsed, self._library_view(prepared),
                     self.ctx.truth)
        ledger.check("split", checks.check_partition, _triples(ds), _triples(train),
                     _triples(test), ds.num_items, self.fraction)

        def binarized() -> None:
            threshold = self.cfg.binarize_threshold
            checks.check_binarized(_triples(train), _triples(btrain), threshold)
            checks.check_binarized(_triples(test), _triples(btest), threshold)

        ledger.check("binarize", binarized)
        self._check_model(ledger, model, loaded, path, btrain, prepared.user_side.rows,
                          self.cfg.mask_ranking_loss)

        def semi_ae_lists() -> None:
            scores = checks.own_user_scores(checks.params_from_doc(_read_json(path)),
                                            _triples(btrain), prepared.user_side.rows)
            for n in self.ns:
                checks.check_top_n(lists["semi-ae", n], scores, _triples(btrain), n)

        def most_popular_lists() -> None:
            for n in self.ns:
                checks.check_most_popular(lists["most-popular", n], _triples(btrain),
                                          ds.num_items, n)

        def recalls(method: str) -> None:
            for n in self.ns:
                checks.check_close(recall[method, n],
                                   checks.own_recall(lists[method, n], _triples(btest), n),
                                   f"{method} Recall@{n}")
            checks.require(recall[method, 5] <= recall[method, 10],
                           f"{method} Recall@5 exceeds Recall@10")

        ledger.check("semi-ae lists", semi_ae_lists)
        ledger.check("semi-ae recall", recalls, "semi-ae")
        ledger.check("most-popular lists", most_popular_lists)
        ledger.check("most-popular recall", recalls, "most-popular")


class CliML100K(Workload):
    """The command line at ml-100k shape, one process per command."""

    name = "cli-ml100k"
    fmt = "ml-100k"
    rating_fraction = 0.8
    ranking_fraction = 0.3
    rating_epochs = 1
    ranking_epochs = 20
    # a command's time swings by up to 2x with the host's load, and one pass
    # gives one sample of most figures: the run takes the faster of two passes
    min_rounds = 2
    # each model is evaluated twice, once after its training and once at the
    # end, so that the evaluation samples spread over the pass
    COMMANDS = ("prepare", "train rating", "evaluate rating", "train ranking",
                "evaluate ranking", "recommend", "reproduce", "evaluate rating again",
                "evaluate ranking again")
    OPS = COMMANDS + ("manifests", "parse", "rating rmse", "ranking recall",
                      "recommend list", "reproduce table", "evaluate repeats")

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        w = ctx.work
        self.p = {name: w / name for name in (
            "prepared.json", "rating.json", "ranking.json", "rating-model.json",
            "ranking-model.json", "rating-eval.json", "ranking-eval.json", "repro",
            "spans")}
        self.p["spans"].mkdir(parents=True, exist_ok=True)
        for task, epochs in (("rating", self.rating_epochs), ("ranking", self.ranking_epochs)):
            self.p[f"{task}.json"].write_text(
                json.dumps({"epochs": epochs, "seed": ctx.seed}), encoding="utf-8")
        user_ids = ctx.truth["user_ids"]
        self.user_id = int(user_ids[ctx.seed % len(user_ids)])
        self.env = {**os.environ, "PYTHONPATH": str(ctx.root / "src")}
        self.env.pop("SEMIAE_LOG", None)
        self.children: list[dict] = []

    def _run(self, name: str, argv: list[str], traced: bool) -> dict:
        """Run one command as its own process: `python -m semiae.cli`, or
        under the tracer through child.py."""
        span_file = self.p["spans"] / f"{len(self.children)}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "child.py"), str(span_file)]
        else:
            cmd = [sys.executable, "-m", "semiae.cli"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + argv, cwd=self.ctx.work, env=self.env,
                              capture_output=True, text=True, timeout=170)
        child = {"wall": time.perf_counter() - t0, "code": proc.returncode,
                 "stdout": proc.stdout,
                 "spans": _read_json(span_file) if traced and span_file.exists() else []}
        if proc.returncode != 0:
            sys.stderr.write(f"{name} exited with {proc.returncode}:\n{proc.stderr}")
        self.children.append(child)
        return child

    def setup(self, traced: bool):
        return self._run("prepare", ["prepare", "--raw", str(self.ctx.raw), "--format",
                                     self.fmt, "--out", str(self.p["prepared.json"])], traced)

    def run_pass(self, state, traced: bool) -> dict:
        p, seed = self.p, str(self.ctx.seed)
        data = ["--data", str(p["prepared.json"])]
        rf, kf = str(self.rating_fraction), str(self.ranking_fraction)
        steps = {
            "train rating": ["train", *data, "--task", "rating", "--config",
                             str(p["rating.json"]), "--out", str(p["rating-model.json"]),
                             "--train-fraction", rf],
            "evaluate rating": ["evaluate", "--model", str(p["rating-model.json"]), *data,
                                "--train-fraction", rf, "--seed", seed,
                                "--out", str(p["rating-eval.json"])],
            "train ranking": ["train", *data, "--task", "ranking", "--config",
                              str(p["ranking.json"]), "--out", str(p["ranking-model.json"]),
                              "--train-fraction", kf],
            "evaluate ranking": ["evaluate", "--model", str(p["ranking-model.json"]), *data,
                                 "--train-fraction", kf, "--seed", seed, "--recall", "5,10",
                                 "--out", str(p["ranking-eval.json"])],
            "recommend": ["recommend", "--model", str(p["ranking-model.json"]), *data,
                          "--user", str(self.user_id), "--n", "10",
                          "--train-fraction", kf, "--seed", seed],
            "reproduce": ["reproduce", "--table", "2", "--raw", str(self.ctx.raw),
                          "--format", self.fmt, "--seeds", seed, "--config",
                          str(p["ranking.json"]), "--out-dir", str(p["repro"])],
        }
        steps["evaluate rating again"] = steps["evaluate rating"]
        steps["evaluate ranking again"] = steps["evaluate ranking"]
        ran = {"prepare": state}
        for name, argv in steps.items():
            ran[name] = self._run(name, argv, traced)
        failed = [name for name, child in ran.items() if child["code"] != 0]
        if failed:
            raise RuntimeError(f"{', '.join(failed)} exited with an error")
        return ran

    def read_outputs(self, ran) -> dict:
        """Figures and outputs read from the commands' files, after the clock stops."""
        p = self.p
        rating_eval = json.loads(ran["evaluate rating"]["stdout"])
        ranking_eval = json.loads(ran["evaluate ranking"]["stdout"])
        docs = {task: _read_json(p[f"{task}-model.json"]) for task in ("rating", "ranking")}
        rows = (len(self.ctx.truth["item_ids"]) * self.rating_epochs
                + len(self.ctx.truth["user_ids"]) * self.ranking_epochs)
        return {
            "figures": {
                "train_rows_per_s": rows / (ran["train rating"]["wall"]
                                            + ran["train ranking"]["wall"]),
                "eval_s": {task: [child["wall"] for name, child in ran.items()
                                  if name.startswith(f"evaluate {task}")]
                           for task in ("rating", "ranking")},
                "model_bytes": sum(p[f"{t}-model.json"].stat().st_size for t in docs),
                "train_loss": docs["rating"]["training_config_echo"]["loss_history"][-1],
            },
            "layers": {"evaluation.rmse": rating_eval["rmse"],
                       "evaluation.recall_at_10": ranking_eval["recall"]["10"],
                       "dataset.prepared_bytes": p["prepared.json"].stat().st_size},
            "outputs": (ran, docs, rating_eval, ranking_eval),
        }

    def run_round(self, traced: bool, ledger: Ledger) -> dict | None:
        self.children = []
        return super().run_round(traced, ledger)

    def start_trace(self):
        return None

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def trace_stats(self, tracer) -> tuple[dict, float, float]:
        """Layer statistics summed over the pass's processes, their top-level
        span time, and their start-up time (process wall minus top level)."""
        stats: dict = {}
        top = startup = 0.0
        for child in self.children[-len(self.COMMANDS):]:
            for name, entry in spans.layer_stats(child["spans"]).items():
                into = stats.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
                for key in into:
                    into[key] += entry[key]
            child_top = spans.top_level_time(child["spans"])
            top += child_top
            startup += child["wall"] - child_top
        return stats, top, startup

    def check(self, state, result, ledger: Ledger) -> None:
        ran, docs, rating_eval, ranking_eval = result["outputs"]
        p, seed = self.p, self.ctx.seed
        for name in self.COMMANDS:
            ledger.check(name, lambda c: checks.require(
                c["code"] == 0, f"exit code {c['code']}"), ran[name])

        def manifests() -> None:
            for path in (p["prepared.json"], p["rating-model.json"], p["ranking-model.json"],
                         p["rating-eval.json"], p["ranking-eval.json"],
                         p["repro"] / "table2.csv"):
                checks.check_manifest(path.with_name(path.name + ".manifest.json"))

        ledger.check("manifests", manifests)

        # shared by the checks below; a malformed file fails each check that reads it
        @functools.cache
        def data() -> dict:
            prepared = _read_json(p["prepared.json"])
            triples = np.asarray(prepared["triples"], np.float64).reshape(-1, 4)
            return {"view": checks.prepared_view(prepared), "users": triples[:, 0].astype(int),
                    "items": triples[:, 1].astype(int), "ratings": triples[:, 2],
                    "num_users": prepared["num_users"], "num_items": prepared["num_items"]}

        def halves(fraction: float, binarized: bool) -> list[tuple]:
            d = data()
            threshold = docs["ranking"]["training_config_echo"]["config"]["binarize_threshold"]
            out = []
            for idx in checks.own_split(len(d["ratings"]), fraction, seed):
                if binarized:
                    idx = idx[d["ratings"][idx] > threshold]
                out.append((d["users"][idx], d["items"][idx],
                            np.ones(len(idx)) if binarized else d["ratings"][idx]))
            return out

        @functools.cache
        def ranking_scores() -> np.ndarray:
            return checks.own_user_scores(checks.params_from_doc(docs["ranking"]),
                                          halves(self.ranking_fraction, True)[0],
                                          data()["view"]["user_rows"])

        ledger.check("parse", lambda: checks.check_parsed(data()["view"], self.ctx.truth))

        def own_lists(train, test, scores=None) -> dict:
            num_items = data()["num_items"]
            consumed = checks.consumed_sets(train[0], train[1])
            out = {}
            for u in checks.consumed_sets(test[0], test[1]):
                mine = consumed.get(u, set())
                if scores is None:
                    out[u] = checks.own_most_popular(train[1], num_items, mine, 10)
                else:
                    order = np.lexsort((np.arange(num_items), -scores[u]))
                    out[u] = [int(i) for i in order if int(i) not in mine][:10]
            return out

        def rating_rmse() -> None:
            d = data()
            train, test = halves(self.rating_fraction, False)
            pred = checks.own_item_predictions(checks.params_from_doc(docs["rating"]), train,
                                               d["num_users"], d["view"]["item_rows"],
                                               np.arange(d["num_items"]))
            checks.check_close(rating_eval["rmse"], checks.own_rmse(pred, test),
                               "evaluate rmse")

        def ranking_recall() -> None:
            train, test = halves(self.ranking_fraction, True)
            lists = own_lists(train, test, ranking_scores())
            for n in (5, 10):
                checks.check_close(ranking_eval["recall"][str(n)],
                                   checks.own_recall(lists, test, n),
                                   f"evaluate Recall@{n}")

        def recommend_list() -> None:
            view, num_items = data()["view"], data()["num_items"]
            raw_ids = [int(line.split("\t")[1])
                       for line in ran["recommend"]["stdout"].splitlines() if line.strip()]
            got = np.searchsorted(view["item_ids"], raw_ids)
            checks.require(np.array_equal(view["item_ids"][np.minimum(got, num_items - 1)],
                                          raw_ids), "recommend printed an unknown item id")
            user = int(np.searchsorted(view["user_ids"], self.user_id))
            checks.check_top_n({user: got.tolist()}, ranking_scores(),
                               halves(self.ranking_fraction, True)[0], 10)

        def reproduce_table() -> None:
            lines = (p["repro"] / "table2.csv").read_text(encoding="utf-8").splitlines()[1:]
            table = {(float(r[2]), r[4], r[5]): float(r[6])
                     for r in (line.split(",") for line in lines) if r[3] == str(seed)}
            for n in (5, 10):   # same config and seed as `train` + `evaluate` above
                checks.check_close(table[self.ranking_fraction, "semi-autoencoder",
                                         f"recall@{n}"],
                                   ranking_eval["recall"][str(n)],
                                   f"reproduce semi-autoencoder Recall@{n}")
            for fraction in (0.3, 0.5):
                train, test = halves(fraction, True)
                lists = own_lists(train, test)
                for n in (5, 10):
                    checks.check_close(table[fraction, "most-popular", f"recall@{n}"],
                                       checks.own_recall(lists, test, n),
                                       f"reproduce most-popular Recall@{n} at {fraction}")
                for method in ("semi-autoencoder", "most-popular"):
                    checks.require(table[fraction, method, "recall@5"]
                                   <= table[fraction, method, "recall@10"],
                                   f"reproduce {method} Recall@5 exceeds Recall@10")

        def evaluate_repeats() -> None:
            for task in ("rating", "ranking"):
                checks.require(ran[f"evaluate {task} again"]["stdout"]
                               == ran[f"evaluate {task}"]["stdout"],
                               f"evaluating the {task} model again printed another report")

        ledger.check("rating rmse", rating_rmse)
        ledger.check("ranking recall", ranking_recall)
        ledger.check("recommend list", recommend_list)
        ledger.check("reproduce table", reproduce_table)
        ledger.check("evaluate repeats", evaluate_repeats)


WORKLOADS = {w.name: w for w in (RatingML1M, RankingML100K, CliML100K)}
