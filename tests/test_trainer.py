import gc
import json
import logging
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from semiae import trainer as trainer_module
from semiae.dataset import (RatingDataset, SideInfoMatrix, binarize,
                            load_raw_directory, sparse_rows, split)
from semiae.evaluation import _rank_unconsumed
from semiae.model import (BLOCK, SemiAEParams, forward, glorot_init,
                          sparse_index)
from semiae.trainer import (SCORE_ROWS, TrainConfig, TrainedModel, load_model,
                            predict_ratings, recommend_top_n, save_model,
                            score_rows, train_ranking, train_rating)
from util import (make_random_dataset, reference_fit, reference_input,
                  reference_sparse_fit, traced_peak)

RNG = np.random.default_rng


def toy_ranking_data(binarized=True):
    users = np.array([0, 0, 1, 1, 2, 2, 2], np.int32)
    items = np.array([0, 1, 1, 2, 0, 2, 3], np.int32)
    ratings = np.array([5, 2, 5, 5, 3, 5, 5], np.float64)
    ds = RatingDataset(3, 4, users, items, ratings,
                       np.arange(7, dtype=np.int64))
    profiles = SideInfoMatrix(RNG(0).normal(size=(3, 2)), ("a", "b"))
    return binarize(ds, 4.0) if binarized else ds, profiles


def toy_rating_data():
    users = np.array([0, 0, 1, 1], np.int32)
    items = np.array([0, 1, 0, 1], np.int32)
    ratings = np.array([5, 1, 2, 4], np.float64)
    ds = RatingDataset(2, 2, users, items, ratings,
                       np.arange(4, dtype=np.int64))
    features = SideInfoMatrix(RNG(1).normal(size=(2, 1)), ("f",))
    return ds, features


def ranking_cfg(**kw):
    base = dict(task="ranking", hidden_dim=3, learning_rate=0.1,
                regularization=0.0, optimizer="sgd", g="identity",
                f="identity", epochs=1500, batch_size=8, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def rating_cfg(**kw):
    base = dict(task="rating", hidden_dim=2, learning_rate=0.05,
                regularization=0.0, optimizer="adam", g="identity",
                f="identity", epochs=1500, batch_size=8, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def fixed_score_model(scores, side_dim=2, num_items=None):
    """Zero-weight ranking model whose output is always ``scores``."""
    scores = np.asarray(scores, np.float64)
    d = len(scores)
    s = d + side_dim
    params = SemiAEParams(Q=np.zeros((s, 1)), Q1=np.zeros((1, d)),
                          p=np.zeros(1), p1=scores, g="identity", f="identity")
    return TrainedModel(params, (0.0,), TrainConfig.defaults("ranking"))


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            ranking_cfg(epochs=0)

    @pytest.mark.parametrize("kw", [dict(hidden_dim=0), dict(batch_size=0),
                                    dict(regularization=-1.0),
                                    dict(learning_rate=0.0),
                                    dict(epochs=2.5), dict(hidden_dim=4.0),
                                    dict(batch_size=8.0), dict(seed=1.5),
                                    dict(seed=-1), dict(learning_rate="0.1"),
                                    dict(learning_rate=float("nan")),
                                    dict(learning_rate=float("inf")),
                                    dict(regularization=float("inf")),
                                    dict(binarize_threshold=float("nan")),
                                    dict(binarize_threshold=float("-inf")),
                                    dict(binarize_threshold="4"),
                                    dict(hidden_dim="4"), dict(seed=None),
                                    # a bool is no number, although Python
                                    # counts it as an int
                                    *[{name: value} for value in (True, False)
                                      for name in ("hidden_dim", "epochs",
                                                   "batch_size", "seed",
                                                   "learning_rate",
                                                   "regularization",
                                                   "binarize_threshold")],
                                    dict(g=["tanh"]),
                                    dict(binarize_comparison="=="),
                                    # ints past the largest float
                                    dict(learning_rate=10 ** 400),
                                    dict(regularization=10 ** 400),
                                    dict(binarize_threshold=-10 ** 400)])
    def test_bounds_enforced(self, kw):
        with pytest.raises(ValueError, match=f"^{next(iter(kw))} must be "):
            ranking_cfg(**kw)

    def test_the_masked_ranking_loss_is_no_setting(self):
        assert len(fields(TrainConfig)) == 12
        assert "mask_ranking_loss" not in {f.name for f in fields(TrainConfig)}
        # perfbench/workloads.py reads it from a config
        assert TrainConfig.mask_ranking_loss is False
        assert ranking_cfg().mask_ranking_loss is False
        assert "mask_ranking_loss" not in ranking_cfg().to_dict()
        with pytest.raises(TypeError, match="mask_ranking_loss"):
            ranking_cfg(mask_ranking_loss=False)

    def test_a_false_masked_ranking_loss_entry_is_dropped(self):
        # every model file written before it went holds the entry
        for task in ("ranking", "rating"):
            doc = {"epochs": 3, "seed": 2}
            assert (TrainConfig.from_dict({**doc, "mask_ranking_loss": False},
                                          task)
                    == TrainConfig.from_dict(doc, task))
        old = {**ranking_cfg().to_dict(), "mask_ranking_loss": False}
        assert TrainConfig.from_dict(old) == ranking_cfg()

    @pytest.mark.parametrize("value", [True, "no", 1, 0, 0.0, None, "false",
                                       [False], np.bool_(False)])
    def test_any_other_masked_ranking_loss_entry_is_refused(self, value):
        with pytest.raises(ValueError, match=r"^mask_ranking_loss: the masked "
                                             r"ranking loss was removed, and "
                                             r"ranking measures every "
                                             r"output$"):
            TrainConfig.from_dict({"epochs": 3, "mask_ranking_loss": value},
                                  "ranking")

    def test_ints_count_as_floats_and_numpy_ints_as_ints(self):
        cfg = ranking_cfg(learning_rate=1, binarize_threshold=3,
                          epochs=np.int64(2), seed=np.uint8(3))
        assert (cfg.learning_rate, cfg.epochs, cfg.seed) == (1, 2, 3)

    def test_numpy_ints_survive_a_model_file(self, tmp_path):
        cfg = TrainConfig.from_dict({"seed": np.int64(3),
                                     "epochs": np.uint8(2)}, "ranking")
        assert {type(v) for v in cfg.to_dict().values()} <= {str, int, float}
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, cfg)
        save_model(tmp_path / "m.json", model)
        assert load_model(tmp_path / "m.json").config == model.config

    def test_task_defaults(self):
        rating = TrainConfig.defaults("rating")
        assert (rating.hidden_dim, rating.optimizer) == (500, "adam")
        assert (rating.g, rating.f) == ("sigmoid", "identity")
        assert (rating.learning_rate, rating.regularization) == (0.001, 0.1)
        ranking = TrainConfig.defaults("ranking")
        assert (ranking.hidden_dim, ranking.optimizer) == (10, "sgd")
        assert ranking.binarize_threshold == 4.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig.from_dict({"momentum": 0.9}, task="rating")

    def test_from_dict_rejects_bad_activation_with_valid_set(self):
        with pytest.raises(ValueError, match="sigmoid"):
            TrainConfig.from_dict({"g": "softplus"}, task="rating")

    def test_from_dict_task_conflict(self):
        with pytest.raises(ValueError, match="conflict"):
            TrainConfig.from_dict({"task": "ranking"}, task="rating")

    def test_unknown_task_has_no_defaults(self):
        with pytest.raises(ValueError, match=r"^task must be one of "
                           r"\('ranking', 'rating'\)$"):
            TrainConfig.defaults("ratings")

    def test_from_dict_needs_a_task(self):
        with pytest.raises(ValueError, match=r"^config must name a task "
                           r"\(or pass one explicitly\)$"):
            TrainConfig.from_dict({"epochs": 2})

    def test_from_dict_merges_over_defaults(self):
        cfg = TrainConfig.from_dict({"epochs": 7}, task="rating")
        assert cfg.epochs == 7
        assert cfg.hidden_dim == 500


class TestTrainRanking:
    def test_memorizes_toy_data(self):
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, ranking_cfg())
        assert model.loss_history[-1] < 1e-3
        assert len(model.loss_history) == 1500
        assert model.task == "ranking" and model.orientation == "user"

    def test_loss_trend_non_increasing_after_warmup(self):
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, ranking_cfg())
        hist = np.asarray(model.loss_history)
        start = len(hist) // 10
        assert np.all(np.diff(hist[start:]) <= 1e-6)

    def test_same_seed_bit_identical_history_and_params(self):
        train, profiles = toy_ranking_data()
        a = train_ranking(train, profiles, ranking_cfg(epochs=50))
        b = train_ranking(train, profiles, ranking_cfg(epochs=50))
        assert a.loss_history == b.loss_history
        np.testing.assert_array_equal(a.params.Q, b.params.Q)
        np.testing.assert_array_equal(a.params.p1, b.params.p1)

    def test_different_seed_differs(self):
        train, profiles = toy_ranking_data()
        a = train_ranking(train, profiles, ranking_cfg(epochs=20, seed=1))
        b = train_ranking(train, profiles, ranking_cfg(epochs=20, seed=2))
        assert a.loss_history != b.loss_history

    def test_profile_count_mismatch_rejected(self):
        train, _ = toy_ranking_data()
        bad = SideInfoMatrix(np.zeros((5, 2)), ("a", "b"))
        with pytest.raises(ValueError, match="^side information has 5 rows "
                                             "for 3 rating rows$"):
            train_ranking(train, bad, ranking_cfg(epochs=1))

    @pytest.mark.parametrize("trainer, other_cfg, task", [
        (train_ranking, rating_cfg, "ranking"),
        (train_rating, ranking_cfg, "rating")])
    def test_other_tasks_config_rejected(self, trainer, other_cfg, task):
        train, profiles = toy_ranking_data()
        with pytest.raises(ValueError,
                           match=f"^config task must be '{task}'$"):
            trainer(train, profiles, other_cfg(epochs=1))

    def test_each_epoch_logs_its_loss(self, caplog):
        # the first and every 100th epoch at INFO, the others at DEBUG
        train, profiles = toy_ranking_data()
        with caplog.at_level(logging.DEBUG, logger="semiae.trainer"):
            model = train_ranking(train, profiles, ranking_cfg(epochs=201))
        logged = [(r.levelno, r.getMessage()) for r in caplog.records
                  if r.name == "semiae.trainer"]
        assert logged == [
            (logging.INFO if epoch in (1, 100, 200) else logging.DEBUG,
             f"epoch {epoch}/201: loss {loss:.6f}")
            for epoch, loss in enumerate(model.loss_history, 1)]

    def test_training_half_without_triples_rejected(self):
        # no toy rating is above 5, so binarizing keeps no triple
        raw, profiles = toy_ranking_data(binarized=False)
        with pytest.raises(ValueError, match="^cannot train on an empty "
                                             "training set$"):
            train_ranking(binarize(raw, 5.0), profiles, ranking_cfg(epochs=1))

    @pytest.mark.parametrize("kw", [{}, {"f": "sigmoid"}],
                             ids=["sparse", "sigmoid-f"])
    def test_ratings_other_than_likes_are_refused(self, kw):
        # on either step: ranking trains on likes, whatever the step
        raw, profiles = toy_ranking_data(binarized=False)
        with pytest.raises(ValueError, match=r"^ranking trains on likes of "
                                             r"value 1\.0, got a rating of "
                                             r"5\.0: binarize the ratings "
                                             r"first$"):
            train_ranking(raw, profiles, ranking_cfg(epochs=1, **kw))


class TestTrainRating:
    def test_memorizes_fully_observed_toy(self):
        train, features = toy_rating_data()
        model = train_rating(train, features, rating_cfg())
        assert model.loss_history[-1] < 1e-3
        assert model.orientation == "item"
        hist = np.asarray(model.loss_history)
        start = len(hist) // 10
        assert np.all(np.diff(hist[start:]) <= 1e-6)

    def test_item_without_training_ratings_is_harmless(self):
        users = np.array([0, 1], np.int32)
        items = np.array([0, 0], np.int32)  # item 1 never rated
        ds = RatingDataset(2, 2, users, items, np.array([4.0, 2.0]),
                           np.arange(2, dtype=np.int64))
        features = SideInfoMatrix(np.ones((2, 1)), ("f",))
        model = train_rating(ds, features, rating_cfg(epochs=50))
        assert np.all(np.isfinite(model.loss_history))

    def test_benchmark_style_config_stays_finite(self):
        ds = make_random_dataset(RNG(3), 12, 10, 60)
        features = SideInfoMatrix(RNG(4).random((10, 3)),
                                  ("a", "b", "c"))
        cfg = TrainConfig(task="rating", hidden_dim=8, learning_rate=0.001,
                          regularization=0.1, optimizer="adam", g="sigmoid",
                          f="identity", epochs=40, batch_size=4, seed=0)
        model = train_rating(ds, features, cfg)
        assert np.all(np.isfinite(model.loss_history))


def _param_bytes(model):
    p = model.params
    return [a.tobytes() for a in (p.Q, p.Q1, p.p, p.p1)]


def _random_task_data():
    ds = make_random_dataset(RNG(5), 14, 11, 70)
    profiles = SideInfoMatrix(RNG(6).normal(size=(14, 2)), ("a", "b"))
    features = SideInfoMatrix(RNG(7).random((11, 3)), ("a", "b", "c"))
    return ds, profiles, features


class TestSameBits:
    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop", "adam"])
    def test_one_seed_gives_the_same_bits_twice(self, optimizer):
        ds, profiles, features = _random_task_data()
        kw = dict(optimizer=optimizer, learning_rate=0.01,
                  regularization=0.1, g="sigmoid", epochs=4, batch_size=4,
                  seed=3)
        for train, side, cfg, fit in (
                (binarize(ds), profiles, ranking_cfg(**kw), train_ranking),
                (ds, features, rating_cfg(**kw), train_rating)):
            a, b = fit(train, side, cfg), fit(train, side, cfg)
            assert _param_bytes(a) == _param_bytes(b)
            assert a.loss_history == b.loss_history

    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop", "adam"])
    @pytest.mark.parametrize("g,f", [("sigmoid", "identity"),
                                     ("tanh", "sigmoid")])
    def test_training_equals_the_functional_reference_fold(self, optimizer,
                                                          g, f):
        ds, profiles, features = _random_task_data()
        kw = dict(optimizer=optimizer, learning_rate=0.01,
                  regularization=0.1, g=g, f=f, epochs=3, batch_size=4,
                  seed=2)
        liked = binarize(ds)
        cases = (
            (liked, profiles, ranking_cfg(**kw), train_ranking, "user", False),
            (ds, features, rating_cfg(**kw), train_rating, "item", True),
        )
        for train, side, cfg, fit, orientation, masked in cases:
            x, mask = reference_input(train, side, orientation)
            theta, history = reference_fit(x, x[:, :mask.shape[1]],
                                           mask if masked else None, cfg)
            model = fit(train, side, cfg)
            if f == "identity" and not masked:
                # the sparse step sums in another order than the dense
                # fold: here the parameters were up to 1.1e-16 apart and
                # the losses 3.2e-16 relative, so 1e-14 has a margin
                p = model.params
                for ours, ref in zip((p.Q, p.Q1, p.p, p.p1), theta):
                    np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-14)
                np.testing.assert_allclose(model.loss_history, history,
                                           rtol=1e-14, atol=0)
                continue
            assert _param_bytes(model) == [a.tobytes() for a in theta]
            assert list(model.loss_history) == history


    @pytest.mark.parametrize("optimizer", ["sgd", "rmsprop", "adam"])
    def test_multi_block_training_equals_the_reference_fold(self, optimizer):
        # at H=500 the 153x500 Q and 500x150 Q1 span more than two blocks
        # of the step's elementwise passes and end in a partial one
        ds = make_random_dataset(RNG(8), 150, 30, 600)
        features = SideInfoMatrix(RNG(9).random((30, 3)), ("a", "b", "c"))
        cfg = rating_cfg(optimizer=optimizer, learning_rate=0.01,
                         regularization=0.1, g="sigmoid", hidden_dim=500,
                         epochs=2, batch_size=8, seed=4)
        x, mask = reference_input(ds, features, "item")
        for size in (x.shape[1] * 500, 500 * mask.shape[1]):
            assert 2 * BLOCK < size and size % BLOCK
        theta, history = reference_fit(x, x[:, :mask.shape[1]], mask, cfg)
        model = train_rating(ds, features, cfg)
        assert _param_bytes(model) == [a.tobytes() for a in theta]
        assert list(model.loss_history) == history


class TestEpochLayout:
    """The sparse step's batches are slices of one ``sparse_rows`` call
    per epoch, and a run from them equals a run that lays out each batch
    by itself."""

    @pytest.mark.parametrize("batch_size", [3, 4, 14, 64])
    def test_its_slices_equal_each_batch_laid_out_alone(self, batch_size):
        # users 0-3 have no like, and the permutation puts them first, so
        # at batch size 4 one whole batch has none; 14 users leave a ragged
        # last batch at 3 and 4, and 14 and 64 are one batch of every user
        ds = binarize(make_random_dataset(RNG(12), 14, 11, 90), 3.0)
        keep = ds.users >= 4
        ds = RatingDataset(14, 11, ds.users[keep], ds.items[keep],
                           ds.ratings[keep], ds.timestamps[keep])
        side = SideInfoMatrix(RNG(13).normal(size=(14, 2)), ("a", "b"))
        perm = np.concatenate([RNG(14).permutation(4),
                               4 + RNG(15).permutation(10)])
        batches = list(trainer_module._sparse_batches(ds, side, perm,
                                                      batch_size, 3))
        starts = range(0, 14, batch_size)
        assert len(batches) == len(starts)
        for start, (index, side_rows) in zip(starts, batches):
            *likes, side_alone = sparse_rows(ds, side,
                                             perm[start:start + batch_size])
            alone = sparse_index(*likes, 3, 11)
            for ours, ref in zip((*index, side_rows), (*alone, side_alone)):
                assert ours.dtype == ref.dtype
                np.testing.assert_array_equal(ours, ref)
        if batch_size == 4:
            assert len(batches[0][0].cols) == 0

    @pytest.mark.parametrize("batch_size", [4, 64])
    def test_training_equals_a_run_that_lays_out_each_batch(self,
                                                            batch_size):
        ds, profiles, _ = _random_task_data()
        liked = binarize(ds)
        cfg = replace(TrainConfig.defaults("ranking"), epochs=4,
                      batch_size=batch_size, seed=6)
        theta, history = reference_sparse_fit(liked, profiles, cfg)
        model = train_ranking(liked, profiles, cfg)
        assert _param_bytes(model) == [a.tobytes() for a in theta]
        assert list(model.loss_history) == history


class TestStepChoice:
    """A run picks its step once: ranking with an identity f steps from
    the batch's likes, and any other run densifies its batches."""

    @pytest.mark.parametrize("task,f,dense", [
        ("ranking", "identity", False),
        ("ranking", "sigmoid", True),
        ("rating", "identity", True)])
    def test_only_ranking_with_an_identity_f_skips_the_dense_batch(
            self, monkeypatch, task, f, dense):
        densified = []
        build = trainer_module.build_vectors
        monkeypatch.setattr(trainer_module, "build_vectors",
                            lambda *a: densified.append(a) or build(*a))
        if task == "ranking":
            train, side = toy_ranking_data()
            cfg = ranking_cfg(f=f, epochs=2)
            model = train_ranking(train, side, cfg)
        else:
            train, side = toy_rating_data()
            model = train_rating(train, side, rating_cfg(f=f, epochs=2))
        assert len(model.loss_history) == 2
        assert len(densified) == (2 if dense else 0)

    @pytest.mark.parametrize("task,f", [("ranking", "identity"),
                                        ("ranking", "sigmoid"),
                                        ("rating", "identity")])
    def test_a_batch_past_the_rows_is_one_batch_of_every_row(self, task, f):
        ds, profiles, features = _random_task_data()
        train, side, fit, cfg, rows = {
            "ranking": (binarize(ds), profiles, train_ranking, ranking_cfg,
                        ds.num_users),
            "rating": (ds, features, train_rating, rating_cfg, ds.num_items),
        }[task]
        a, b = (fit(train, side, cfg(f=f, epochs=3, batch_size=size))
                for size in (10 ** 29, rows))
        assert _param_bytes(a) == _param_bytes(b)
        assert a.loss_history == b.loss_history


class TestDivergence:
    def test_non_finite_loss_names_epoch_batch_loss_and_rate(self):
        train, profiles = toy_ranking_data()
        cfg = ranking_cfg(learning_rate=1e12, epochs=50, batch_size=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as info:
                train_ranking(train, profiles, cfg)
        message = str(info.value)
        assert "diverged at epoch " in message
        assert "batch " in message
        assert "last finite loss " in message
        assert "learning rate 1000000000000.0" in message

    def test_non_finite_parameter_after_the_last_update_names_where(self):
        users = np.array([0, 0, 1, 1, 2, 2, 2, 3], np.int32)
        items = np.array([0, 1, 1, 2, 0, 2, 3, 3], np.int32)
        ratings = np.array([5, 2, 5, 5, 3, 5, 5, 5], np.float64)
        train = binarize(RatingDataset(4, 4, users, items, ratings,
                                       np.arange(8, dtype=np.int64)), 4.0)
        profiles = SideInfoMatrix(RNG(0).normal(size=(4, 2)), ("a", "b"))
        # one batch of every user, whose update alone overflows
        cfg = replace(TrainConfig.defaults("ranking"), learning_rate=1e308,
                      epochs=1, batch_size=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as info:
                train_ranking(train, profiles, cfg)
        assert str(info.value) == (
            "training diverged at epoch 1/1, batch 1/1: parameter Q1 is not "
            "finite after the last update, learning rate 1e+308")


class TestPredictRatings:
    def trained(self):
        train, features = toy_rating_data()
        return train_rating(train, features, rating_cfg()), train, features

    def test_observed_cells_reproduced_after_memorization(self):
        model, train, features = self.trained()
        preds = predict_ratings(model, train, features)
        for u, i, r, _ in train.triples():
            assert abs(preds[i, u] - r) < 0.1

    def test_output_clipped_to_scale(self):
        model, train, features = self.trained()
        big = SemiAEParams(Q=model.params.Q, Q1=model.params.Q1,
                           p=model.params.p,
                           p1=model.params.p1 + 100.0,
                           g=model.params.g, f=model.params.f)
        loud = TrainedModel(big, model.loss_history, model.config)
        preds = predict_ratings(loud, train, features)
        assert preds.max() <= 5.0
        assert preds.min() >= 1.0

    def test_zero_weight_model_predicts_its_bias(self):
        train, features = toy_rating_data()
        params = SemiAEParams(Q=np.zeros((3, 2)), Q1=np.zeros((2, 2)),
                              p=np.zeros(2), p1=np.array([3.0, 2.0]),
                              g="identity", f="identity")
        model = TrainedModel(params, (0.0,), TrainConfig.defaults("rating"))
        preds = predict_ratings(model, train, features)
        np.testing.assert_array_equal(preds,
                                      np.tile([3.0, 2.0], (2, 1)))

    def test_unobserved_item_falls_back_to_global_mean(self):
        users = np.array([0, 1], np.int32)
        items = np.array([0, 0], np.int32)
        ds = RatingDataset(2, 2, users, items, np.array([4.0, 2.0]),
                           np.arange(2, dtype=np.int64))
        features = SideInfoMatrix(np.ones((2, 1)), ("f",))
        model = train_rating(ds, features, rating_cfg(epochs=50))
        preds = predict_ratings(model, ds, features)
        np.testing.assert_array_equal(preds[1], 3.0)  # mean of 4 and 2

    def test_task_mismatch_rejected(self):
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, ranking_cfg(epochs=5))
        with pytest.raises(ValueError, match="rating"):
            predict_ratings(model, train, profiles)

    @pytest.mark.parametrize("g,f", [("sigmoid", "identity"),
                                     ("tanh", "sigmoid"), ("relu", "tanh")])
    def test_equals_densify_and_concat_construction(self, g, f):
        # predict_ratings against the forward pass over the plain input
        # construction, with items that have no training rating (the
        # global-mean fallback) and a non-identity f
        ds = make_random_dataset(RNG(5), 40, 30, 300)
        train, _ = split(ds, 0.5, seed=3)
        keep = train.items >= 4  # items 0..3 lose every training rating
        train = RatingDataset(train.num_users, train.num_items,
                              train.users[keep], train.items[keep],
                              train.ratings[keep], train.timestamps[keep],
                              rating_scale=(-1.0, 4.0))  # clips some, not all
        features = SideInfoMatrix(RNG(6).normal(size=(30, 3)),
                                  ("a", "b", "c"))
        params = glorot_init(40 + 3, 7, 40, g, f, RNG(7))
        params = replace(params, p=RNG(8).normal(size=7),
                         p1=RNG(9).normal(size=40) + 3)
        model = TrainedModel(params, (0.0,), TrainConfig.defaults("rating"))

        x, mask = reference_input(train, features, "item")
        _, out = forward(params, x)
        empty = ~mask.any(axis=1)
        assert empty[:4].all() and not empty[4:].all()
        out[empty, :] = float(train.ratings.mean())
        expected = np.clip(out, -1.0, 4.0)
        assert len(np.unique(expected)) > 500
        np.testing.assert_array_equal(
            predict_ratings(model, train, features).view(np.uint64),
            expected.view(np.uint64))

    def test_empty_training_set_rejected(self):
        model, train, features = self.trained()
        empty = RatingDataset(train.num_users, train.num_items,
                              np.empty(0, np.int32), np.empty(0, np.int32),
                              np.empty(0), np.empty(0, np.int64))
        with pytest.raises(ValueError, match="^cannot predict from an empty "
                                             "training set$"):
            predict_ratings(model, empty, features)

    def test_features_must_cover_every_item(self):
        model, train, features = self.trained()
        short = SideInfoMatrix(features.rows[:1], ("f",))
        with pytest.raises(ValueError, match="^side information has 1 rows "
                                             "for 2 rating rows$"):
            predict_ratings(model, train, short)


class TestPeakMemory:
    """Training holds one batch of the input, and prediction lets the whole
    input go before its output layer; tracemalloc sees numpy's arrays."""

    def data(self):
        # the dense input, 1500 items x 1002, dwarfs a 2-wide network
        ds = make_random_dataset(RNG(11), 1000, 1500, 20000)
        features = SideInfoMatrix(RNG(12).random((1500, 2)), ("a", "b"))
        return ds, features, 1500 * 1002 * 8

    def test_training_holds_less_than_the_input(self):
        ds, features, input_bytes = self.data()
        cfg = rating_cfg(hidden_dim=2, epochs=1, batch_size=64)
        model, peak = traced_peak(train_rating, ds, features, cfg)
        assert len(model.loss_history) == 1
        assert peak < input_bytes

    def test_prediction_holds_less_than_the_input_and_output(self):
        ds, features, input_bytes = self.data()
        params = glorot_init(1002, 5, 1000, rng=RNG(13))
        model = TrainedModel(params, (0.0,), TrainConfig.defaults("rating"))
        preds, peak = traced_peak(predict_ratings, model, ds, features)
        # the input is gone before the output exists
        assert peak < max(input_bytes, preds.nbytes) + input_bytes // 8


class TestRecommendTopN:
    def empty_train(self, num_users=1, num_items=3):
        return RatingDataset(num_users, num_items,
                             np.empty(0, np.int32), np.empty(0, np.int32),
                             np.empty(0, np.float64), np.empty(0, np.int64),
                             rating_scale=(0.0, 1.0))

    def profiles(self, num_users=1, dim=2):
        return SideInfoMatrix(np.zeros((num_users, dim)),
                              tuple(f"c{k}" for k in range(dim)))

    def test_scores_sorted_descending(self):
        model = fixed_score_model([0.9, 0.1, 0.5])
        got = recommend_top_n(model, self.empty_train(), self.profiles(), 0, 2)
        assert got == [0, 2]

    def test_ties_break_toward_lower_index(self):
        model = fixed_score_model([0.5, 0.5, 0.2])
        got = recommend_top_n(model, self.empty_train(), self.profiles(), 0, 3)
        assert got == [0, 1, 2]

    def test_consumed_items_are_excluded(self):
        train = RatingDataset(1, 3, np.array([0, 0], np.int32),
                              np.array([0, 2], np.int32),
                              np.ones(2), np.zeros(2, np.int64),
                              rating_scale=(0.0, 1.0))
        model = fixed_score_model([0.9, 0.1, 0.5])
        assert recommend_top_n(model, train, self.profiles(), 0, 5) == [1]

    def test_asking_beyond_candidates_returns_all_ranked(self):
        model = fixed_score_model([0.2, 0.8, 0.5])
        got = recommend_top_n(model, self.empty_train(), self.profiles(), 0, 99)
        assert got == [1, 2, 0]

    def test_negative_n_rejected(self):
        model = fixed_score_model([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            recommend_top_n(model, self.empty_train(), self.profiles(), 0, -1)

    def test_rating_model_rejected(self):
        train, features = toy_rating_data()
        model = train_rating(train, features, rating_cfg(epochs=1))
        with pytest.raises(ValueError, match=r"^recommend_top_n needs a "
                           r"ranking-task model$"):
            recommend_top_n(model, train, features, 0, 1)

    def test_rating_model_scores_every_item_as_predict_ratings(self):
        # every item rated and a scale nothing reaches: predict_ratings
        # neither falls back nor clips
        ds = make_random_dataset(RNG(3), 12, 9, 80)
        ds = replace(ds, rating_scale=(-1e9, 1e9))
        assert (ds.item_counts > 0).all()
        features = SideInfoMatrix(RNG(4).normal(size=(9, 2)), ("a", "b"))
        model = train_rating(ds, features, rating_cfg(epochs=3))
        np.testing.assert_array_equal(
            score_rows(model, ds, features, range(9)).view(np.uint64),
            predict_ratings(model, ds, features).view(np.uint64))

    def test_out_of_range_user_rejected(self):
        model = fixed_score_model([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="user"):
            recommend_top_n(model, self.empty_train(), self.profiles(), 5, 1)

    def test_recommendations_deterministic_across_runs(self):
        train, profiles = toy_ranking_data()
        a = train_ranking(train, profiles, ranking_cfg(epochs=40))
        b = train_ranking(train, profiles, ranking_cfg(epochs=40))
        for user in range(3):
            assert recommend_top_n(a, train, profiles, user, 4) == \
                recommend_top_n(b, train, profiles, user, 4)

    def test_cold_user_scores_come_from_profile_alone(self):
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, ranking_cfg(epochs=40))
        empty = self.empty_train(num_users=3, num_items=4)
        scores = score_rows(model, empty, profiles, [0])
        assert scores.shape == (1, 4)
        assert np.all(np.isfinite(scores))

    def test_scores_are_the_forward_pass_of_the_users_input_row(self):
        # two chunks of the top-n lists, the second one short
        ds = make_random_dataset(RNG(5), SCORE_ROWS + 14, 11, 1500)
        profiles = SideInfoMatrix(RNG(6).normal(size=(ds.num_users, 2)),
                                  ("a", "b"))
        liked = binarize(ds)
        model = train_ranking(liked, profiles, ranking_cfg(epochs=3))
        x, _ = reference_input(liked, profiles, "user")
        for start in range(0, liked.num_users, SCORE_ROWS):
            chunk = np.arange(start, min(start + SCORE_ROWS, liked.num_users))
            scores = score_rows(model, liked, profiles, chunk)
            # the bits of the chunk's rows run as one batch
            np.testing.assert_array_equal(
                scores.view(np.uint64),
                forward(model.params, x[chunk])[1].view(np.uint64))

    def test_scores_any_set_of_users(self):
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, ranking_cfg(epochs=3))
        x, _ = reference_input(train, profiles, "user")
        np.testing.assert_array_equal(
            score_rows(model, train, profiles, [2, 0, 2]),
            forward(model.params, x[[2, 0, 2]])[1])
        assert score_rows(model, train, profiles, []).shape == (0, 4)
        with pytest.raises(ValueError, match=r"^user index 3 out of range$"):
            score_rows(model, train, profiles, [0, 3])


class TestModelDataFit:
    """Both tasks score through ``score_rows``, which refuses data whose
    rows differ from the model's: 12 ratings + 1 side value against 11 + 2
    is the same input width, which a matrix product would take."""

    @pytest.mark.parametrize("task", ["ranking", "rating"])
    def test_data_of_another_row_shape_is_refused(self, task):
        params = glorot_init(11 + 2, 3, 11, rng=RNG(1))
        model = TrainedModel(params, (0.0,), TrainConfig.defaults(task))
        rows = "user" if task == "ranking" else "item"
        want = (rf"^model reads {rows} rows of 11 ratings \+ 2 side values, "
                rf"but data has {rows} rows of 12 ratings \+ 1 side values$")
        if task == "ranking":
            data = binarize(make_random_dataset(RNG(2), 20, 12, 120), 3.0)
            profiles = SideInfoMatrix(RNG(3).normal(size=(20, 1)), ("a",))
            with pytest.raises(ValueError, match=want):
                recommend_top_n(model, data, profiles, 0, 3)
        else:
            data = make_random_dataset(RNG(2), 12, 20, 120)
            features = SideInfoMatrix(RNG(3).normal(size=(20, 1)), ("a",))
            with pytest.raises(ValueError, match=want):
                predict_ratings(model, data, features)


def _reference_lists(model, train, profiles, n):
    """Every user's top-n list from one forward pass over every user."""
    x, _ = reference_input(train, profiles, "user")
    scores = forward(model.params, x)[1]
    return [_rank_unconsumed(scores[user], train, user, n)
            for user in range(train.num_users)]


def _ranking_data(num_users, seed, cold=()):
    """Binarized random likes of ``num_users`` users over 30 items, with no
    training like for the users ``cold``, and their random profiles."""
    liked = binarize(make_random_dataset(RNG(seed), num_users, 30,
                                         num_users * 6), 3.0)
    keep = ~np.isin(liked.users, cold)
    liked = replace(liked, users=liked.users[keep], items=liked.items[keep],
                    ratings=liked.ratings[keep],
                    timestamps=liked.timestamps[keep])
    profiles = SideInfoMatrix(RNG(seed + 1).normal(size=(num_users, 3)),
                              ("a", "b", "c"))
    return liked, profiles


class TestTopNLists:
    """``recommend_top_n`` reads every user's list from ``_top_n_lists``,
    which scores ``SCORE_ROWS`` users per forward pass."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lists_equal_one_forward_pass_over_every_user(self, ml100k_dir,
                                                          seed):
        prepared = load_raw_directory(ml100k_dir, "ml-100k")
        train = binarize(split(prepared.ratings, 0.5, seed)[0], 3.0)
        model = train_ranking(train, prepared.user_side,
                              ranking_cfg(epochs=5, seed=seed))
        want = _reference_lists(model, train, prepared.user_side, 10)
        assert [recommend_top_n(model, train, prepared.user_side, user, 10)
                for user in range(train.num_users)] == want

    @pytest.mark.parametrize("num_users", [SCORE_ROWS - 56, 2 * SCORE_ROWS,
                                           2 * SCORE_ROWS + 3])
    def test_chunk_edges_and_a_cold_user(self, num_users):
        cold = num_users // 2
        train, profiles = _ranking_data(num_users, num_users, cold=[cold])
        assert train.user_slice(cold)[0].size == 0
        model = train_ranking(train, profiles, ranking_cfg(epochs=2))
        want = _reference_lists(model, train, profiles, 5)
        users = {0, SCORE_ROWS - 1, SCORE_ROWS, num_users - 1, cold}
        for user in sorted(u for u in users if u < num_users):
            got = recommend_top_n(model, train, profiles, user, 5)
            assert got == want[user] and len(got) == 5

    def test_two_models_alternating(self):
        train, profiles = _ranking_data(40, 8)
        a = train_ranking(train, profiles, ranking_cfg(epochs=2, seed=1))
        b = train_ranking(train, profiles, ranking_cfg(epochs=2, seed=2))
        want = [_reference_lists(model, train, profiles, 4) for model in (a, b)]
        assert want[0] != want[1]
        for user in range(train.num_users):
            for model, lists in zip((a, b), want):
                assert recommend_top_n(model, train, profiles, user, 4) == \
                    lists[user]

    def test_a_new_n_ranks_again(self):
        train, profiles = _ranking_data(40, 9)
        model = train_ranking(train, profiles, ranking_cfg(epochs=2))
        for n in (3, 7, 0, 3):
            want = _reference_lists(model, train, profiles, n)
            assert [recommend_top_n(model, train, profiles, user, n)
                    for user in range(train.num_users)] == want

    def test_each_user_is_ranked_once_per_model_data_and_n(self,
                                                            monkeypatch):
        train, profiles = _ranking_data(SCORE_ROWS + 10, 10)
        model = train_ranking(train, profiles, ranking_cfg(epochs=2))
        ranked = []
        original = trainer_module._rank_unconsumed

        def counted(scores, ds, user, n):
            ranked.append(user)
            return original(scores, ds, user, n)
        monkeypatch.setattr(trainer_module, "_rank_unconsumed", counted)
        for _ in range(3):
            for user in range(train.num_users):
                recommend_top_n(model, train, profiles, user, 6)
        assert ranked == list(range(train.num_users))

    def test_a_caller_cannot_change_a_kept_list(self):
        train, profiles = _ranking_data(20, 11)
        model = train_ranking(train, profiles, ranking_cfg(epochs=2))
        want = recommend_top_n(model, train, profiles, 4, 5)
        got = recommend_top_n(model, train, profiles, 4, 5)
        got.reverse()
        got.append(99)
        assert recommend_top_n(model, train, profiles, 4, 5) == want
        assert len(want) == 5

    def test_kept_lists_keep_no_model_or_data_alive(self):
        train, profiles = _ranking_data(20, 12)
        model = train_ranking(train, profiles, ranking_cfg(epochs=2))
        recommend_top_n(model, train, profiles, 0, 5)
        refs = [weakref.ref(obj) for obj in (model, train, profiles)]
        del model, train, profiles
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_out_of_range_user_is_refused_after_the_lists_exist(self):
        train, profiles = _ranking_data(20, 13)
        model = train_ranking(train, profiles, ranking_cfg(epochs=2))
        recommend_top_n(model, train, profiles, 0, 5)
        for user in (-1, 20):
            with pytest.raises(ValueError,
                               match=rf"^user index {user} out of range$"):
                recommend_top_n(model, train, profiles, user, 5)


class TestZeroSideInformation:
    def test_ranking_trains_without_any_profile_columns(self):
        train, _ = toy_ranking_data()
        no_side = SideInfoMatrix(np.empty((3, 0)), ())
        model = train_ranking(train, no_side, ranking_cfg(epochs=200))
        assert model.side_dim == 0
        assert model.params.input_dim == model.params.output_dim == 4
        assert model.loss_history[-1] < model.loss_history[0]

    def test_rating_trains_without_any_feature_columns(self):
        train, _ = toy_rating_data()
        no_side = SideInfoMatrix(np.empty((2, 0)), ())
        model = train_rating(train, no_side, rating_cfg(epochs=300))
        assert model.params.input_dim == model.params.output_dim == 2
        preds = predict_ratings(model, train, no_side)
        assert preds.shape == (2, 2)


class TestNoTestLeakage:
    def test_outputs_depend_only_on_training_triples(self):
        rng = RNG(11)
        ds = make_random_dataset(rng, 8, 6, 30)
        train, test = split(ds, 0.6, seed=3)
        features = SideInfoMatrix(rng.random((6, 2)), ("a", "b"))
        profiles = SideInfoMatrix(rng.random((8, 2)), ("a", "b"))
        cfg_rating = rating_cfg(epochs=15, hidden_dim=3)
        m1 = train_rating(train, features, cfg_rating)
        m2 = train_rating(train, features, cfg_rating)  # test half irrelevant
        np.testing.assert_array_equal(
            predict_ratings(m1, train, features),
            predict_ratings(m2, train, features))
        btrain = binarize(train, 3.0)
        cfg_ranking = ranking_cfg(epochs=15)
        r1 = train_ranking(btrain, profiles, cfg_ranking)
        r2 = train_ranking(btrain, profiles, cfg_ranking)
        for user in range(8):
            assert recommend_top_n(r1, btrain, profiles, user, 3) == \
                recommend_top_n(r2, btrain, profiles, user, 3)


class TestModelPersistence:
    def test_round_trip_preserves_everything(self, tmp_path):
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, ranking_cfg(epochs=10))
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_array_equal(back.params.Q, model.params.Q)
        np.testing.assert_array_equal(back.params.p1, model.params.p1)
        assert back.task == "ranking"
        assert back.side_dim == 2
        assert back.loss_history == model.loss_history
        assert back.config == model.config

    @staticmethod
    def assert_same_model(back, model):
        for name in ("Q", "Q1", "p", "p1"):
            np.testing.assert_array_equal(getattr(back.params, name),
                                          getattr(model.params, name))
        assert (back.params.g, back.params.f) == (model.params.g,
                                                  model.params.f)
        assert back.loss_history == model.loss_history
        assert back.config == model.config

    @staticmethod
    def saved(tmp_path, extras=None):
        """A trained ranking model, its file and the file's document."""
        train, profiles = toy_ranking_data()
        model = train_ranking(train, profiles, ranking_cfg(epochs=3))
        path = tmp_path / "model.json"
        save_model(path, model, extras)
        return model, path, json.loads(path.read_text())

    def test_echo_holds_each_fact_once(self, tmp_path):
        echo = self.saved(tmp_path, {"train_fraction": 0.8})[2][
            "training_config_echo"]
        # the weights hold the activations and the hidden width
        assert set(echo) == {"loss_history", "config", "train_fraction"}
        assert not {"g", "f", "hidden_dim"} & set(echo["config"])

    def test_file_with_the_echo_copies_loads(self, tmp_path):
        # the layout written before the echo dropped its copies: the task,
        # orientation and side width beside a full config
        model, path, doc = self.saved(tmp_path)
        doc["training_config_echo"].update(
            task="ranking", orientation="user", side_dim=2,
            config=model.config.to_dict())
        path.write_text(json.dumps(doc))
        self.assert_same_model(load_model(path), model)

    def test_weights_own_the_activations_and_width(self, tmp_path):
        model, path, doc = self.saved(tmp_path)
        # identity activations, H=3
        doc["training_config_echo"]["config"].update(g="tanh", f="relu",
                                                     hidden_dim=500)
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert (back.config.g, back.config.f, back.config.hidden_dim) == (
            "identity", "identity", 3)
        self.assert_same_model(back, model)
