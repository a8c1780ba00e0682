import hashlib
import json

import pytest

from semiae import (TrainConfig, binarize, load_raw_directory, most_popular,
                    predict_ratings, recall_at_n, recommend_top_n, rmse,
                    split, train_ranking, train_rating)
from semiae.cli import main, run_cell

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def prepared_path(ml100k_dir, tmp_path, capsys):
    out = tmp_path / "prepared.json"
    code, _, err = run(capsys, "prepare", "--raw", ml100k_dir,
                       "--format", "ml-100k", "--out", out)
    assert code == 0, err
    return out


def write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return path


class TestPrepare:
    def test_prints_dimensions_and_writes_artifact(self, ml100k_dir, tmp_path,
                                                   capsys):
        out = tmp_path / "p.json"
        code, stdout, _ = run(capsys, "prepare", "--raw", ml100k_dir,
                              "--out", out)
        assert code == 0
        assert "M=30 N=25 |Omega|=400 K_user=30 K_item=20" in stdout
        assert out.exists()
        manifest = json.loads((tmp_path / "p.json.manifest.json").read_text())
        assert str(out) in manifest["outputs"]

    def test_rerun_produces_identical_hash(self, ml100k_dir, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "prepare", "--raw", ml100k_dir, "--out", a)
        run(capsys, "prepare", "--raw", ml100k_dir, "--out", b)
        assert hashlib.sha256(a.read_bytes()).digest() == \
            hashlib.sha256(b.read_bytes()).digest()

    def test_missing_raw_file_names_it(self, tmp_path, capsys):
        code, _, err = run(capsys, "prepare", "--raw", tmp_path / "empty",
                           "--out", tmp_path / "x.json")
        assert code == 1
        assert "u.data" in err

    def test_ml1m_format(self, ml1m_dir, tmp_path, capsys):
        code, stdout, _ = run(capsys, "prepare", "--raw", ml1m_dir,
                              "--format", "ml-1m", "--out", tmp_path / "m.json")
        assert code == 0
        assert "K_item=19" in stdout


class TestTrain:
    def test_rating_defaults_echoed_in_model(self, prepared_path, tmp_path,
                                             capsys):
        cfg = write_config(tmp_path, epochs=2)
        out = tmp_path / "model.json"
        code, stdout, err = run(capsys, "train", "--data", prepared_path,
                                "--task", "rating", "--config", cfg,
                                "--out", out)
        assert code == 0, err
        doc = json.loads(out.read_text())
        echo = doc["training_config_echo"]["config"]
        assert echo["hidden_dim"] == 500
        assert echo["optimizer"] == "adam"
        assert echo["g"] == "sigmoid" and echo["f"] == "identity"
        assert echo["learning_rate"] == 0.001
        assert echo["regularization"] == 0.1
        assert (tmp_path / "model.losses.csv").exists()

    def test_ranking_defaults(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2)
        out = tmp_path / "rank.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", out)
        assert code == 0, err
        echo = json.loads(out.read_text())["training_config_echo"]["config"]
        assert echo["hidden_dim"] == 10
        assert echo["optimizer"] == "sgd"

    def test_invalid_activation_is_reported_with_valid_set(self, prepared_path,
                                                           tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2, g="softmax")
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--config", cfg,
                           "--out", tmp_path / "m.json")
        assert code == 1
        assert "sigmoid" in err

    def test_unknown_config_key_rejected(self, prepared_path, tmp_path,
                                         capsys):
        cfg = write_config(tmp_path, epochs=2, dropout=0.5)
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--config", cfg,
                           "--out", tmp_path / "m.json")
        assert code == 1
        assert "dropout" in err

    def test_no_config_uses_task_defaults(self, prepared_path, tmp_path,
                                          capsys):
        out = tmp_path / "defaults.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--out", out)
        assert code == 0, err
        echo = json.loads(out.read_text())["training_config_echo"]["config"]
        assert echo["hidden_dim"] == 500
        assert echo["epochs"] == 500
        assert echo["optimizer"] == "adam"

    def test_identical_inputs_give_byte_identical_models(self, prepared_path,
                                                         tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=3, hidden_dim=4, seed=5)
        blobs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            run(capsys, "train", "--data", prepared_path, "--task", "rating",
                "--config", cfg, "--out", out)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_train_fraction_changes_the_model(self, prepared_path, tmp_path,
                                              capsys):
        cfg = write_config(tmp_path, epochs=2, hidden_dim=4)
        full, part = tmp_path / "full.json", tmp_path / "part.json"
        run(capsys, "train", "--data", prepared_path, "--task", "rating",
            "--config", cfg, "--out", full)
        run(capsys, "train", "--data", prepared_path, "--task", "rating",
            "--config", cfg, "--out", part, "--train-fraction", "0.5")
        assert json.loads(full.read_text())["Q"] != \
            json.loads(part.read_text())["Q"]


class TestEvaluate:
    @pytest.fixture()
    def rating_model(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, "rcfg.json", epochs=5, hidden_dim=6,
                           seed=3)
        out = tmp_path / "rating_model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--config", cfg, "--out", out,
                           "--train-fraction", "0.8")
        assert code == 0, err
        return out

    @pytest.fixture()
    def ranking_model(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, "kcfg.json", epochs=5, seed=3,
                           binarize_threshold=3.0)
        out = tmp_path / "ranking_model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", out,
                           "--train-fraction", "0.8")
        assert code == 0, err
        return out

    def test_rating_report_has_rmse(self, rating_model, prepared_path,
                                    tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, stdout, err = run(capsys, "evaluate", "--model", rating_model,
                                "--data", prepared_path,
                                "--train-fraction", "0.8", "--seed", "3",
                                "--out", report_path)
        assert code == 0, err
        doc = json.loads(report_path.read_text())
        assert "rmse" in doc and doc["rmse"] > 0
        assert "rmse" in stdout

    def test_ranking_report_has_requested_recall_keys(self, ranking_model,
                                                      prepared_path, capsys):
        code, stdout, err = run(capsys, "evaluate", "--model", ranking_model,
                                "--data", prepared_path,
                                "--train-fraction", "0.8", "--seed", "3",
                                "--recall", "5,10")
        assert code == 0, err
        doc = json.loads(stdout)
        assert set(doc["recall"]) == {"5", "10"}

    def test_recall_flag_on_rating_model_is_an_error(self, rating_model,
                                                     prepared_path, capsys):
        code, _, err = run(capsys, "evaluate", "--model", rating_model,
                           "--data", prepared_path, "--train-fraction", "0.8",
                           "--seed", "3", "--recall", "5")
        assert code == 1
        assert "ranking" in err

    def test_split_mismatch_is_flagged(self, rating_model, prepared_path,
                                       capsys, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="semiae.cli"):
            code, _, _ = run(capsys, "evaluate", "--model", rating_model,
                             "--data", prepared_path,
                             "--train-fraction", "0.5", "--seed", "9")
        assert code == 0
        assert "overlaps" in caplog.text
        assert "seed" in caplog.text
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="semiae.cli"):
            code, _, _ = run(capsys, "evaluate", "--model", rating_model,
                             "--data", prepared_path,
                             "--train-fraction", "0.8", "--seed", "3")
        assert code == 0
        assert caplog.text == ""


    def test_full_dataset_model_is_flagged(self, prepared_path, tmp_path,
                                           capsys, caplog):
        import logging
        cfg = write_config(tmp_path, "fcfg.json", epochs=2, hidden_dim=3,
                           seed=3)
        model = tmp_path / "full_model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--config", cfg, "--out", model)
        assert code == 0, err
        with caplog.at_level(logging.WARNING, logger="semiae.cli"):
            code, _, _ = run(capsys, "evaluate", "--model", model,
                             "--data", prepared_path,
                             "--train-fraction", "0.8", "--seed", "3")
        assert code == 0
        assert "full dataset" in caplog.text
        assert "overlaps" not in caplog.text and "seed" not in caplog.text

class TestRecommend:
    def test_prints_ranked_raw_item_ids(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=5, binarize_threshold=3.0)
        model = tmp_path / "m.json"
        run(capsys, "train", "--data", prepared_path, "--task", "ranking",
            "--config", cfg, "--out", model)
        code, stdout, err = run(capsys, "recommend", "--model", model,
                                "--data", prepared_path, "--user", "1",
                                "--n", "4")
        assert code == 0, err
        lines = stdout.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("1\t")

    def test_unknown_user_id_rejected(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2)
        model = tmp_path / "m.json"
        run(capsys, "train", "--data", prepared_path, "--task", "ranking",
            "--config", cfg, "--out", model)
        code, _, err = run(capsys, "recommend", "--model", model,
                           "--data", prepared_path, "--user", "9999", "--n", "2")
        assert code == 1
        assert "9999" in err


class TestReproduce:
    def test_table2_csv_shape_and_determinism(self, ml100k_dir, tmp_path,
                                              capsys):
        cfg = write_config(tmp_path, epochs=3, binarize_threshold=3.0)
        outs = []
        for name in ("run_a", "run_b"):
            out_dir = tmp_path / name
            code, stdout, err = run(capsys, "reproduce", "--table", "2",
                                    "--raw", ml100k_dir, "--seeds", "7",
                                    "--config", cfg, "--out-dir", out_dir)
            assert code == 0, err
            outs.append((out_dir / "table2.csv").read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == "dataset,task,train_fraction,seed,method,metric,value"
        # 2 fractions x 2 methods x 2 metrics x (1 seed + mean + std)
        assert len(lines) - 1 == 2 * 2 * 2 * 3

    def test_table1_rows(self, ml100k_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2, hidden_dim=4)
        out_dir = tmp_path / "t1"
        code, stdout, err = run(capsys, "reproduce", "--table", "1",
                                "--raw", ml100k_dir, "--seeds", "1,2",
                                "--config", cfg, "--out-dir", out_dir)
        assert code == 0, err
        lines = (out_dir / "table1.csv").read_text().splitlines()
        # 2 fractions x (2 seeds + mean + std)
        assert len(lines) - 1 == 2 * 4
        summary = (out_dir / "table1_summary.txt").read_text()
        assert "published" in summary
        assert "RMSE" in summary

    def test_bad_seed_list_rejected(self, ml100k_dir, tmp_path, capsys):
        code, _, err = run(capsys, "reproduce", "--table", "1",
                           "--raw", ml100k_dir, "--seeds", "one,two",
                           "--out-dir", tmp_path / "x")
        assert code == 1
        assert "integer" in err

    def test_table1_on_ml1m_layout(self, ml1m_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2, hidden_dim=3)
        out_dir = tmp_path / "t1m"
        code, _, err = run(capsys, "reproduce", "--table", "1",
                           "--raw", ml1m_dir, "--format", "ml-1m",
                           "--seeds", "1", "--config", cfg,
                           "--out-dir", out_dir)
        assert code == 0, err
        summary = (out_dir / "table1_summary.txt").read_text()
        assert "ml-1m" in summary
        assert "0.858" in summary  # published reference rendered alongside


class TestMalformedArtifacts:
    """A model or prepared-data file with a missing entry is a one-line
    error naming the file and the entry, not a traceback."""

    @pytest.fixture()
    def ranking_model(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2, binarize_threshold=3.0)
        out = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", out,
                           "--train-fraction", "0.8")
        assert code == 0, err
        return out

    def assert_one_line_error(self, code, err, *names):
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        for name in names:
            assert name in lines[0]

    @pytest.mark.parametrize("keys", [("Q",), ("dims",),
                                      ("training_config_echo", "task")],
                             ids=["Q", "dims", "echo-task"])
    def test_model_missing_key(self, ranking_model, prepared_path, tmp_path,
                               capsys, keys):
        doc = json.loads(ranking_model.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        for argv in (["evaluate", "--model", broken, "--data", prepared_path,
                      "--train-fraction", "0.8", "--seed", "0"],
                     ["recommend", "--model", broken, "--data", prepared_path,
                      "--user", "1", "--n", "3"]):
            code, _, err = run(capsys, *argv)
            self.assert_one_line_error(code, err, "broken.json",
                                       repr(keys[-1]))

    def test_prepared_missing_key(self, ranking_model, prepared_path,
                                  tmp_path, capsys):
        doc = json.loads(prepared_path.read_text())
        del doc["triples"]
        broken = tmp_path / "broken_prepared.json"
        broken.write_text(json.dumps(doc))
        for argv in (["train", "--data", broken, "--task", "rating",
                      "--out", tmp_path / "never.json"],
                     ["evaluate", "--model", ranking_model, "--data", broken,
                      "--train-fraction", "0.8", "--seed", "0"]):
            code, _, err = run(capsys, *argv)
            self.assert_one_line_error(code, err, "broken_prepared.json",
                                       "'triples'")


class TestRunCell:
    """run_cell, the path reproduce and the acceptance suite share, equals
    the library pipeline composed by hand on one seeded split."""

    def test_rating_cell(self, ml100k_dir):
        prepared = load_raw_directory(ml100k_dir, "ml-100k")
        cfg = TrainConfig.from_dict({"epochs": 3, "hidden_dim": 4, "seed": 2},
                                    task="rating")
        train, test = split(prepared.ratings, 0.8, 2)
        model = train_rating(train, prepared.item_side, cfg)
        expected = rmse(predict_ratings(model, train, prepared.item_side), test)
        assert run_cell(prepared, cfg, 0.8, 2) == \
            {("semi-autoencoder", "rmse"): expected}

    def test_ranking_cell_scores_model_and_baseline(self, ml100k_dir):
        prepared = load_raw_directory(ml100k_dir, "ml-100k")
        cfg = TrainConfig.from_dict({"epochs": 3, "seed": 2,
                                     "binarize_threshold": 3.0},
                                    task="ranking")
        train, test = (binarize(half, 3.0)
                       for half in split(prepared.ratings, 0.3, 2))
        model = train_ranking(train, prepared.user_side, cfg)
        recommenders = {
            "semi-autoencoder": lambda u: recommend_top_n(
                model, train, prepared.user_side, u, 10),
            "most-popular": lambda u: most_popular(train, u, 10)}
        expected = {(method, f"recall@{n}"): recall_at_n(rec, test, n)
                    for method, rec in recommenders.items() for n in (5, 10)}
        assert run_cell(prepared, cfg, 0.3, 2) == expected
