import errno
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from semiae import (TrainConfig, binarize, load_raw_directory, most_popular,
                    predict_ratings, recall_at_n, recommend_top_n, rmse,
                    split, train_ranking, train_rating)
from semiae import cli
from semiae import dataset as ds_mod
from semiae.cli import main, run_cell
from semiae.dataset import read_prepared
from semiae.synthetic import write_layout

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


# deeper than the JSON decoder's recursion limit
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000
DEEPLY_NESTED_ERROR = ("not a valid JSON file: maximum recursion depth "
                       "exceeded while decoding a JSON array from a unicode "
                       "string")


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

    @pytest.mark.parametrize("name, edit, expected", [
        ("u.user", lambda b: b + b"1|37|M|writer|12345\n",
         "u.user:31: duplicate user id 1"),
        ("u.data", lambda b: b"\xef\xbb\xbf" + b, "u.data:1: "),
        ("u.user", lambda b: b.split(b"\n", 1)[1],
         "u.user: no side information for raw ids [1]"),
        ("u.data", lambda b: b"\xa0" + b,
         "u.data:1: non-ASCII character in numeric field 1: "),
    ], ids=["duplicate-id", "bom", "no-side-row", "no-break-space"])
    def test_bad_raw_file_is_a_one_line_error(self, ml100k_dir, tmp_path,
                                              capsys, name, edit, expected):
        raw = tmp_path / "raw"
        raw.mkdir()
        for path in ml100k_dir.iterdir():
            data = path.read_bytes()
            (raw / path.name).write_bytes(edit(data) if path.name == name
                                          else data)
        code, _, err = run(capsys, "prepare", "--raw", raw,
                           "--out", tmp_path / "p.json")
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert expected in lines[0]


    @pytest.mark.parametrize("field, what", [(0, "user id"), (1, "item id"),
                                             (3, "timestamp")])
    @pytest.mark.parametrize("fmt, name", [("ml-100k", "u.data"),
                                           ("ml-1m", "ratings.dat")])
    def test_number_past_64_bits_is_a_one_line_error(
            self, ml100k_dir, ml1m_dir, tmp_path, capsys, fmt, name, field,
            what):
        raw = tmp_path / "raw"
        raw.mkdir()
        for path in {"ml-100k": ml100k_dir, "ml-1m": ml1m_dir}[fmt].iterdir():
            (raw / path.name).write_bytes(path.read_bytes())
        sep = "\t" if fmt == "ml-100k" else "::"
        fields = ["1", "1", "3", "881250949"]
        fields[field] = "99999999999999999999"
        data = (raw / name).read_bytes()
        line = len(data.splitlines()) + 1
        (raw / name).write_bytes(data + sep.join(fields).encode() + b"\n")
        code, _, err = run(capsys, "prepare", "--raw", raw, "--format", fmt,
                           "--out", tmp_path / "p.json")
        assert code == 1
        assert err == (f"error: {raw / name}:{line}: {what} "
                       f"99999999999999999999 does not fit in 64 bits\n")

    def test_repeated_rating_line_names_both_lines(self, ml100k_dir,
                                                   tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        for path in ml100k_dir.iterdir():
            (raw / path.name).write_bytes(path.read_bytes())
        data = (raw / "u.data").read_bytes()
        lines = data.splitlines(keepends=True)
        (raw / "u.data").write_bytes(data + lines[1])
        user, item = (int(v) for v in lines[1].split(b"\t")[:2])
        code, _, err = run(capsys, "prepare", "--raw", raw,
                           "--out", tmp_path / "p.json")
        assert code == 1
        assert err == (f"error: {raw / 'u.data'}:{len(lines) + 1}: duplicate "
                       f"(user, item) pair ({user}, {item}), first on line "
                       f"2\n")


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
        # the weights hold the activations and the hidden width
        assert doc["dims"]["H"] == 500
        assert doc["activations"] == {"g": "sigmoid", "f": "identity"}
        assert echo["optimizer"] == "adam"
        assert echo["learning_rate"] == 0.001
        assert echo["regularization"] == 0.1

    def test_there_is_no_log_flag(self, prepared_path, tmp_path, capsys):
        out = tmp_path / "model.json"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(prepared_path), "--task", "rating",
                  "--out", str(out), "--log", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --log" in capsys.readouterr().err
        assert not out.exists()

    def test_ranking_defaults(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2)
        out = tmp_path / "rank.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", out)
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["dims"]["H"] == 10
        assert doc["training_config_echo"]["config"]["optimizer"] == "sgd"

    def test_a_ranking_batch_size_past_int64_is_one_batch_of_every_user(
            self, prepared_path, tmp_path, capsys):
        users = read_prepared(prepared_path).ratings.num_users
        models = []
        for size in (10 ** 29, users):
            cfg = write_config(tmp_path, f"cfg{size}.json", epochs=2,
                               batch_size=size)
            out = tmp_path / f"m{size}.json"
            code, _, err = run(capsys, "train", "--data", prepared_path,
                               "--task", "ranking", "--config", cfg,
                               "--out", out)
            assert code == 0, err
            doc = json.loads(out.read_text())
            models.append([doc[key] for key in ("Q", "Q1", "p", "p1")]
                          + [doc["training_config_echo"]["loss_history"]])
        assert models[0] == models[1]

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
        doc = json.loads(out.read_text())
        echo = doc["training_config_echo"]["config"]
        assert doc["dims"]["H"] == 500
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

    # and the split's seed, which evaluate and recommend take as a flag
    @pytest.mark.parametrize("command, flags, expected", [
        ("train", ["--train-fraction", "1.5"],
         "train_fraction 1.5 outside (0, 1)"),
        ("train", ["--train-fraction", "1.0"],
         "train_fraction 1.0 outside (0, 1)"),
        ("evaluate", ["--train-fraction", "0.8", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        ("recommend", ["--user", "1", "--n", "2", "--train-fraction", "0.5",
                       "--seed", "-1"], "seed must be >= 0, got -1"),
        ("recommend", ["--user", "1", "--n", "2", "--seed", "5"],
         "--seed needs --train-fraction, whose split it seeds")],
        ids=["1.5", "1.0", "evaluate-seed-negative", "recommend-seed-negative",
             "recommend-seed-without-fraction"])
    def test_train_fraction_outside_the_open_interval_rejected(
            self, prepared_path, tmp_path, capsys, command, flags, expected):
        cfg = write_config(tmp_path, epochs=2, hidden_dim=4)
        out = tmp_path / "never.json"
        model = tmp_path / "m.json"
        if command == "train":
            flags = ["--task", "rating", "--config", cfg, "--out", out, *flags]
        else:
            code, _, err = run(capsys, "train", "--data", prepared_path,
                               "--task", "ranking", "--config", cfg,
                               "--out", model)
            assert code == 0, err
            flags = ["--model", model, *flags]
        code, stdout, err = run(capsys, command, "--data", prepared_path,
                                *flags)
        assert (code, stdout, err) == (1, "", f"error: {expected}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("learning_rate", 1),
                                            ("binarize_threshold", 3)])
    def test_ints_for_float_fields_train(self, prepared_path, tmp_path,
                                         capsys, key, value):
        cfg = write_config(tmp_path, epochs=2, **{key: value})
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", out)
        assert code == 0, err
        echo = json.loads(out.read_text())["training_config_echo"]["config"]
        assert echo[key] == value


    @pytest.mark.parametrize("task", ["rating", "ranking"])
    def test_divergence_is_one_stderr_line(self, prepared_path, tmp_path,
                                           task):
        # in a process of its own, where numpy's warnings would reach
        # stderr; an sgd step this large overflows every parameter
        cfg = write_config(tmp_path, optimizer="sgd", learning_rate=1e300,
                           epochs=2)
        out = tmp_path / "never.json"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONWARNINGS="default",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "semiae.cli", "train", "--data",
             str(prepared_path), "--task", task, "--config", str(cfg),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: training diverged at epoch 2/2, "
                                      "batch 1/1: loss inf, last finite loss ")
        assert proc.stderr.endswith(", learning rate 1e+300\n")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_is_one_stderr_line(self, prepared_path, tmp_path,
                                              capsys):
        # 55 x 1e13 float64 weights, 4.4e15 bytes: past the user address
        # space, so the allocation fails at once, and below 2**63 bytes,
        # past which numpy raises a ValueError instead
        cfg = write_config(tmp_path, hidden_dim=10 ** 13, epochs=1)
        out = tmp_path / "never.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", out)
        assert code == 1
        assert err == ("error: Unable to allocate 3.91 PiB for an array with "
                       "shape (55, 10000000000000) and data type float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("task, case", [
        ("rating", "no-ratings"), ("ranking", "no-ratings"),
        ("ranking", "none-above-threshold"), ("rating", "tiny-fraction")],
        ids=["rating", "ranking", "ranking-none-above-threshold",
             "rating-tiny-fraction"])
    def test_empty_training_set_is_a_one_line_error(self, ml100k_dir,
                                                    prepared_path, tmp_path,
                                                    capsys, task, case):
        prepared, extra = prepared_path, []
        if case == "no-ratings":
            raw = tmp_path / "raw"
            raw.mkdir()
            for path in ml100k_dir.iterdir():
                (raw / path.name).write_bytes(
                    b"" if path.name == "u.data" else path.read_bytes())
            prepared = tmp_path / "empty.json"
            code, stdout, err = run(capsys, "prepare", "--raw", raw,
                                    "--out", prepared)
            assert code == 0, err
            assert "M=0 N=0 |Omega|=0" in stdout
        elif case == "none-above-threshold":
            # no rating is above 5, so the binarized half has no triple
            extra = ["--config", write_config(tmp_path, binarize_threshold=5.0,
                                              epochs=2)]
        else:
            # round(0.001 * 400) = 0 training ratings
            extra = ["--train-fraction", "0.001"]
        code, _, err = run(capsys, "train", "--data", prepared, "--task",
                           task, "--out", tmp_path / "never.json", *extra)
        assert code == 1
        assert err.strip() == "error: cannot train on an empty training set"
        assert not (tmp_path / "never.json").exists()


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
        assert json.loads(stdout) == doc
        test = split(read_prepared(prepared_path).ratings, 0.8, 3)[1]
        assert doc["num_evaluated_users"] == len(set(test.users.tolist()))

    def test_ranking_report_has_requested_recall_keys(self, ranking_model,
                                                      prepared_path, capsys):
        code, stdout, err = run(capsys, "evaluate", "--model", ranking_model,
                                "--data", prepared_path,
                                "--train-fraction", "0.8", "--seed", "3",
                                "--recall", "5,10")
        assert code == 0, err
        doc = json.loads(stdout)
        assert set(doc["recall"]) == {"5", "10"}
        # only users with a liked held-out item count
        test = binarize(split(read_prepared(prepared_path).ratings, 0.8, 3)[1],
                        3.0)
        assert doc["num_evaluated_users"] == len(set(test.users.tolist()))

    def test_recall_flag_on_rating_model_is_an_error(self, rating_model,
                                                     prepared_path, capsys):
        code, _, err = run(capsys, "evaluate", "--model", rating_model,
                           "--data", prepared_path, "--train-fraction", "0.8",
                           "--seed", "3", "--recall", "5")
        assert code == 1
        assert "ranking" in err

    def test_negative_recall_n_is_an_error(self, ranking_model,
                                           prepared_path, capsys):
        code, stdout, err = run(capsys, "evaluate", "--model", ranking_model,
                                "--data", prepared_path,
                                "--train-fraction", "0.8", "--seed", "3",
                                "--recall", "10,-1")
        assert code == 1
        assert stdout == ""
        assert err == "error: --recall values must be >= 0, got 10,-1\n"

    def test_empty_recall_list_is_an_error(self, ranking_model, prepared_path,
                                           capsys):
        code, stdout, err = run(capsys, "evaluate", "--model", ranking_model,
                                "--data", prepared_path,
                                "--train-fraction", "0.8", "--seed", "3",
                                "--recall", ",")
        assert code == 1
        assert stdout == ""
        assert err == "error: --recall needs at least one N value\n"

    @pytest.mark.parametrize("model", ["ranking_model", "rating_model"])
    def test_an_empty_recall_value_is_an_error(self, model, prepared_path,
                                               capsys, request):
        # an empty string is a value given, not the flag left out
        code, stdout, err = run(capsys, "evaluate", "--model",
                                request.getfixturevalue(model),
                                "--data", prepared_path,
                                "--train-fraction", "0.8", "--seed", "3",
                                "--recall", "")
        assert code == 1
        assert stdout == ""
        assert err == "error: --recall needs at least one N value\n"

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

    def test_rating_model_rejected(self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2)
        model = tmp_path / "m.json"
        run(capsys, "train", "--data", prepared_path, "--task", "rating",
            "--config", cfg, "--out", model)
        code, stdout, err = run(capsys, "recommend", "--model", model,
                                "--data", prepared_path, "--user", "1",
                                "--n", "2")
        assert code == 1
        assert stdout == ""
        assert err == "error: recommend needs a ranking-task model\n"


class TestModelDataMismatch:
    """A model scored against data of another shape is a one-line error
    naming both row shapes, for either task."""

    @pytest.mark.parametrize("task, command, layout", [
        ("rating", "evaluate", "ml-100k"), ("ranking", "evaluate", "ml-100k"),
        ("ranking", "recommend", "ml-100k"), ("rating", "evaluate", "ml-1m")])
    def test_is_a_one_line_error(self, prepared_path, ml1m_dir, tmp_path,
                                 capsys, task, command, layout):
        cfg = write_config(tmp_path, epochs=2, hidden_dim=3)
        model = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", task, "--config", cfg, "--out", model)
        assert code == 0, err
        # ml-1m: the same counts with another item side width (its user
        # side width is ml-100k's); ml-100k: the same side widths with other
        # counts
        raw = (ml1m_dir if layout == "ml-1m" else
               write_layout(tmp_path / "raw", "ml-100k", num_users=40,
                            num_items=30, num_ratings=400, seed=5))
        other = tmp_path / "other.json"
        code, _, err = run(capsys, "prepare", "--raw", raw, "--format",
                           layout, "--out", other)
        assert code == 0, err
        flags = (("--train-fraction", "0.8", "--seed", "3")
                 if command == "evaluate" else ("--user", "1", "--n", "2"))
        code, stdout, err = run(capsys, command, "--model", model,
                                "--data", other, *flags)
        assert code == 1
        assert stdout == ""

        def row(path):
            data = read_prepared(path)
            return ((data.ratings.num_items, data.user_side.dim)
                    if task == "ranking" else
                    (data.ratings.num_users, data.item_side.dim))

        rows = "user" if task == "ranking" else "item"
        (width, side), (width2, side2) = row(prepared_path), row(other)
        assert (width, side) != (width2, side2)
        assert err == (f"error: model reads {rows} rows of {width} "
                       f"ratings + {side} side values, but data has "
                       f"{rows} rows of {width2} ratings + {side2} side "
                       f"values\n")

    def test_a_refused_model_prints_only_its_error(self, prepared_path,
                                                   tmp_path, capsys):
        # in a process of its own, where the log reaches stderr; the
        # model's split (0.8, seed 3) is not the one evaluate asks for
        cfg = write_config(tmp_path, epochs=2, hidden_dim=3, seed=3)
        model = tmp_path / "m.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--config", cfg, "--out", model,
                           "--train-fraction", "0.8")
        assert code == 0, err
        raw = write_layout(tmp_path / "raw", "ml-100k", num_users=40,
                           num_items=30, num_ratings=400, seed=5)
        other = tmp_path / "other.json"
        code, _, err = run(capsys, "prepare", "--raw", raw, "--out", other)
        assert code == 0, err
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, SEMIAE_LOG="warning", PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "semiae.cli", "evaluate", "--model",
             str(model), "--data", str(other), "--train-fraction", "0.5",
             "--seed", "9"],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: model ")
        assert proc.stderr.count("\n") == 1


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
        *summary, wrote = stdout.splitlines()
        assert wrote == f"wrote {out_dir / 'table1.csv'}"
        assert len(summary) == 2
        assert all("RMSE" in line and "published" in line for line in summary)

    def test_bad_seed_list_rejected(self, ml100k_dir, tmp_path, capsys):
        code, _, err = run(capsys, "reproduce", "--table", "1",
                           "--raw", ml100k_dir, "--seeds", "one,two",
                           "--out-dir", tmp_path / "x")
        assert code == 1
        assert "integer" in err

    def test_empty_seed_list_rejected(self, ml100k_dir, tmp_path, capsys):
        code, _, err = run(capsys, "reproduce", "--table", "1",
                           "--raw", ml100k_dir, "--seeds", ",",
                           "--out-dir", tmp_path / "x")
        assert code == 1
        assert err == "error: need at least one seed\n"

    def test_table1_on_ml1m_layout(self, ml1m_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2, hidden_dim=3)
        out_dir = tmp_path / "t1m"
        code, stdout, err = run(capsys, "reproduce", "--table", "1",
                                "--raw", ml1m_dir, "--format", "ml-1m",
                                "--seeds", "1", "--config", cfg,
                                "--out-dir", out_dir)
        assert code == 0, err
        summary = "\n".join(stdout.splitlines()[:-1])
        assert "ml-1m" in summary
        assert "0.858" in summary  # published reference rendered alongside

    def test_table2_published_figures_only_for_ml100k(self, ml100k_dir,
                                                      ml1m_dir, tmp_path,
                                                      capsys):
        cfg = write_config(tmp_path, epochs=2, binarize_threshold=3.0)
        summaries = {}
        for fmt, raw in (("ml-100k", ml100k_dir), ("ml-1m", ml1m_dir)):
            out_dir = tmp_path / fmt
            code, stdout, err = run(capsys, "reproduce", "--table", "2",
                                    "--raw", raw, "--format", fmt,
                                    "--seeds", "1", "--config", cfg,
                                    "--out-dir", out_dir)
            assert code == 0, err
            # the summary, without the last line, which names the CSV
            summaries[fmt] = "\n".join(stdout.splitlines()[:-1])
        assert "(published 9.487)" in summaries["ml-100k"]
        assert "ml-1m ranking" in summaries["ml-1m"]
        assert "published" not in summaries["ml-1m"]


class TestManifests:
    """main makes the directory of the command's output before the command
    runs, and writes its manifest from the parsed flags after it."""

    def test_each_manifest_holds_every_flag_and_hashes_every_output(
            self, ml100k_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2, seed=3, binarize_threshold=3.0)
        out = tmp_path / "out"
        prepared, model = out / "prepared.json", out / "model.json"
        report = out / "eval" / "report.json"
        table = out / "table2" / "table2.csv"
        runs = [  # (command, flags, the output its manifest lists)
            ("prepare", {"raw": ml100k_dir, "format": "ml-100k",
                         "out": prepared}, prepared),
            ("train", {"data": prepared, "task": "ranking", "config": cfg,
                       "out": model, "train_fraction": 0.8}, model),
            ("evaluate", {"model": model, "data": prepared,
                          "train_fraction": 0.8, "seed": 3, "recall": "5,10",
                          "out": report}, report),
            ("reproduce", {"table": 2, "raw": ml100k_dir, "format": "ml-100k",
                           "seeds": "1", "config": cfg,
                           "out_dir": table.parent}, table)]
        for command, flags, output in runs:
            argv = [command]
            for flag, value in flags.items():
                argv += ["--" + flag.replace("_", "-"), value]
            code, _, err = run(capsys, *argv)
            assert code == 0, err
            manifest = json.loads(Path(f"{output}.manifest.json").read_text())
            assert manifest["command"] == command
            assert manifest["args"] == {k: str(v) for k, v in flags.items()}
            assert manifest["outputs"] == {
                str(output): hashlib.sha256(output.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("command",
                             ["prepare", "train", "evaluate", "reproduce"])
    def test_a_command_leaves_one_file_and_its_manifest(
            self, ml100k_dir, prepared_path, tmp_path, capsys, command):
        cfg = write_config(tmp_path, epochs=2, binarize_threshold=3.0)
        model, new = tmp_path / "model.json", tmp_path / "new"
        if command == "evaluate":
            code, _, err = run(capsys, "train", "--data", prepared_path,
                               "--task", "ranking", "--config", cfg,
                               "--out", model)
            assert code == 0, err
        argv, output = {
            "prepare": (["--raw", ml100k_dir, "--out", new / "p.json"],
                        new / "p.json"),
            "train": (["--data", prepared_path, "--task", "ranking",
                       "--config", cfg, "--out", new / "m.json"],
                      new / "m.json"),
            "evaluate": (["--model", model, "--data", prepared_path,
                          "--train-fraction", "0.8", "--seed", "0",
                          "--out", new / "r.json"], new / "r.json"),
            "reproduce": (["--table", "2", "--raw", ml100k_dir, "--seeds", "1",
                           "--config", cfg, "--out-dir", new],
                          new / "table2.csv")}[command]
        code, _, err = run(capsys, command, *argv)
        assert code == 0, err
        assert sorted(new.iterdir()) == [output,
                                         Path(f"{output}.manifest.json")]

    def test_commands_that_write_no_file_write_no_manifest(
            self, prepared_path, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=2, binarize_threshold=3.0)
        model = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", model)
        assert code == 0, err
        before = set(tmp_path.rglob("*"))
        for argv in (["evaluate", "--model", model, "--data", prepared_path,
                      "--train-fraction", "0.8", "--seed", "0"],
                     ["recommend", "--model", model, "--data", prepared_path,
                      "--user", "1", "--n", "3"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        assert set(tmp_path.rglob("*")) == before

    def test_an_output_directory_that_cannot_be_made_fails_before_training(
            self, prepared_path, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "models"
        blocker.write_text("a file where the model directory would go")
        cfg = write_config(tmp_path, epochs=2, hidden_dim=4)
        monkeypatch.setattr(cli, "_fit", lambda *a: pytest.fail("trained"))
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--config", cfg,
                           "--out", blocker / "model.json")
        assert code == 1
        assert err == f"error: [Errno 17] File exists: '{blocker}'\n"


class TestOutputFlags:
    """Before a command runs, main rejects an output, or its manifest, that
    is a file the command reads; a failed command leaves an earlier output
    as it was, no partial file, and none of the directories main made for
    it that are still empty."""

    @pytest.fixture()
    def files(self, prepared_path, tmp_path, capsys):
        """A ranking model, its config and the prepared data it reads."""
        cfg = write_config(tmp_path, epochs=2, binarize_threshold=3.0)
        model = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config", cfg, "--out", model)
        assert code == 0, err
        return {"data": prepared_path, "config": cfg, "model": model}

    # (flags, the file two of them name, the two as the error names them);
    # {name} is a file of the fixture or of tmp_path
    @pytest.mark.parametrize("command, flags, clash, what", [
        ("train", {"out": "{data}"}, "{data}", "--out {data} and --data {data}"),
        ("train", {"out": "{config}"}, "{config}",
         "--out {config} and --config {config}"),
        # the same file under another spelling
        ("train", {"out": "{tmp}/sub/../prepared.json"}, "{data}",
         "--out {tmp}/sub/../prepared.json and --data {data}"),
        ("train", {"data": "{d}", "out": "{tmp}/d.json"}, "{d}",
         "--data {d} and the manifest of --out {tmp}/d.json"),
        ("evaluate", {"out": "{model}"}, "{model}",
         "--out {model} and --model {model}"),
        ("evaluate", {"out": "{data}"}, "{data}",
         "--out {data} and --data {data}"),
        ("reproduce", {"config": "{c}", "out-dir": "{tmp}/o"}, "{c}",
         "table2.csv in --out-dir {tmp}/o and --config {c}"),
        ("reproduce", {"config": "{cm}", "out-dir": "{tmp}/o"}, "{cm}",
         "--config {cm} and the manifest of table2.csv in --out-dir {tmp}/o"),
        ("prepare", {"raw": "{raw}", "out": "{raw}/u.data"}, "{raw}/u.data",
         "--out {raw}/u.data and u.data in --raw {raw}"),
        ("prepare", {"raw": "{raw}", "out": "{raw}/u.item"}, "{raw}/u.item",
         "--out {raw}/u.item and u.item in --raw {raw}"),
        ("prepare", {"raw": "{raw1m}", "format": "ml-1m",
                     "out": "{raw1m}/ratings.dat"}, "{raw1m}/ratings.dat",
         "--out {raw1m}/ratings.dat and ratings.dat in --raw {raw1m}"),
    ], ids=["out-is-data", "out-is-config", "out-is-data-respelled",
            "out-manifest-is-data", "evaluate-out-is-model",
            "evaluate-out-is-data", "reproduce-table-is-config",
            "reproduce-table-manifest-is-config", "prepare-out-is-ratings",
            "prepare-out-is-items", "prepare-out-is-ml1m-ratings"])
    def test_an_output_naming_a_taken_file_is_a_one_line_error(
            self, files, tmp_path, capsys, command, flags, clash, what):
        names = {**files, "tmp": tmp_path,
                 "d": tmp_path / "d.json.manifest.json",
                 "c": tmp_path / "o" / "table2.csv",
                 "cm": tmp_path / "o" / "table2.csv.manifest.json",
                 "raw": write_layout(tmp_path / "raw", "ml-100k",
                                     num_users=20, num_items=15,
                                     num_ratings=100, seed=3),
                 "raw1m": write_layout(tmp_path / "raw1m", "ml-1m",
                                       num_users=20, num_items=15,
                                       num_ratings=100, seed=3)}
        # prepared data under the name of a manifest, and a config under
        # the names of reproduce's table and its manifest
        names["d"].write_bytes(files["data"].read_bytes())
        names["c"].parent.mkdir()
        for config in (names["c"], names["cm"]):
            config.write_bytes(files["config"].read_bytes())
        clash = Path(clash.format(**names))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")
                  if p.is_file()}
        argv = {"train": ["train", "--task", "ranking", "--config",
                          files["config"]],
                "evaluate": ["evaluate", "--model", files["model"], "--data",
                             files["data"], "--train-fraction", "0.8",
                             "--seed", "0"],
                "reproduce": ["reproduce", "--table", "2", "--raw",
                              names["raw"], "--seeds", "1"],
                "prepare": ["prepare"]}[command]
        if command == "train":
            flags = {"data": "{data}", **flags}
        for flag, value in flags.items():
            argv += [f"--{flag}", value.format(**names)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {what.format(**names)} name the same file\n"
        assert clash in before
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == before
        assert not (tmp_path / "new").exists() and not (tmp_path / "sub").exists()

    def test_a_failed_command_removes_only_the_directories_it_made(
            self, ml100k_dir, prepared_path, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "deep.json"
        bad.write_text(DEEPLY_NESTED)
        kept = tmp_path / "kept"
        (kept / "empty").mkdir(parents=True)
        for argv in (
                ["reproduce", "--table", "2", "--raw", ml100k_dir, "--seeds",
                 "1", "--config", bad, "--out-dir", tmp_path / "never" / "a"],
                ["reproduce", "--table", "2", "--raw", ml100k_dir, "--seeds",
                 "1", "--config", bad, "--out-dir", kept / "empty" / "a" / "b"],
                ["train", "--data", prepared_path, "--task", "rating",
                 "--config", bad, "--out", tmp_path / "new" / "sub" / "m.json"],
                ["train", "--data", prepared_path, "--task", "rating",
                 "--config", bad, "--out", kept / "empty" / "a" / "m.json"]):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (1, f"error: {bad}: {DEEPLY_NESTED_ERROR}\n")
            assert sorted(p.relative_to(tmp_path)
                          for p in tmp_path.rglob("*")) == [
                Path(name) for name in ("deep.json", "kept", "kept/empty",
                                        "prepared.json",
                                        "prepared.json.manifest.json")]
        # a made directory that holds a file stays: the model goes into it,
        # then its manifest fails
        def no_manifest(*args):
            raise OSError("no room for the manifest")
        monkeypatch.setattr(cli, "_write_manifest", no_manifest)
        cfg = write_config(tmp_path, epochs=2, hidden_dim=4)
        model = tmp_path / "new" / "m.json"
        code, _, err = run(capsys, "train", "--data", prepared_path, "--task",
                           "rating", "--config", cfg, "--out", model)
        assert (code, err) == (1, "error: no room for the manifest\n")
        assert model.exists()

    def test_ctrl_c_is_one_line_and_removes_the_directories_main_made(
            self, prepared_path, tmp_path, capsys, monkeypatch):
        def interrupted(args, path):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "cmd_train", interrupted)
        code, out, err = run(capsys, "train", "--data", prepared_path,
                             "--task", "rating", "--out",
                             tmp_path / "new" / "sub" / "m.json")
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command",
                             ["prepare", "train", "evaluate", "reproduce"])
    def test_a_write_past_the_file_size_limit_keeps_the_earlier_output(
            self, ml100k_dir, prepared_path, tmp_path, capsys, command):
        cfg = write_config(tmp_path, epochs=2, seed=0, binarize_threshold=3.0)
        model = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path, "--task",
                           "ranking", "--config", cfg, "--out", model,
                           "--train-fraction", "0.8")
        assert code == 0, err

        def argv(out_dir: Path) -> tuple[list, Path]:
            return {
                "prepare": (["--raw", ml100k_dir, "--out", out_dir / "p.json"],
                            out_dir / "p.json"),
                "train": (["--data", prepared_path, "--task", "ranking",
                           "--config", cfg, "--out", out_dir / "m.json"],
                          out_dir / "m.json"),
                "evaluate": (["--model", model, "--data", prepared_path,
                              "--train-fraction", "0.8", "--seed", "0",
                              "--out", out_dir / "r.json"], out_dir / "r.json"),
                "reproduce": (["--table", "2", "--raw", ml100k_dir, "--seeds",
                               "1", "--config", cfg, "--out-dir", out_dir],
                              out_dir / "table2.csv")}[command]

        old = tmp_path / "old"
        flags, output = argv(old)
        code, _, err = run(capsys, command, *flags)
        assert code == 0, err
        before = {p: p.read_bytes() for p in old.iterdir()}
        assert sorted(before) == [output, Path(f"{output}.manifest.json")]
        # the limit binds the child only, and half the output exceeds it
        limit = output.stat().st_size // 2
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        for out_dir in (old, tmp_path / "new" / "sub"):
            flags, output = argv(out_dir)
            proc = subprocess.run(
                [sys.executable, "-m", "semiae.cli", command,
                 *map(str, flags)],
                env=env, capture_output=True, text=True, timeout=120,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE,
                                                      (limit, limit)))
            assert (proc.returncode, proc.stderr) == (
                1, f"error: [Errno 27] File too large: '{output}'\n")
        assert {p: p.read_bytes() for p in old.iterdir()} == before
        assert not (tmp_path / "new").exists()

    def test_a_write_failing_after_its_first_piece_keeps_the_earlier_model(
            self, files, tmp_path, capsys, monkeypatch):
        model = files["model"]
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        chunks = ds_mod._json_chunks

        def failing(doc):
            yield next(chunks(doc))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(ds_mod, "_json_chunks", failing)
        code, _, err = run(capsys, "train", "--data", files["data"], "--task",
                           "ranking", "--config", files["config"], "--out",
                           model)
        assert (code, err) == (
            1, f"error: [Errno 28] No space left on device: '{model}'\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestMalformedArtifacts:
    """A malformed model, prepared-data or config file is a one-line error
    naming the file (and a missing entry), not a traceback."""

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
                                      ("training_config_echo", "config")],
                             ids=["Q", "dims", "echo-config"])
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

    @pytest.mark.parametrize("edit", ["top-level-list", "unknown-config-key",
                                      "loss-history-text",
                                      "loss-history-null-and-text",
                                      "loss-history-huge-int",
                                      "huge-int-learning-rate", "huge-int-Q",
                                      "fraction-above-one",
                                      "huge-int-fraction", "text-Q",
                                      "boolean-p1", "flat-Q",
                                      "over-nested-Q1"])
    def test_malformed_model_document(self, ranking_model, prepared_path,
                                      tmp_path, capsys, edit):
        doc = json.loads(ranking_model.read_text())
        if edit == "top-level-list":
            doc, expected = [doc], "not a JSON object"
        elif edit == "unknown-config-key":
            doc["training_config_echo"]["config"]["momentum"] = 0.9
            expected = "momentum"
        elif edit == "huge-int-learning-rate":
            # an int past the largest float
            doc["training_config_echo"]["config"]["learning_rate"] = 10 ** 400
            expected = f"model echo: learning_rate must be finite, got {10 ** 400}"
        elif edit == "huge-int-Q":
            doc["Q"][0][0] = 10 ** 400
            expected = "model JSON: int too large to convert to float"
        elif edit == "text-Q":
            # a string that numpy would read as the number
            doc["Q"][0][0] = text = repr(doc["Q"][0][0])
            expected = f"model JSON: Q: {text!r} is not a number"
        elif edit == "boolean-p1":
            doc["p1"][0] = True
            expected = "model JSON: p1: True is not a number"
        elif edit == "flat-Q":
            # the numbers of Q, row after row, in one list
            doc["Q"] = [v for row in doc["Q"] for v in row]
            s, h = doc["dims"]["S"], doc["dims"]["H"]
            expected = f"model JSON: Q: shape ({s * h},) is not ({s}, {h})"
        elif edit == "over-nested-Q1":
            doc["Q1"] = [doc["Q1"]]
            h, d = doc["dims"]["H"], doc["dims"]["D"]
            expected = f"model JSON: Q1: shape (1, {h}, {d}) is not ({h}, {d})"
        elif edit in ("fraction-above-one", "huge-int-fraction"):
            # split takes a fraction in (0, 1) only
            fraction = 1.5 if edit == "fraction-above-one" else 10 ** 400
            doc["training_config_echo"]["train_fraction"] = fraction
            expected = (f"model echo: train_fraction must be null or a number "
                        f"in (0, 1), got {fraction}")
        else:
            # the fixture trains 2 epochs
            doc["training_config_echo"]["loss_history"] = {
                "loss-history-text": "abc",
                "loss-history-null-and-text": [1.0, None, "x"],
                "loss-history-huge-int": [1.0, 10 ** 400]}[edit]
            expected = ("model echo: loss_history must be a list of 2 finite "
                        "numbers, one per epoch")
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        for argv in (["evaluate", "--model", broken, "--data", prepared_path,
                      "--train-fraction", "0.8", "--seed", "0"],
                     ["recommend", "--model", broken, "--data", prepared_path,
                      "--user", "1", "--n", "3"]):
            code, _, err = run(capsys, *argv)
            self.assert_one_line_error(code, err, "broken.json", expected)

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

    @pytest.mark.parametrize("edit", ["top-level-list", "short-triple",
                                      "string-triple", "truncated",
                                      "short-item-map", "float-user-count",
                                      "three-entry-scale", "nan-rating",
                                      "infinite-rating", "rating-above-scale",
                                      "rating-below-scale", "schema-version",
                                      "user-past-count", "negative-item",
                                      "deeply-nested", "missing-year-list",
                                      "negative-missing-year",
                                      "boolean-missing-year",
                                      "user-past-int32", "user-below-int32",
                                      "timestamp-past-int64",
                                      "huge-int-rating", "huge-int-scale",
                                      "huge-int-user-side",
                                      "repeated-user-id", "text-item-id",
                                      "empty-item-map", "fractional-user",
                                      "fractional-timestamp",
                                      "boolean-rating", "text-user-side",
                                      "flat-user-side", "over-nested-item-side",
                                      "short-user-side"])
    def test_malformed_prepared_document(self, ranking_model, prepared_path,
                                         tmp_path, capsys, edit):
        text = prepared_path.read_text()
        doc = json.loads(text)
        if edit == "top-level-list":
            text, expected = "[]", "not a JSON object"
        elif edit == "truncated":
            text, expected = text[:1000], "not a valid JSON file"
        elif edit == "deeply-nested":
            text, expected = DEEPLY_NESTED, DEEPLY_NESTED_ERROR
        elif edit == "repeated-user-id":
            users = doc["id_maps"]["users"]
            users[3] = users[1]
            text = json.dumps(doc)
            expected = f"prepared data: user_ids holds {users[1]} more than once"
        elif edit == "text-item-id":
            doc["id_maps"]["items"][2] = "x"
            text = json.dumps(doc)
            expected = "prepared data: item_ids holds 'x', not an integer"
        elif edit == "empty-item-map":
            # an empty map stands for no ids only in library data
            doc["id_maps"]["items"] = []
            text = json.dumps(doc)
            expected = "prepared data: item_ids has 0 entries for 25 items"
        elif edit == "fractional-user":
            # numpy would read the index as its whole part
            doc["triples"][0][0] += 0.5
            text = json.dumps(doc)
            expected = (f"prepared data: triple user: {doc['triples'][0][0]} "
                        f"is not an integer")
        elif edit == "fractional-timestamp":
            doc["triples"][1][3] = float(doc["triples"][1][3])
            text = json.dumps(doc)
            expected = (f"prepared data: triple timestamp: "
                        f"{doc['triples'][1][3]} is not an integer")
        elif edit == "boolean-rating":
            doc["triples"][5][2] = True
            text = json.dumps(doc)
            expected = "prepared data: triple rating: True is not a number"
        elif edit == "text-user-side":
            doc["user_side_info"]["rows"][0][0] = "1"
            text = json.dumps(doc)
            expected = "prepared data: user_side_info rows: '1' is not a number"
        elif edit in ("flat-user-side", "over-nested-item-side",
                      "short-user-side"):
            kind = edit.split("-")[-2]
            side = doc[f"{kind}_side_info"]
            count, dim = len(side["rows"]), side["dim"]
            if edit == "flat-user-side":
                side["rows"] = [v for row in side["rows"] for v in row]
                got = f"({count * dim},)"
            elif edit == "over-nested-item-side":
                side["rows"] = [[row] for row in side["rows"]]
                got = f"({count}, 1, {dim})"
            else:
                # each row one entry short, so the side is one column narrower
                side["rows"] = [row[:-1] for row in side["rows"]]
                got = f"({count}, {dim - 1})"
            text = json.dumps(doc)
            expected = (f"prepared data: {kind}_side_info rows: shape {got} "
                        f"is not ({count}, {dim})")
        elif edit == "short-item-map":
            # the id map and the side rows agree but miss the last item
            doc["id_maps"]["items"].pop()
            doc["item_side_info"]["rows"].pop()
            text = json.dumps(doc)
            expected = "prepared data: item_ids has 24 entries for 25 items"
        elif edit == "float-user-count":
            doc["num_users"] = float(doc["num_users"])
            text = json.dumps(doc)
            expected = "prepared data: num_users must be an integer >= 0"
        elif edit == "three-entry-scale":
            doc["rating_scale"] = [1, 5, 9]
            text = json.dumps(doc)
            expected = "prepared data: rating_scale must be two finite numbers"
        elif edit in ("nan-rating", "infinite-rating"):
            # read_json takes the NaN and Infinity constants
            doc["triples"][5][2] = float("nan" if edit == "nan-rating" else "inf")
            text = json.dumps(doc)
            expected = "prepared data: ratings must be finite"
        elif edit == "schema-version":
            doc["schema_version"] = 99
            text = json.dumps(doc)
            expected = "prepared data: unsupported schema version 99"
        elif edit == "user-past-count":
            doc["triples"][5][0] = doc["num_users"]
            text = json.dumps(doc)
            expected = "prepared data: user index out of range"
        elif edit == "negative-item":
            doc["triples"][5][1] = -1
            text = json.dumps(doc)
            expected = "prepared data: item index out of range"
        elif edit in ("rating-above-scale", "rating-below-scale"):
            rating = 9.0 if edit == "rating-above-scale" else 0.5
            doc["triples"][5][2] = rating
            text = json.dumps(doc)
            expected = (f"prepared data: rating {rating} outside the "
                        f"rating_scale [1.0, 5.0]")
        elif "missing-year" in edit:
            count = {"missing-year-list": [1, "x"],
                     "negative-missing-year": -1,
                     "boolean-missing-year": True}[edit]
            doc["item_side_info"]["num_missing_year"] = count
            text = json.dumps(doc)
            expected = (f"prepared data: num_missing_year {count!r} is not a "
                        f"non-negative integer")
        elif edit in ("user-past-int32", "user-below-int32"):
            user = 2 ** 31 if edit == "user-past-int32" else -2 ** 31 - 1
            doc["triples"][5][0] = user
            text = json.dumps(doc)
            expected = (f"prepared data: Python integer {user} out of bounds "
                        f"for int32")
        elif edit == "timestamp-past-int64":
            doc["triples"][5][3] = 2 ** 63
            text = json.dumps(doc)
            expected = "prepared data: Python int too large to convert to C long"
        elif edit.startswith("huge-int"):
            # an int past the largest float
            if edit == "huge-int-rating":
                doc["triples"][5][2] = 10 ** 400
            elif edit == "huge-int-scale":
                doc["rating_scale"][1] = 10 ** 400
            else:
                doc["user_side_info"]["rows"][0][0] = 10 ** 400
            text = json.dumps(doc)
            expected = "prepared data: int too large to convert to float"
        else:
            doc["triples"][5] = doc["triples"][5][:3] if edit == "short-triple" \
                else "1234"
            text, expected = json.dumps(doc), "'triples'"
        broken = tmp_path / "broken_prepared.json"
        broken.write_text(text)
        for argv in (["train", "--data", broken, "--task", "rating",
                      "--out", tmp_path / "never.json"],
                     ["evaluate", "--model", ranking_model, "--data", broken,
                      "--train-fraction", "0.8", "--seed", "0"],
                     ["recommend", "--model", ranking_model, "--data", broken,
                      "--user", "1", "--n", "30"]):
            code, _, err = run(capsys, *argv)
            self.assert_one_line_error(code, err, "broken_prepared.json",
                                       expected)
        assert not (tmp_path / "never.json").exists()

    @pytest.mark.parametrize("edit", ["truncated", "dims-list", "echo-list",
                                      "echo-fraction-list",
                                      "echo-fraction-text", "null-config",
                                      "deeply-nested"])
    def test_malformed_model_file(self, ranking_model, prepared_path,
                                  tmp_path, capsys, edit):
        text = ranking_model.read_text()
        doc = json.loads(text)
        if edit == "truncated":
            text, expected = text[:1000], "not a valid JSON file"
        elif edit == "deeply-nested":
            text, expected = DEEPLY_NESTED, DEEPLY_NESTED_ERROR
        elif edit == "dims-list":
            doc["dims"] = [1, 2, 3]
            text, expected = json.dumps(doc), "model JSON"
        elif edit == "echo-list":
            doc["training_config_echo"] = []
            text, expected = json.dumps(doc), "'training_config_echo'"
        else:
            echo = doc["training_config_echo"]
            if edit.startswith("echo-fraction"):
                echo["train_fraction"] = [1] if edit.endswith("list") else "abc"
                expected = (f"train_fraction must be null or a number in "
                            f"(0, 1), got {echo['train_fraction']!r}")
            else:
                echo["config"], expected = None, "'config' is not an object"
            text, expected = json.dumps(doc), f"model echo: {expected}"
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        for argv in (["evaluate", "--model", broken, "--data", prepared_path,
                      "--train-fraction", "0.8", "--seed", "0"],
                     ["recommend", "--model", broken, "--data", prepared_path,
                      "--user", "1", "--n", "3"]):
            code, _, err = run(capsys, *argv)
            self.assert_one_line_error(code, err, "broken.json", expected)

    # a config has no schema version
    @pytest.mark.parametrize("flag, fault", [
        (flag, fault) for flag in ("--data", "--model", "--config")
        for fault in ("not-json", "top-level-list", "deeply-nested",
                      "schema-version")
        if (flag, fault) != ("--config", "schema-version")])
    def test_every_json_input_reads_through_one_envelope(
            self, ranking_model, prepared_path, tmp_path, capsys, flag, fault):
        part = {"--data": "prepared data", "--model": "model JSON",
                "--config": "config"}[flag]
        text, expected = {
            "not-json": ("{'epochs': 2}", "not a valid JSON file: Expecting "
                         "property name enclosed in double quotes: line 1 "
                         "column 2 (char 1)"),
            "top-level-list": ("[]", f"{part}: not a JSON object"),
            "deeply-nested": (DEEPLY_NESTED, DEEPLY_NESTED_ERROR),
            "schema-version": ('{"schema_version": true}',
                               f"{part}: unsupported schema version True"),
        }[fault]
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        if flag == "--config":
            argv = ["train", "--data", prepared_path, "--task", "ranking",
                    "--config", broken, "--out", tmp_path / "never.json"]
        else:
            argv = ["evaluate", "--train-fraction", "0.8", "--seed", "0",
                    "--model", broken if flag == "--model" else ranking_model,
                    "--data", broken if flag == "--data" else prepared_path]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {broken}: {expected}\n")

    def test_truncated_config_names_the_file(self, prepared_path, tmp_path,
                                             capsys):
        cfg = tmp_path / "cut.json"
        cfg.write_text('{"epochs": 2,')
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "rating", "--config", cfg,
                           "--out", tmp_path / "never.json")
        self.assert_one_line_error(code, err, "cut.json",
                                   "not a valid JSON file")

    @pytest.mark.parametrize("doc, expected", [
        ({"epochs": 2.5}, "epochs must be of type int, got 2.5"),
        ({"hidden_dim": 4.0}, "hidden_dim must be of type int, got 4.0"),
        ({"batch_size": 8.0}, "batch_size must be of type int, got 8.0"),
        ({"seed": 1.5}, "seed must be of type int, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"learning_rate": "0.1"},
         "learning_rate must be of type float, got '0.1'"),
        ({"binarize_threshold": "4"},
         "binarize_threshold must be of type float, got '4'"),
        ({"epochs": True}, "epochs must be of type int, got True"),
        ({"g": ["tanh"]}, "g must be of type str, got ['tanh']"),
        ({"binarize_comparison": "=="},
         "binarize_comparison must be one of ('>', '>='), got '=='"),
        ({"binarize_threshold": float("nan"), "epochs": 2},
         "binarize_threshold must be finite, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite, got inf"),
        ({"regularization": float("-inf")},
         "regularization must be finite, got -inf"),
        # an int past the largest float, as JSON may hold one
        ({"learning_rate": 10 ** 400},
         f"learning_rate must be finite, got {10 ** 400}"),
        ({"binarize_threshold": -10 ** 400},
         f"binarize_threshold must be finite, got {-10 ** 400}"),
        ([1], "not a JSON object"),
        # written as it is; the error is the file's, not the config's
        (DEEPLY_NESTED, DEEPLY_NESTED_ERROR),
        # {task} is the task the command requests
        *[({"task": task, "epochs": 2},
           f"config task {task!r} conflicts with requested task {{task!r}}")
          for task in (False, "", 0, None)]],
        ids=["epochs", "hidden_dim", "batch_size", "seed-float", "seed-negative",
             "learning_rate", "binarize_threshold", "epochs-bool", "g",
             "binarize_comparison", "binarize_threshold-nan",
             "learning_rate-inf", "regularization-minus-inf",
             "learning_rate-huge-int", "binarize_threshold-minus-huge-int",
             "top-level-list", "deeply-nested", "task-false", "task-empty",
             "task-zero", "task-null"])
    def test_malformed_config(self, ml100k_dir, prepared_path, tmp_path,
                              capsys, doc, expected):
        cfg = tmp_path / "bad_cfg.json"
        where = "" if isinstance(doc, str) else "config: "
        cfg.write_text(json.dumps(doc) if where else doc)
        for task, argv in (
                ("rating", ["train", "--data", prepared_path, "--task", "rating",
                            "--config", cfg, "--out", tmp_path / "never.json"]),
                ("ranking", ["reproduce", "--table", "2", "--raw", ml100k_dir,
                             "--seeds", "1", "--config", cfg,
                             "--out-dir", tmp_path / "never"])):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (
                1, f"error: {cfg}: {where}{expected.format(task=task)}\n")
        assert not (tmp_path / "never.json").exists()


class TestRemovedMaskedRankingLoss:
    """Every config and model file written while the masked ranking loss
    was a setting holds ``"mask_ranking_loss": false``: that entry is
    dropped, and any other value is a one-line error."""

    MESSAGE = ("mask_ranking_loss: the masked ranking loss was removed, and "
               "ranking measures every output")

    @pytest.mark.parametrize("task", ["ranking", "rating"])
    def test_a_false_entry_trains_and_evaluates_as_before(
            self, prepared_path, tmp_path, capsys, task):
        models = {}
        for name, old in (("new", {}), ("old", {"mask_ranking_loss": False})):
            cfg = write_config(tmp_path, f"{name}.cfg.json", epochs=2, seed=3,
                               hidden_dim=4, binarize_threshold=3.0, **old)
            models[name] = tmp_path / f"{name}.json"
            code, _, err = run(capsys, "train", "--data", prepared_path,
                               "--task", task, "--config", cfg,
                               "--out", models[name], "--train-fraction", "0.8")
            assert code == 0, err
        assert models["new"].read_bytes() == models["old"].read_bytes()
        # a model file as written before the entry went
        doc = json.loads(models["new"].read_text())
        doc["training_config_echo"]["config"]["mask_ranking_loss"] = False
        models["old"].write_text(json.dumps(doc))
        reports = []
        for model in models.values():
            code, out, err = run(capsys, "evaluate", "--model", model,
                                 "--data", prepared_path,
                                 "--train-fraction", "0.8", "--seed", "3")
            assert code == 0, err
            reports.append(out)
        assert reports[0] == reports[1]
        assert "mask_ranking_loss" not in reports[0]

    @pytest.mark.parametrize("value", [True, "no", 1])
    def test_any_other_value_is_a_one_line_error(
            self, prepared_path, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "bad.cfg.json", epochs=2,
                           mask_ranking_loss=value)
        never = tmp_path / "never.json"
        code, out, err = run(capsys, "train", "--data", prepared_path,
                             "--task", "ranking", "--config", cfg,
                             "--out", never)
        assert (code, out, err) == (1, "",
                                    f"error: {cfg}: config: {self.MESSAGE}\n")
        assert not never.exists()
        model = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--data", prepared_path,
                           "--task", "ranking", "--config",
                           write_config(tmp_path, epochs=2), "--out", model)
        assert code == 0, err
        doc = json.loads(model.read_text())
        doc["training_config_echo"]["config"]["mask_ranking_loss"] = value
        model.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", "--model", model,
                             "--data", prepared_path,
                             "--train-fraction", "0.8", "--seed", "0")
        assert (code, out, err) == (
            1, "", f"error: {model}: model echo: {self.MESSAGE}\n")


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

    def test_each_user_is_ranked_once_per_cell(self, ml100k_dir, monkeypatch):
        import semiae.trainer as trainer
        ranked = []
        original = trainer._rank_unconsumed

        def counted(scores, train, user, n):
            ranked.append((user, n))
            return original(scores, train, user, n)
        monkeypatch.setattr(trainer, "_rank_unconsumed", counted)
        prepared = load_raw_directory(ml100k_dir, "ml-100k")
        cfg = TrainConfig.from_dict({"epochs": 2, "seed": 2,
                                     "binarize_threshold": 3.0},
                                    task="ranking")
        metrics = run_cell(prepared, cfg, 0.3, 2)
        assert set(metrics) == {(m, f"recall@{n}") for n in (5, 10)
                                for m in ("semi-autoencoder", "most-popular")}
        # both Recall@N read each user's top-10 list, ranked once
        assert ranked == [(u, 10) for u in range(prepared.ratings.num_users)]
