"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criteria that score the real MovieLens benchmarks need the raw archives on
disk (./data/ml-100k, ./data/ml-1m or $SEMIAE_DATA_DIR); they skip with
download instructions otherwise.  Everything else runs unconditionally.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semiae.cli import main as cli_main, run_cell
from semiae.dataset import SideInfoMatrix, binarize, load_raw_directory, split
from semiae.evaluation import most_popular, recall_at_n
from semiae.model import (SemiAEParams, forward, glorot_init,
                          loss_and_gradients)
from semiae.trainer import (TrainConfig, TrainedModel, train_ranking,
                            train_rating, predict_ratings, recommend_top_n)
from util import (MISSING_DATA_MSG, brute_force_masked_loss,
                  classical_autoencoder, exact_loss, find_real_data,
                  finite_difference_grads, gradcheck_error,
                  make_random_dataset)

RNG = np.random.default_rng

SEEDS = (1, 2, 3, 4, 5)
RECALL_NS = (5, 10)


def criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# Real-data fixtures
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ml100k_prepared():
    path = find_real_data("ml-100k")
    if path is None:
        pytest.skip(MISSING_DATA_MSG.format(name="ml-100k"))
    return load_raw_directory(path, "ml-100k")


@pytest.fixture(scope="module")
def ml1m_prepared():
    path = find_real_data("ml-1m")
    if path is None:
        pytest.skip(MISSING_DATA_MSG.format(name="ml-1m"))
    return load_raw_directory(path, "ml-1m")


def rating_rmse(prepared, fraction: float, seed: int) -> float:
    cfg = TrainConfig.from_dict({"seed": seed}, task="rating")
    return run_cell(prepared, cfg, fraction, seed)["semi-autoencoder", "rmse"]


def ranking_recalls(prepared, fraction: float, seed: int):
    """(ours, most-popular) recall maps for one seeded split."""
    cfg = TrainConfig.from_dict({"seed": seed}, task="ranking")
    metrics = run_cell(prepared, cfg, fraction, seed)

    def recalls(method: str) -> dict:
        return {n: metrics[method, f"recall@{n}"] for n in RECALL_NS}

    return recalls("semi-autoencoder"), recalls("most-popular")


@pytest.fixture(scope="module")
def ranking30(ml100k_prepared):
    return [ranking_recalls(ml100k_prepared, 0.3, seed) for seed in SEEDS]


# --------------------------------------------------------------------------
# 1-2: rating reproduction on ml-100k
# --------------------------------------------------------------------------

def test_criterion_1_rating_rmse_80pct(ml100k_prepared):
    values = [rating_rmse(ml100k_prepared, 0.8, seed) for seed in SEEDS]
    mean = float(np.mean(values))
    criterion(1, "ml-100k rating RMSE, 80% train, 5 seeds", mean <= 0.92,
              f"mean={mean:.4f} per-seed={[round(v, 4) for v in values]} "
              f"target<=0.92 published=0.896")


def test_criterion_2_rating_rmse_50pct(ml100k_prepared):
    values = [rating_rmse(ml100k_prepared, 0.5, seed) for seed in SEEDS]
    mean = float(np.mean(values))
    criterion(2, "ml-100k rating RMSE, 50% train, 5 seeds", mean <= 0.95,
              f"mean={mean:.4f} per-seed={[round(v, 4) for v in values]} "
              f"target<=0.95 published=0.926")


# --------------------------------------------------------------------------
# 3-4: ranking reproduction and baseline sanity on ml-100k
# --------------------------------------------------------------------------

def test_criterion_3_ranking_recall_30pct(ranking30):
    ours5 = float(np.mean([o[5] for o, _ in ranking30]))
    ours10 = float(np.mean([o[10] for o, _ in ranking30]))
    beats = all(o[5] > p[5] and o[10] > p[10] for o, p in ranking30)
    ok = ours5 >= 8.5 and ours10 >= 13.5 and beats
    criterion(3, "ml-100k ranking recall, 30% train, 5 seeds", ok,
              f"recall@5={ours5:.3f} (>=8.5) recall@10={ours10:.3f} (>=13.5) "
              f"beats_baseline_every_seed={beats}")


def test_criterion_4_most_popular_sanity(ranking30):
    pop5 = float(np.mean([p[5] for _, p in ranking30]))
    pop10 = float(np.mean([p[10] for _, p in ranking30]))
    ok = abs(pop5 - 7.036) <= 1.0 and abs(pop10 - 11.297) <= 1.5
    criterion(4, "ml-100k most-popular recall sanity, 30% train", ok,
              f"recall@5={pop5:.3f} (7.036+-1.0) "
              f"recall@10={pop10:.3f} (11.297+-1.5)")


# --------------------------------------------------------------------------
# 5: ml-1m extended-scale run (informational RMSE, no gate)
# --------------------------------------------------------------------------

def test_criterion_5_ml1m_pipeline_runs(ml1m_prepared):
    value = rating_rmse(ml1m_prepared, 0.8, seed=1)
    criterion(5, "ml-1m rating pipeline runs end to end",
              np.isfinite(value),
              f"RMSE={value:.4f} (informational; published=0.858)")


# --------------------------------------------------------------------------
# 6: finite-difference gradient oracle
# --------------------------------------------------------------------------

def test_criterion_6_gradient_oracle():
    pairs = list(itertools.product(("identity", "sigmoid", "tanh"),
                                   ("identity", "sigmoid")))
    per_pair = 20
    failures = 0
    worst = 0.0
    for seed, (g, f) in enumerate(pairs):
        rng = RNG(600 + seed)
        for trial in range(per_pair):
            params = glorot_init(4, 3, 2, g, f, rng)
            x = rng.normal(size=(3, 4))
            t = rng.normal(size=(3, 2))
            mask = rng.random((3, 2)) < 0.7 if trial % 2 else None
            reg = 0.3 if trial % 3 == 0 else 0.0
            _, grads = loss_and_gradients(params, x, t, mask, reg)
            numeric = finite_difference_grads(params, x, t, mask, reg)
            err = gradcheck_error({"Q": grads.dQ, "Q1": grads.dQ1,
                                   "p": grads.dp, "p1": grads.dp1}, numeric)
            worst = max(worst, err)
            failures += err > 1e-4
    total = len(pairs) * per_pair
    criterion(6, "finite-difference gradient suite", failures == 0,
              f"{total - failures}/{total} instances within 1e-4, "
              f"worst={worst:.2e}")


# --------------------------------------------------------------------------
# 7: degenerate equivalence with a directly coded classical autoencoder
# --------------------------------------------------------------------------

def test_criterion_7_degenerate_equivalence():
    rng = RNG(123)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        h = int(rng.integers(1, d + 1))
        b = int(rng.integers(1, 4))
        g, f = rng.choice(["identity", "sigmoid", "tanh"], 2)
        params = glorot_init(d, h, d, g, f, rng)
        x = rng.normal(size=(b, d))
        hid, out = forward(params, x)
        loss, grads = loss_and_gradients(params, x, x)
        ref_h, ref_out, ref_loss, d_w, d_b, d_w1, d_b1 = \
            classical_autoencoder(params.Q.T.copy(), params.p.copy(),
                                  params.Q1.T.copy(), params.p1.copy(),
                                  g, f, x)

        def rel(a, ref):
            denom = np.maximum(np.abs(ref), 1e-300)
            return float(np.max(np.abs(a - ref) / np.maximum(denom, 1e-12)))

        worst = max(worst,
                    rel(hid, ref_h), rel(out, ref_out),
                    abs(loss - ref_loss) / max(abs(ref_loss), 1e-12),
                    rel(grads.dQ, d_w.T), rel(grads.dp, d_b),
                    rel(grads.dQ1, d_w1.T), rel(grads.dp1, d_b1))
    criterion(7, "zero-side-information network equals classical autoencoder",
              worst <= 1e-12, f"50 instances, worst relative error={worst:.2e}")


# --------------------------------------------------------------------------
# 8: masked loss against brute-force summation on every 3x3 mask
# --------------------------------------------------------------------------

def test_criterion_8_masked_loss_brute_force():
    rng = RNG(321)
    params = glorot_init(3, 2, 3, "sigmoid", "identity", rng)
    x = rng.normal(size=(3, 3))
    t = rng.integers(1, 6, (3, 3)).astype(float)
    _, out = forward(params, x)
    mismatches = 0
    worst = 0.0  # the training step's, summed in floating point
    for bits in range(512):
        mask = np.array([(bits >> k) & 1 for k in range(9)],
                        bool).reshape(3, 3)
        for reg in (0.0, 0.1):
            brute = brute_force_masked_loss(out, t, mask, params.Q,
                                            params.Q1, reg)
            mismatches += exact_loss(params, x, t, mask, reg) != brute
            step = loss_and_gradients(params, x, t, mask, reg)[0]
            worst = max(worst, abs(step - brute) / brute if brute
                        else abs(step))
    criterion(8, "masked loss equals brute force on all 512 masks",
              mismatches == 0 and worst <= 1e-15,
              f"{mismatches} mismatches across 1024 checks, training step "
              f"worst relative error={worst:.2e}")


# --------------------------------------------------------------------------
# 9: byte-identical reproduce output
# --------------------------------------------------------------------------

def test_criterion_9_reproduce_determinism(tmp_path):
    path = find_real_data("ml-100k")
    if path is None:
        pytest.skip(MISSING_DATA_MSG.format(name="ml-100k"))
    blobs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli_main(["reproduce", "--table", "2", "--raw", str(path),
                         "--seeds", "7", "--out-dir", str(out_dir)])
        assert code == 0
        blobs.append((out_dir / "table2.csv").read_bytes())
    criterion(9, "two reproduce runs emit byte-identical CSVs",
              blobs[0] == blobs[1], f"{len(blobs[0])} bytes each")


# --------------------------------------------------------------------------
# 10: randomized property suites, >= 200 instances each
# --------------------------------------------------------------------------

def criterion_10(name: str, **strategies):
    """The test that ``check`` holds on 200 hypothesis examples drawn from
    ``strategies``, and prints criterion 10's ``name`` line."""
    def wrap(check):
        holds = settings(max_examples=200, deadline=None)(
            given(**strategies)(check))

        def test():
            holds()
            criterion(10, f"{name} property (200 instances)", True)
        return test
    return wrap


@st.composite
def random_datasets(draw, users, items, least=1, most=None):
    """``make_random_dataset`` of a user count from ``users``, an item count
    from ``items`` and ``least`` to ``most`` (default all) ratings."""
    m, n = draw(st.sampled_from(users)), draw(st.sampled_from(items))
    count = draw(st.integers(least, m * n if most is None else most))
    return make_random_dataset(RNG(draw(st.integers(0, 2 ** 32))), m, n, count)


@criterion_10("split completeness",
              ds=random_datasets(range(2, 12), range(2, 12), least=2),
              fraction=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 30))
def test_criterion_10a_split_completeness(ds, fraction, seed):
    train, test = split(ds, fraction, seed=seed)
    keys = lambda d: set(zip(d.users.tolist(), d.items.tolist()))
    assert keys(train) | keys(test) == keys(ds)
    assert not keys(train) & keys(test)
    assert len(train) + len(test) == len(ds)


@criterion_10("recall monotonicity",
              ds=random_datasets([6], [9], least=8, most=39),
              ranking=st.lists(st.permutations(range(9)), min_size=6,
                               max_size=6))
def test_criterion_10b_recall_monotone_in_n(ds, ranking):
    test = binarize(ds, 3.0)
    assume(len(test))
    values = [recall_at_n(lambda u: ranking[u], test, n) for n in range(0, 10)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@criterion_10("exclusion soundness",
              ds=random_datasets(range(2, 8), range(2, 10)), data=st.data())
def test_criterion_10c_exclusion_soundness(ds, data):
    m, n = ds.num_users, ds.num_items
    btrain = binarize(ds, 2.0)
    # scores from a small set, so that ties are common
    scores = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from(
        (-1.0, 0.0, 0.5, 2.0))))
    params = SemiAEParams(Q=np.zeros((n + 1, 1)), Q1=np.zeros((1, n)),
                          p=np.zeros(1), p1=scores, g="identity", f="identity")
    model = TrainedModel(params, (0.0,), TrainConfig.defaults("ranking"))
    profiles = SideInfoMatrix(np.ones((m, 1)), ("c",))
    user = data.draw(st.integers(0, m - 1))
    consumed = set(btrain.items[btrain.users == user].tolist())
    for rec in (recommend_top_n(model, btrain, profiles, user, n),
                most_popular(btrain, user, n)):
        assert not set(rec) & consumed


@criterion_10("no-test-leakage",
              ds=random_datasets(range(3, 7), range(3, 7), least=4),
              task=st.sampled_from(("rating", "ranking")), data=st.data())
def test_criterion_10d_no_test_leakage(ds, task, data):
    m, n = ds.num_users, ds.num_items
    train, _ = split(ds, 0.6, seed=data.draw(st.integers(0, 199)))
    cfg = TrainConfig(task=task, hidden_dim=2, learning_rate=0.01,
                      regularization=0.0, optimizer="sgd", g="identity",
                      f="identity", epochs=2, batch_size=8, seed=9)
    if task == "rating":
        features = SideInfoMatrix(RNG(n).random((n, 1)), ("a",))
        m1, m2 = (train_rating(train, features, cfg) for _ in range(2))
        np.testing.assert_array_equal(predict_ratings(m1, train, features),
                                      predict_ratings(m2, train, features))
    else:
        profiles = SideInfoMatrix(RNG(m).random((m, 1)), ("a",))
        btrain = binarize(train, 2.0)
        if len(btrain) == 0:
            # no training rating above 2: the one error, not a model
            with pytest.raises(ValueError, match="^cannot train on an empty "
                                                 "training set$"):
                train_ranking(btrain, profiles, cfg)
            return
        r1, r2 = (train_ranking(btrain, profiles, cfg) for _ in range(2))
        user = data.draw(st.integers(0, m - 1))
        assert recommend_top_n(r1, btrain, profiles, user, 3) == \
            recommend_top_n(r2, btrain, profiles, user, 3)
