"""Seeded MovieLens-shaped input generator owned by the benchmark.

Writes the raw ml-100k (``u.data``/``u.user``/``u.item``) and ml-1m
(``ratings.dat``/``users.dat``/``movies.dat``) layouts at the real archive
shapes, and returns what it wrote as plain arrays (the "truth") so that the
benchmark can check the parser against it.  It never imports ``semiae``: a
change to the program's own synthetic generator cannot change the workloads.

Shape of the data:

* every user rates at least 20 items, with a heavy-tailed (log-normal)
  number of ratings beyond that, as in the real archives;
* item popularity is Zipf-like, and every item is rated at least once, so
  the parser sees exactly the archive's item count;
* rating values follow the real archive's histogram exactly: a latent score
  (user and item biases plus a low-rank term partly driven by genres and
  profiles) is ranked and cut at the archive's cumulative rating counts.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

# Rating counts per value 1..5 in the real archives.
SHAPES = {
    "ml-100k": {"users": 943, "items": 1682, "item_id_span": 1682,
                "histogram": (6110, 11370, 27145, 34174, 21201)},
    "ml-1m": {"users": 6040, "items": 3706, "item_id_span": 3952,
              "histogram": (56174, 107557, 261197, 348971, 226310)},
}

ML100K_OCCUPATIONS = (
    "administrator", "artist", "doctor", "educator", "engineer",
    "entertainment", "executive", "healthcare", "homemaker", "lawyer",
    "librarian", "marketing", "none", "other", "programmer", "retired",
    "salesman", "scientist", "student", "technician", "writer",
)
ML1M_GENRES = (
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
NUM_ML100K_GENRES = 19          # u.item carries an extra "unknown" flag first
ML1M_AGE_CODES = (1, 18, 25, 35, 45, 50, 56)
AGE_BUCKET_STARTS = (18, 25, 35, 45, 50, 56)   # bucket k+1 starts at entry k
MIN_RATINGS_PER_USER = 20
LATENT_DIM = 8


def _user_counts(rng, num_users: int, total: int, cap: int) -> np.ndarray:
    """Ratings per user: 20 plus a log-normal share of the rest, summing to total."""
    weights = rng.lognormal(0.0, 1.0, num_users)
    extra_total = total - MIN_RATINGS_PER_USER * num_users
    counts = np.full(num_users, MIN_RATINGS_PER_USER, np.int64)
    remaining = extra_total
    open_users = np.ones(num_users, bool)
    while remaining > 0:
        share = weights * open_users
        share = share / share.sum() * remaining
        add = np.minimum(np.floor(share).astype(np.int64), cap - counts)
        counts += add
        remaining -= int(add.sum())
        open_users &= counts < cap
        if remaining and add.sum() == 0:
            # hand out the last few ratings one at a time, heaviest users first
            order = np.argsort(-(weights * open_users), kind="stable")
            take = order[:remaining]
            counts[take] += 1
            remaining = 0
    return counts


def _sample_pairs(rng, counts: np.ndarray, num_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (user, item) pairs: each user draws counts[u] items without
    replacement, biased toward popular items, and every item appears once at least."""
    num_users = len(counts)
    ranks = rng.permutation(num_items)
    log_w = -1.1 * np.log(ranks + 25.0)
    # one forced rating per item, given to users in proportion to their counts
    cover_user = rng.choice(num_users, size=num_items, p=counts / counts.sum())
    forced = np.zeros((num_users, num_items), bool)
    forced[cover_user, np.arange(num_items)] = True
    if np.any(forced.sum(axis=1) > counts):
        raise RuntimeError("coverage assignment exceeds a user's rating count")
    users, items = [], []
    chunk = 256
    for start in range(0, num_users, chunk):
        stop = min(start + chunk, num_users)
        keys = log_w + rng.gumbel(size=(stop - start, num_items))
        keys[forced[start:stop]] = np.inf
        order = np.argsort(-keys, axis=1, kind="stable")
        for row, u in enumerate(range(start, stop)):
            picked = np.sort(order[row, :counts[u]])
            users.append(np.full(len(picked), u, np.int64))
            items.append(picked)
    return np.concatenate(users), np.concatenate(items)


def _ratings(rng, users, items, user_feat, item_feat, histogram) -> np.ndarray:
    """Rank a latent score and cut it at the archive's rating counts."""
    k = LATENT_DIM
    u_vec = user_feat @ rng.normal(0, 0.5, (user_feat.shape[1], k)) \
        + rng.normal(0, 0.7, (user_feat.shape[0], k))
    i_vec = item_feat @ rng.normal(0, 0.5, (item_feat.shape[1], k)) \
        + rng.normal(0, 0.7, (item_feat.shape[0], k))
    u_bias = rng.normal(0, 0.6, user_feat.shape[0])
    i_bias = rng.normal(0, 0.8, item_feat.shape[0])
    score = (u_bias[users] + i_bias[items]
             + np.einsum("nk,nk->n", u_vec[users], i_vec[items]) / np.sqrt(k)
             + rng.normal(0, 0.8, len(users)))
    order = np.argsort(score, kind="stable")
    values = np.repeat(np.arange(1, 6), histogram)
    ratings = np.empty(len(users), np.int64)
    ratings[order] = values
    return ratings


def _age_bucket(age: np.ndarray) -> np.ndarray:
    return np.searchsorted(AGE_BUCKET_STARTS, age, side="right")


def _one_hot(index: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((len(index), size))
    out[np.arange(len(index)), index] = 1.0
    return out


def generate(fmt: str, seed: int) -> dict:
    """All arrays of one generated dataset (no files written)."""
    shape = SHAPES[fmt]
    rng = np.random.default_rng([seed, 0 if fmt == "ml-100k" else 1])
    num_users, num_items = shape["users"], shape["items"]
    total = int(sum(shape["histogram"]))

    gender = (rng.random(num_users) < 0.71).astype(np.int64)  # 0 = F, 1 = M
    occupation = rng.integers(0, 21, num_users)
    if fmt == "ml-100k":
        age = np.clip(np.rint(rng.normal(33, 12, num_users)), 7, 73).astype(np.int64)
        age_bucket = _age_bucket(age)
    else:
        age_bucket = rng.choice(7, size=num_users,
                                p=(0.04, 0.18, 0.35, 0.19, 0.09, 0.08, 0.07))
        age = np.asarray(ML1M_AGE_CODES)[age_bucket]
    zips = rng.integers(10000, 99999, num_users)

    num_genres = NUM_ML100K_GENRES if fmt == "ml-100k" else len(ML1M_GENRES)
    genres = np.zeros((num_items, num_genres))
    for i in range(num_items):
        genres[i, rng.choice(num_genres, size=int(rng.integers(1, 4)),
                             replace=False)] = 1.0
    year = rng.integers(1919, 2001 if fmt == "ml-1m" else 1999, num_items)
    has_year = np.ones(num_items, bool)
    if fmt == "ml-100k":
        has_year[rng.integers(0, num_items)] = False  # like item 267 of ml-100k
    item_ids = np.sort(rng.choice(np.arange(1, shape["item_id_span"] + 1),
                                  size=num_items, replace=False))
    user_ids = np.arange(1, num_users + 1)

    counts = _user_counts(rng, num_users, total, cap=int(0.6 * num_items))
    u_idx, i_idx = _sample_pairs(rng, counts, num_items)
    user_feat = np.hstack([_one_hot(gender, 2), _one_hot(occupation, 21),
                           _one_hot(age_bucket, 7)])
    ratings = _ratings(rng, u_idx, i_idx, user_feat, genres, shape["histogram"])
    stamps = rng.integers(874_724_710, 1_046_454_590, total)
    if fmt == "ml-100k":
        order = rng.permutation(total)   # u.data is in no particular order
    else:
        order = np.lexsort((stamps, u_idx))  # ratings.dat is grouped by user
    year_scalar = np.where(has_year, np.clip((year - 1900) / 100.0, 0.0, 1.0), 0.0)
    return {
        "raw_user": user_ids[u_idx][order], "raw_item": item_ids[i_idx][order],
        "rating": ratings[order], "timestamp": stamps[order],
        "user_ids": user_ids, "gender": gender, "occupation": occupation,
        "age": age, "age_bucket": age_bucket, "zip": zips,
        "item_ids": item_ids, "genres": genres, "year": year,
        "has_year": has_year, "year_scalar": year_scalar,
    }


def _write_lines(path: Path, lines, encoding: str) -> None:
    with open(path, "w", encoding=encoding, newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_raw(out_dir: Path, fmt: str, truth: dict) -> None:
    """Write the raw archive layout for ``fmt`` from generated arrays."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = [truth[k].tolist() for k in ("raw_user", "raw_item", "rating", "timestamp")]
    users = zip(truth["user_ids"].tolist(), truth["gender"].tolist(),
                truth["occupation"].tolist(), truth["age"].tolist(),
                truth["zip"].tolist())
    items = list(zip(truth["item_ids"].tolist(), truth["year"].tolist(),
                     truth["has_year"].tolist(),
                     truth["genres"].astype(int).tolist()))
    if fmt == "ml-100k":
        _write_lines(out_dir / "u.data",
                     (f"{u}\t{i}\t{r}\t{t}" for u, i, r, t in zip(*cols)), "ascii")
        _write_lines(out_dir / "u.user",
                     (f"{u}|{a}|{'FM'[g]}|{ML100K_OCCUPATIONS[o]}|{z}"
                      for u, g, o, a, z in users), "ascii")
        _write_lines(out_dir / "u.item",
                     (f"{i}|Movie {i} ({y if h else 'unknown'})|"
                      f"{f'01-Jan-{y}' if h else ''}||"
                      f"http://example.org/movie/{i}|{'|'.join(map(str, flags))}"
                      for i, y, h, flags in items), "latin-1")
    else:
        _write_lines(out_dir / "ratings.dat",
                     (f"{u}::{i}::{r}::{t}" for u, i, r, t in zip(*cols)), "latin-1")
        _write_lines(out_dir / "users.dat",
                     (f"{u}::{'FM'[g]}::{a}::{o}::{z}" for u, g, o, a, z in users),
                     "latin-1")
        _write_lines(out_dir / "movies.dat",
                     (f"{i}::Movie {i} ({y})::"
                      f"{'|'.join(ML1M_GENRES[k] for k, f in enumerate(flags) if f)}"
                      for i, y, _, flags in items), "latin-1")


def cached_inputs(cache_root: Path, fmt: str, seed: int, keep: int = 4) -> tuple[Path, dict]:
    """Raw directory and truth for (fmt, seed), generating them on a miss.

    Entries are written to a temporary name and renamed when complete, and
    only the ``keep`` most recently used entries per format are kept.
    """
    cache_root.mkdir(parents=True, exist_ok=True)
    entry = cache_root / f"{fmt}-seed{seed}"
    truth_path = entry / "truth.npz"
    if not truth_path.exists():
        tmp = cache_root / f".tmp-{fmt}-seed{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        truth = generate(fmt, seed)
        write_raw(tmp / "raw", fmt, truth)
        np.savez(tmp / "truth.npz", **truth)
        shutil.rmtree(entry, ignore_errors=True)
        tmp.rename(entry)
    os.utime(entry)
    siblings = sorted((p for p in cache_root.glob(f"{fmt}-seed*") if p != entry),
                      key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in siblings[keep - 1:]:
        shutil.rmtree(stale, ignore_errors=True)
    with np.load(truth_path) as data:
        truth = {k: data[k] for k in data.files}
    return entry / "raw", truth
