"""Output checks computed apart from the program.

Everything here is plain numpy and never imports ``semiae``: the checks
compare the program's outputs with what the generator wrote, with the
benchmark's own forward pass, loss, split, tally and recall, or with
properties the method must have.  Each check raises :class:`CheckFailed`
with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's expectation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


# ---------------------------------------------------------------- parsing

def _one_hot(index: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((len(index), size))
    out[np.arange(len(index)), index] = 1.0
    return out


def check_parsed(view: dict, truth: dict) -> None:
    """Counts, id maps, triples and side-information rows equal the generator's.

    ``view`` holds the parsed dataset as arrays: ``user_ids``, ``item_ids``
    (index -> raw id), ``raw_user``/``raw_item``/``rating`` per triple,
    ``user_rows``, ``item_rows`` and ``num_missing_year``.
    """
    require(np.array_equal(view["user_ids"], np.unique(truth["raw_user"])),
            "user id map differs from the generated user ids")
    require(np.array_equal(view["item_ids"], np.unique(truth["raw_item"])),
            "item id map differs from the generated item ids")
    require(len(view["rating"]) == len(truth["rating"]),
            f"{len(view['rating'])} ratings parsed, {len(truth['rating'])} written")
    got = np.lexsort((view["raw_item"], view["raw_user"]))
    want = np.lexsort((truth["raw_item"], truth["raw_user"]))
    for key in ("raw_user", "raw_item", "rating"):
        require(np.array_equal(np.asarray(view[key])[got], truth[key][want]),
                f"parsed triples differ from the generated ones in {key}")
    user_pos = np.searchsorted(truth["user_ids"], view["user_ids"])
    want_users = np.hstack([_one_hot(truth["gender"], 2),
                            _one_hot(truth["occupation"], 21),
                            _one_hot(truth["age_bucket"], 7)])[user_pos]
    require(np.array_equal(view["user_rows"], want_users),
            "user profile one-hots differ from the generated profiles")
    item_pos = np.searchsorted(truth["item_ids"], view["item_ids"])
    want_items = np.hstack([truth["genres"], truth["year_scalar"][:, None]])[item_pos]
    require(np.array_equal(view["item_rows"], want_items),
            "item feature rows differ from the generated genres and years")
    require(view["num_missing_year"] == int((~truth["has_year"]).sum()),
            "count of items without a release year is wrong")


def prepared_view(doc: dict) -> dict:
    """The :func:`check_parsed` view of a prepared-data JSON document."""
    triples = np.asarray(doc["triples"], np.float64).reshape(-1, 4)
    users = np.asarray(doc["id_maps"]["users"], np.int64)
    items = np.asarray(doc["id_maps"]["items"], np.int64)
    return {
        "user_ids": users, "item_ids": items,
        "raw_user": users[triples[:, 0].astype(np.int64)],
        "raw_item": items[triples[:, 1].astype(np.int64)],
        "rating": triples[:, 2],
        "user_rows": np.asarray(doc["user_side_info"]["rows"], np.float64),
        "item_rows": np.asarray(doc["item_side_info"]["rows"], np.float64),
        "num_missing_year": doc["item_side_info"].get("num_missing_year", 0),
    }


# ------------------------------------------------------ split and binarize

def check_partition(full: tuple, train: tuple, test: tuple, num_items: int,
                    fraction: float) -> None:
    """``train`` and ``test`` (users, items, ratings) partition ``full``."""
    def keyed(triples):
        u, i, r = (np.asarray(a) for a in triples)
        keys = u.astype(np.int64) * num_items + i
        order = np.argsort(keys, kind="stable")
        return keys[order], np.asarray(r, np.float64)[order]

    full_keys, full_r = keyed(full)
    n = len(full_keys)
    require(len(train[0]) == round_half_up(fraction * n),
            f"train half holds {len(train[0])} of {n} ratings at fraction {fraction}")
    both = keyed(tuple(np.concatenate([a, b]) for a, b in zip(train, test)))
    require(np.array_equal(both[0], full_keys),
            "train and test halves are not a partition of the ratings")
    require(np.array_equal(both[1], full_r),
            "split halves carry ratings that differ from the input")


def check_binarized(source: tuple, result: tuple, threshold: float = 4.0) -> None:
    """``result`` keeps exactly the triples of ``source`` rated above
    ``threshold``, each with rating 1."""
    u, i, r = (np.asarray(a) for a in source)
    keep = r > threshold
    require(np.array_equal(np.asarray(result[0]), u[keep])
            and np.array_equal(np.asarray(result[1]), i[keep]),
            "binarized triples are not the likes of the input")
    require(np.all(np.asarray(result[2]) == 1.0), "binarized ratings are not all 1")


def own_split(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Triple indices of the seeded split the program documents: shuffle
    with ``default_rng(seed).permutation`` and keep the first round-half-up
    share as training data, both halves in input order."""
    perm = np.random.default_rng(seed).permutation(n)
    k = round_half_up(fraction * n)
    return np.sort(perm[:k]), np.sort(perm[k:])


# ------------------------------------------------------------ the network

_ACT = {
    "identity": lambda z: z,
    "sigmoid": lambda z: 0.5 * (1.0 + np.tanh(0.5 * z)),
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
}


def params_from_doc(doc: dict) -> dict:
    """Network parameters read straight from a model JSON document."""
    dims = doc["dims"]
    return {
        "Q": np.asarray(doc["Q"], np.float64).reshape(dims["S"], dims["H"]),
        "Q1": np.asarray(doc["Q1"], np.float64).reshape(dims["H"], dims["D"]),
        "p": np.asarray(doc["p"], np.float64).reshape(dims["H"]),
        "p1": np.asarray(doc["p1"], np.float64).reshape(dims["D"]),
        "g": doc["activations"]["g"], "f": doc["activations"]["f"],
    }


def own_forward(P: dict, x: np.ndarray) -> np.ndarray:
    hid = _ACT[P["g"]](x @ P["Q"] + P["p"])
    return _ACT[P["f"]](hid @ P["Q1"] + P["p1"])


def own_masked_loss(P: dict, x, targets, mask, reg: float) -> float:
    diff = (own_forward(P, x) - targets) * mask
    return (float(np.sum(diff * diff)) / x.shape[0]
            + 0.5 * reg * (float(np.sum(P["Q"] ** 2)) + float(np.sum(P["Q1"] ** 2))))


def dense_rows(rows, cols, values, row_ids, width: int) -> np.ndarray:
    """Dense matrix of the given rows (sorted ids), filled from (row, col,
    value) triples."""
    rows, cols, values = (np.asarray(a) for a in (rows, cols, values))
    out = np.zeros((len(row_ids), width))
    sel = np.isin(rows, row_ids)
    out[np.searchsorted(row_ids, rows[sel]), cols[sel]] = values[sel]
    return out


def check_gradient(P: dict, grads: dict, loss: float, x, targets, mask,
                   reg: float, rng: np.random.Generator) -> None:
    """The program's loss equals the benchmark's masked loss, and its
    gradient agrees with a central difference of that loss along a random
    direction."""
    own = own_masked_loss(P, x, targets, mask, reg)
    require(abs(own - loss) <= 1e-9 * max(1.0, abs(own)),
            f"loss {loss!r} differs from the recomputed masked loss {own!r}")
    names = ("Q", "Q1", "p", "p1")
    direction = {k: rng.standard_normal(P[k].shape) for k in names}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    eps = 1e-5
    shifted = [{**P, **{k: P[k] + s * eps * direction[k] / norm for k in names}}
               for s in (1.0, -1.0)]
    numeric = (own_masked_loss(shifted[0], x, targets, mask, reg)
               - own_masked_loss(shifted[1], x, targets, mask, reg)) / (2 * eps)
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in names) / norm
    require(abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic)),
            f"directional derivative {analytic!r} disagrees with the central "
            f"difference {numeric!r}")


def check_same_arrays(a: dict, b: dict, what: str) -> None:
    """Bit-identical arrays under every key of ``a``."""
    for key, arr in a.items():
        other = np.asarray(b[key])
        require(arr.shape == other.shape and arr.dtype == other.dtype
                and arr.tobytes() == other.tobytes(),
                f"{what}: array {key} is not bit-identical")


# ----------------------------------------------------------------- rating

def check_predictions(pred: np.ndarray, shape: tuple, lo: float = 1.0,
                      hi: float = 5.0) -> None:
    require(pred.shape == shape, f"predictions have shape {pred.shape}, want {shape}")
    require(bool(np.all(np.isfinite(pred))), "predictions are not all finite")
    require(bool(np.all((pred >= lo) & (pred <= hi))),
            f"predictions leave the rating scale [{lo}, {hi}]")


def own_item_predictions(P: dict, train: tuple, num_users: int,
                         item_rows: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Predicted rating rows for ``items`` from the training triples: the
    network on (item's ratings ++ features), the training mean for items
    with no training rating, clipped to [1, 5]."""
    users, train_items, ratings = (np.asarray(a) for a in train)
    x = np.hstack([dense_rows(train_items, users, ratings, items, num_users),
                   item_rows[items]])
    out = own_forward(P, x)
    empty = ~np.isin(items, train_items)
    out[empty, :] = float(np.mean(ratings))
    return np.clip(out, 1.0, 5.0)


def check_prediction_rows(pred: np.ndarray, own: np.ndarray, items) -> None:
    err = float(np.max(np.abs(pred[items] - own)))
    require(err <= 1e-8, f"predictions differ from the benchmark's forward pass by {err:g}")


def own_rmse(pred: np.ndarray, test: tuple) -> float:
    users, items, ratings = (np.asarray(a) for a in test)
    err = pred[items, users] - ratings
    return float(np.sqrt(np.mean(err * err)))


def check_close(value: float, want: float, what: str, rel: float = 1e-9) -> None:
    require(abs(value - want) <= rel * max(1.0, abs(want)),
            f"{what} is {value!r}, the benchmark computes {want!r}")


# ---------------------------------------------------------------- ranking

def consumed_sets(users, items) -> dict[int, set]:
    out: dict[int, set] = {}
    for u, i in zip(np.asarray(users).tolist(), np.asarray(items).tolist()):
        out.setdefault(u, set()).add(i)
    return out


def own_most_popular(train_items, num_items: int, consumed: set, n: int) -> list[int]:
    counts = np.bincount(np.asarray(train_items), minlength=num_items)
    order = np.lexsort((np.arange(num_items), -counts))
    return [int(i) for i in order if int(i) not in consumed][:n]


def check_most_popular(lists: dict, train: tuple, num_items: int, n: int) -> None:
    """Each list is the benchmark's own popularity tally, consumed items
    excluded and ties toward the lower item index."""
    counts = np.bincount(np.asarray(train[1]), minlength=num_items)
    order = [int(i) for i in np.lexsort((np.arange(num_items), -counts))]
    consumed = consumed_sets(train[0], train[1])
    for u, got in lists.items():
        mine = consumed.get(u, set())
        want = [i for i in order if i not in mine][:n]
        require(list(got)[:n] == want, f"most-popular list for user {u} differs from the tally")


def check_top_n(lists: dict, scores: np.ndarray, train: tuple, n: int,
                tol: float = 1e-9) -> None:
    """Each list holds n distinct unconsumed items that are the n highest
    under ``scores`` (the benchmark's forward pass), in order."""
    consumed = consumed_sets(train[0], train[1])
    num_items = scores.shape[1]
    for u, got in lists.items():
        got = list(got)[:n]
        mine = consumed.get(u, set())
        candidates = num_items - len(mine)
        require(len(got) == min(n, candidates), f"user {u}: list has {len(got)} items")
        require(len(set(got)) == len(got), f"user {u}: list repeats an item")
        require(not (set(got) & mine), f"user {u}: list holds a consumed item")
        s = scores[u]
        listed = s[got]
        require(bool(np.all(np.diff(listed) <= tol)), f"user {u}: list is not in score order")
        rest = np.ones(num_items, bool)
        rest[got] = False
        rest[list(mine)] = False
        if rest.any():
            require(float(listed.min()) >= float(s[rest].max()) - tol,
                    f"user {u}: an unlisted item scores above a listed one")


def own_recall(lists: dict, test: tuple, n: int) -> float:
    """Mean per-user Recall@n in percent over users with a test item."""
    relevant = consumed_sets(test[0], test[1])
    require(set(lists) == set(relevant),
            "lists do not cover exactly the users with a held-out like")
    total = 0.0
    for u in sorted(relevant):
        hits = sum(1 for i in list(lists[u])[:n] if i in relevant[u])
        total += hits / len(relevant[u])
    return 100.0 * total / len(relevant)


def own_user_scores(P: dict, train: tuple, profiles: np.ndarray) -> np.ndarray:
    """Reconstruction scores of every user from their training likes."""
    num_users, num_items = profiles.shape[0], P["Q1"].shape[1]
    x = np.zeros((num_users, num_items))
    x[np.asarray(train[0]), np.asarray(train[1])] = np.asarray(train[2])
    return own_forward(P, np.hstack([x, profiles]))


# -------------------------------------------------------------------- cli

def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_manifest(path: Path) -> None:
    """Every output a manifest names exists and has the recorded sha256."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    require(doc.get("outputs"), f"{path} names no outputs")
    for name, digest in doc["outputs"].items():
        require(Path(name).exists(), f"{path} names missing file {name}")
        require(sha256(Path(name)) == digest, f"{path}: sha256 of {name} does not match")
