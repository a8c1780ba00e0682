"""Shared helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from semiae.dataset import LAYOUTS, RatingDataset


def make_random_dataset(rng: np.random.Generator, num_users: int,
                        num_items: int, num_ratings: int,
                        integer_ratings: bool = True) -> RatingDataset:
    """A random explicit-rating dataset with distinct (user, item) pairs."""
    total = num_users * num_items
    num_ratings = min(num_ratings, total)
    flat = rng.choice(total, size=num_ratings, replace=False)
    users, items = np.divmod(np.sort(flat), num_items)
    if integer_ratings:
        ratings = rng.integers(1, 6, num_ratings).astype(np.float64)
    else:
        ratings = rng.uniform(1.0, 5.0, num_ratings)
    return RatingDataset(
        num_users=num_users,
        num_items=num_items,
        users=users.astype(np.int32),
        items=items.astype(np.int32),
        ratings=ratings,
        timestamps=rng.integers(8.7e8, 9e8, num_ratings),
    )


def built_input(ds, side, rows=None):
    """``build_vectors`` of the user rows ``rows`` (every user by default)
    into new input and mask buffers that start as NaN and True, so that
    every entry it leaves unwritten shows."""
    from semiae.dataset import build_vectors

    rows = (np.arange(ds.num_users) if rows is None
            else np.asarray(rows, np.intp))
    x = np.full((len(rows), ds.num_items + side.dim), np.nan)
    mask = np.ones((len(rows), ds.num_items), bool)
    build_vectors(ds, side, rows, x, mask)
    return x, mask


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, above
    what was traced before."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def find_real_data(name: str) -> Path | None:
    """Locate a real MovieLens directory (ml-100k or ml-1m), if present.

    Looks under $SEMIAE_DATA_DIR and ./data.  Returns None when the raw
    files are not on disk, so data-dependent tests can skip with a message.
    """
    candidates = []
    env = os.environ.get("SEMIAE_DATA_DIR")
    if env:
        candidates.append(Path(env) / name)
    candidates.append(Path(__file__).resolve().parents[1] / "data" / name)
    ratings_file = LAYOUTS[name]["ratings"][0]
    for cand in candidates:
        if (cand / ratings_file).exists():
            return cand
    return None


MISSING_DATA_MSG = (
    "real MovieLens data not found; place the extracted {name} directory "
    "under ./data/ or $SEMIAE_DATA_DIR (python3 tools/fetch_movielens.py "
    "downloads it on a networked machine)"
)


# --------------------------------------------------------------------------
# Independent oracles.  These deliberately avoid the library's forward/loss/
# gradient code paths so that agreement is evidence, not tautology.
# --------------------------------------------------------------------------

def reference_input(ds, side, orientation):
    """The network input ``cat(r; c)`` of every user (or item) row and the
    mask of its observed ratings, built as Python lists one triple at a
    time, without the library's builder."""
    by_user = orientation == "user"
    n, width = ((ds.num_users, ds.num_items) if by_user
                else (ds.num_items, ds.num_users))
    ratings = [[0.0] * width for _ in range(n)]
    observed = [[False] * width for _ in range(n)]
    for user, item, rating, _ in ds.triples():
        row, col = (user, item) if by_user else (item, user)
        ratings[row][col] = rating
        observed[row][col] = True
    x = [r + c for r, c in zip(ratings, side.rows.tolist())]
    return (np.array(x, np.float64).reshape(n, width + side.dim),
            np.array(observed, bool).reshape(n, width))


def finite_difference_grads(params, batch_x, targets, mask=None, reg=0.0,
                            eps=1e-5):
    """Central-difference gradients of the (masked) loss, coordinate by
    coordinate, from :func:`exact_loss`."""
    from dataclasses import replace

    def loss_of(p):
        return exact_loss(p, batch_x, targets, mask, reg)

    grads = {}
    for name in ("Q", "Q1", "p", "p1"):
        base = getattr(params, name)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus, minus = base.copy(), base.copy()
            plus[idx] += eps
            minus[idx] -= eps
            g[idx] = (loss_of(replace(params, **{name: plus}))
                      - loss_of(replace(params, **{name: minus}))) / (2 * eps)
        grads[name] = g
    return grads


def gradcheck_error(analytic, numeric):
    """Worst symmetric relative error, with a small floor for near-zero
    entries."""
    worst = 0.0
    for name in ("Q", "Q1", "p", "p1"):
        a = analytic[name]
        n = numeric[name]
        err = np.abs(a - n) / (np.abs(a) + np.abs(n) + 1e-3)
        worst = max(worst, float(err.max()))
    return worst


def reference_sigmoid(z):
    """The logistic function in its two-branch form, one element at a time:
    1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, so exp never
    overflows.  numpy's exp gives an element the same bits alone as in an
    array."""
    z = np.asarray(z, np.float64)
    flat = [1.0 / (1.0 + np.exp(-v)) if v >= 0
            else np.exp(v) / (1.0 + np.exp(v)) for v in z.ravel()]
    return np.array(flat, np.float64).reshape(z.shape)


_NAIVE_ACTS = {
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)),
                lambda z: np.exp(-z) / (1.0 + np.exp(-z)) ** 2),
    "tanh": (np.tanh, lambda z: 1.0 / np.cosh(z) ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
}


def classical_autoencoder(W, b, W1, b1, g_name, f_name, batch_x):
    """Plain three-layer autoencoder in column convention:

        h = g(W x + b),  x' = f(W1 h + b1),  loss = mean_rows ||x - x'||^2

    computed sample by sample with its own activation formulas and loop
    gradients.  W is (H, D), W1 is (D, H).
    """
    g, dg = _NAIVE_ACTS[g_name]
    f, df = _NAIVE_ACTS[f_name]
    n_rows = batch_x.shape[0]
    hidden, outputs = [], []
    d_w = np.zeros_like(W)
    d_b = np.zeros_like(b)
    d_w1 = np.zeros_like(W1)
    d_b1 = np.zeros_like(b1)
    total = 0.0
    for x in batch_x:
        z1 = W @ x + b
        h = g(z1)
        z2 = W1 @ h + b1
        xp = f(z2)
        hidden.append(h)
        outputs.append(xp)
        e = xp - x
        total += float(e @ e)
        dz2 = (2.0 / n_rows) * e * df(z2)
        d_w1 += np.outer(dz2, h)
        d_b1 += dz2
        dz1 = (W1.T @ dz2) * dg(z1)
        d_w += np.outer(dz1, x)
        d_b += dz1
    return (np.asarray(hidden), np.asarray(outputs), total / n_rows,
            d_w, d_b, d_w1, d_b1)


def brute_force_masked_loss(out, targets, mask, Q, Q1, reg):
    """Masked squared-error objective, one explicit term per observed entry.

    Terms are combined with math.fsum (exactly rounded), so the value does
    not depend on enumeration order and can be compared with ``==``.
    """
    import math

    n_rows = out.shape[0]
    terms = []
    for r in range(out.shape[0]):
        for c in range(out.shape[1]):
            if mask[r][c]:
                d = float(out[r][c]) - float(targets[r][c])
                terms.append(d * d)
    penalty = 0.0
    if reg != 0.0:
        sq = math.fsum(float(v) * float(v) for row in Q for v in row)
        sq1 = math.fsum(float(v) * float(v) for row in Q1 for v in row)
        penalty = 0.5 * reg * (sq + sq1)
    return math.fsum(terms) / n_rows + penalty


def exact_loss(params, batch_x, targets, mask=None, reg=0.0):
    """The training objective exactly rounded: the mean per-row squared
    error at the mask-true target positions (all of them without
    ``mask``), plus ``(reg/2)(||Q||^2 + ||Q1||^2)``.  The forward pass is
    plain expressions, and every sum goes through math.fsum, so the value
    is a function of the terms alone and can be compared with ``==``
    against any other exact accumulation."""
    import math

    from semiae.model import ACTIVATIONS

    def fsum(a):
        return math.fsum(np.ravel(a).tolist())

    g, f = ACTIVATIONS[params.g], ACTIVATIONS[params.f]
    hid = g.fn(batch_x @ params.Q + params.p)
    diff = f.fn(hid @ params.Q1 + params.p1) - targets
    if mask is not None:
        diff = diff * mask
    loss = fsum(diff * diff) / len(batch_x)
    if reg != 0.0:
        loss += 0.5 * reg * (fsum(params.Q * params.Q)
                             + fsum(params.Q1 * params.Q1))
    return loss


def reference_update(kind, eta, theta, slots, grads, t, beta1=0.9,
                     beta2=0.999, eps=1e-8, rho=0.9):
    """One optimizer step as plain expressions that return new arrays.

    ``theta`` and ``grads`` are (Q, Q1, p, p1); ``slots`` is the per-tensor
    accumulator list of the previous step, or None before the first.
    Returns ``(new theta, new slots)`` and mutates nothing.
    """
    new_theta, new_slots = [], []
    for k, (th, g) in enumerate(zip(theta, grads)):
        prev = slots[k] if slots is not None else {}
        if kind == "sgd":
            new_theta.append(th - g * eta)
            new_slots.append({})
        elif kind == "rmsprop":
            acc = g * (1.0 - rho) * g
            if "acc" in prev:
                acc = prev["acc"] * rho + acc
            new_theta.append(th - g * eta / np.sqrt(acc + eps))
            new_slots.append({"acc": acc})
        else:
            m = g * (1.0 - beta1)
            v = g * (1.0 - beta2) * g
            if "m" in prev:
                m = m + beta1 * prev["m"]
                v = v + beta2 * prev["v"]
            step = m / (1.0 - beta1 ** t) * eta
            new_theta.append(th - step / (np.sqrt(v / (1.0 - beta2 ** t))
                                          + eps))
            new_slots.append({"m": m, "v": v})
    return tuple(new_theta), new_slots


def reference_loss_and_gradients(params, batch_x, targets, mask, reg):
    """The loss and its gradients as plain expressions, one new array per
    intermediate, multiplying by every activation derivative."""
    from semiae.model import ACTIVATIONS

    g, f = ACTIVATIONS[params.g], ACTIVATIONS[params.f]
    b = batch_x.shape[0]
    z1 = batch_x @ params.Q + params.p
    hid = g.fn(z1)
    z2 = hid @ params.Q1 + params.p1
    diff = f.fn(z2) - targets
    if mask is not None:
        diff = diff * mask
    loss = float(np.sum(diff * diff)) / b
    if reg != 0.0:
        loss += 0.5 * reg * (float(np.sum(params.Q * params.Q))
                             + float(np.sum(params.Q1 * params.Q1)))
    d_z2 = (2.0 / b) * diff * f.deriv_at_value(f.fn(z2))
    d_z1 = (d_z2 @ params.Q1.T) * g.deriv_at_value(g.fn(z1))
    d_q = batch_x.T @ d_z1
    d_q1 = hid.T @ d_z2
    if reg != 0.0:
        d_q = d_q + reg * params.Q
        d_q1 = d_q1 + reg * params.Q1
    return loss, (d_q, d_q1, d_z1.sum(axis=0), d_z2.sum(axis=0))


def _scatter_rows(acc, rows, values):
    """``acc[rows[k]] += values[k]`` for each k in turn, on a C- or
    Fortran-contiguous 2-D ``acc``, through flat indices."""
    row_step, col_step = (stride // acc.itemsize for stride in acc.strides)
    flat = (rows * row_step)[:, None] + np.arange(acc.shape[1]) * col_step
    np.add.at(acc.ravel(order="K"), flat.ravel(), values.ravel())


def reference_sparse_step(params, at, cols, values, side_rows, reg):
    """``sparse_loss_and_gradients`` as it was first written, one new array
    per gradient: a scatter index built per scatter, ``T Q1^T`` scattered
    by ``np.add.at`` into zeros, and the L2 gradient added whole.  It does
    the same floating-point operations in the same order, so the step
    must equal it bit for bit.  Returns ``(loss, (dQ, dQ1, dp, dp1))``."""
    import math

    from semiae.model import ACTIVATIONS

    Q, Q1, p1 = params.Q, params.Q1, params.p1
    (h, d), b = Q1.shape, len(side_rows)
    g = ACTIVATIONS[params.g]
    cols = np.asarray(cols, np.intp)
    weight = values[:, None]
    z1 = side_rows @ Q[d:]
    _scatter_rows(z1, at, Q[cols] * weight)
    z1 += params.p
    hid = g.fn(z1, z1)
    t_q1 = np.zeros((b, h))
    _scatter_rows(t_q1, at, Q1.T[cols] * weight)
    q1_q1 = Q1 @ Q1.T
    q1_p1 = Q1 @ p1
    h_sum = hid.sum(axis=0)
    d_h = hid @ q1_q1
    loss = (float(np.sum(d_h * hid)) + 2.0 * float(h_sum @ q1_p1)
            + b * float(p1 @ p1)
            - 2.0 * (float(np.sum(hid * t_q1)) + float(values @ p1[cols]))
            + float(values @ values)) / b
    if math.isnan(loss) and all(np.isfinite(a).all()
                                for a in (Q, Q1, params.p, p1)):
        loss = math.inf
    if reg != 0.0:
        loss += 0.5 * reg * (float(np.sum(Q * Q)) + float(np.sum(Q1 * Q1)))
    d_h += q1_p1
    d_h -= t_q1
    d_h *= 2.0 / b
    d_z1 = d_h * g.deriv_at_value(hid)
    d_q1 = (hid.T @ hid) * (2.0 / b) @ Q1
    d_q1 += np.outer(h_sum * (2.0 / b), p1)
    minus = values * (-2.0 / b)
    _scatter_rows(d_q1.T, cols, hid[at] * minus[:, None])
    d_p1 = h_sum * (2.0 / b) @ Q1
    d_p1 += 2.0 * p1
    np.add.at(d_p1, cols, minus)
    d_q = np.zeros(Q.shape)
    d_q[d:] = side_rows.T @ d_z1
    _scatter_rows(d_q, cols, d_z1[at] * weight)
    if reg != 0.0:
        d_q += reg * Q
        d_q1 += reg * Q1
    return loss, (d_q, d_q1, d_z1.sum(axis=0), d_p1)


def _reference_fold(input_dim, output_dim, n, cfg, step):
    """Seeded mini-batch training as a functional fold of ``step(params,
    rows)``, which gives the loss and gradients of the batch of rows
    ``rows``, and :func:`reference_update`: the same generator draws,
    batches and arithmetic as the trainer.  Returns ``((Q, Q1, p, p1),
    loss history)``."""
    from dataclasses import replace

    from semiae.model import glorot_init

    rng = np.random.default_rng(cfg.seed)
    params = glorot_init(input_dim, cfg.hidden_dim, output_dim, cfg.g, cfg.f,
                         rng)
    theta, slots, t = (params.Q, params.Q1, params.p, params.p1), None, 0
    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        weighted = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            current = replace(params, Q=theta[0], Q1=theta[1], p=theta[2],
                              p1=theta[3])
            loss, grads = step(current, idx)
            t += 1
            theta, slots = reference_update(cfg.optimizer, cfg.learning_rate,
                                            theta, slots, grads, t)
            weighted += loss * len(idx)
        history.append(weighted / n)
    return theta, history


def reference_fit(x, targets, mask, cfg):
    """The trainer's run on the dense input rows ``x``, as a fold of
    :func:`reference_loss_and_gradients`."""
    def step(params, idx):
        return reference_loss_and_gradients(
            params, x[idx], targets[idx],
            mask[idx] if mask is not None else None, cfg.regularization)

    return _reference_fold(x.shape[1], targets.shape[1], len(x), cfg, step)


def reference_sparse_fit(train, side, cfg):
    """The trainer's unmasked run of an identity ``f`` on the user rows of
    ``train`` and ``side``, as a fold of :func:`reference_sparse_step`, each
    batch laid out by its own ``sparse_rows`` call."""
    from semiae.dataset import sparse_rows

    def step(params, idx):
        return reference_sparse_step(params, *sparse_rows(train, side, idx),
                                     cfg.regularization)

    return _reference_fold(train.num_items + side.dim, train.num_items,
                           train.num_users, cfg, step)


def reference_parse_ratings(path, sep: str):
    """What ``parse_ratings`` gives for the ratings file at ``path`` with
    the field separator ``sep``, read one line at a time: the text of its
    ParseError, or ``(users, items, ratings, timestamps, user_ids,
    item_ids)``.

    The file is Latin-1 with universal newlines.  A blank line is skipped.
    On the first faulty line, in this order: a field count other than 4, a
    non-ASCII field, a rating ``float`` cannot read or outside [1, 5], an
    id or timestamp ``int`` cannot read, then one outside int64.  With
    every line read, the first line whose (user, item) pair an earlier line
    has is an error naming both.  Raw ids map to 0-based indices in
    ascending order."""
    rows, first_on = [], {}
    with open(path, encoding="latin-1") as fh:
        for number, text in enumerate(fh, start=1):
            text = text.rstrip("\n")
            if not text:
                continue
            fields = text.split(sep)
            try:
                if len(fields) != 4:
                    raise ValueError(f"expected 4 {sep!r}-separated fields, "
                                     f"got {len(fields)}")
                for k, field in enumerate(fields):
                    if not field.isascii():
                        raise ValueError(f"non-ASCII character in numeric "
                                         f"field {k + 1}: {field!r}")
                rating = float(fields[2])
                if not 1.0 <= rating <= 5.0:
                    raise ValueError(f"rating {rating} outside [1, 5]")
                user, item, stamp = (int(fields[k]) for k in (0, 1, 3))
                for what, value in (("user id", user), ("item id", item),
                                    ("timestamp", stamp)):
                    if not -2 ** 63 <= value < 2 ** 63:
                        raise ValueError(f"{what} {value} does not fit in "
                                         f"64 bits")
            except ValueError as exc:
                return f"{path}:{number}: {exc}"
            rows.append((number, user, item, rating, stamp))
    for number, user, item, _, _ in rows:
        if (user, item) in first_on:
            return (f"{path}:{number}: duplicate (user, item) pair ({user}, "
                    f"{item}), first on line {first_on[user, item]}")
        first_on[user, item] = number
    user_ids = sorted({row[1] for row in rows})
    item_ids = sorted({row[2] for row in rows})
    return (np.array([user_ids.index(row[1]) for row in rows], np.int32),
            np.array([item_ids.index(row[2]) for row in rows], np.int32),
            np.array([row[3] for row in rows], np.float64),
            np.array([row[4] for row in rows], np.int64),
            tuple(user_ids), tuple(item_ids))
