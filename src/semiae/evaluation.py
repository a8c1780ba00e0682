"""Metrics (RMSE, Recall@N) and the deterministic most-popular baseline.

A top-n list is read from a short ranked head and drops the user's
consumed items from it.  The most-popular list takes the first
``n + |consumed|`` entries of the dataset's cached popularity order, so it
makes no pass over the items and costs O(n + |consumed|) per user.  A list
from scores (the semi-autoencoder's) partitions every score once at the
``n + |consumed|``-th best and sorts only the items at or above that
cut-off.  Those scores come from :mod:`semiae.trainer`, which runs one
forward pass per chunk of 256 users and ranks each user once per model,
data and n, so the Recall@N passes over one model share its lists.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .dataset import RatingDataset


def rmse(predictions: np.ndarray, test: RatingDataset) -> float:
    """Root mean square error over the held-out observed triples.

    ``predictions`` is item-major (num_items x num_users), the layout
    produced by :func:`semiae.trainer.predict_ratings`.
    """
    if len(test) == 0:
        raise ValueError("cannot compute RMSE on an empty test set")
    if predictions.shape != (test.num_items, test.num_users):
        raise ValueError(
            f"predictions shape {predictions.shape} does not match "
            f"(num_items={test.num_items}, num_users={test.num_users})")
    err = predictions[test.items, test.users] - test.ratings
    return float(np.sqrt(np.mean(err * err)))


def recall_at_n(recommender: Callable[[int], Iterable[int]],
                test: RatingDataset, n: int) -> float:
    """Mean per-user Recall@N as a percentage, over users with test items.

    ``recommender(user)`` must yield ranked item indices (at least ``n`` of
    them, when that many candidates exist); it is called once per user, in
    ascending user order.  Users with no relevant test item are excluded
    from the mean; if no user qualifies that is an error.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    indptr, items, _ = test.by_user
    users = np.flatnonzero(np.diff(indptr)).tolist()
    if not users:
        raise ValueError("no user has a relevant test item")
    total = 0.0
    for u in users:
        relevant = set(items[indptr[u]:indptr[u + 1]].tolist())
        top = list(recommender(u))[:n]
        hits = sum(1 for i in top if i in relevant)
        total += hits / len(relevant)
    return 100.0 * total / len(users)


def most_popular(train: RatingDataset, user: int, n: int) -> list[int]:
    """Rank items by training interaction count; no randomness anywhere.

    The user's own training items are excluded and ties break toward the
    lower item index.
    """
    if not 0 <= user < train.num_users:
        raise ValueError(f"user index {user} out of range")
    if n < 0:
        raise ValueError("n must be >= 0")
    consumed = train.user_slice(user)[0]
    return _unconsumed(train.popularity[:n + len(consumed)], consumed, n)


def _unconsumed(ranked: np.ndarray, consumed: np.ndarray, n: int) -> list[int]:
    """The first ``n`` items of ``ranked`` that are not in ``consumed``."""
    drop = set(consumed.tolist())
    return [i for i in ranked.tolist() if i not in drop][:n]


def _rank_unconsumed(scores: np.ndarray, train: RatingDataset, user: int,
                     n: int) -> list[int]:
    """The ``n`` best-scoring items the user has no training triple for, in
    descending score order; ties break toward the lower item index and NaN
    scores rank last.

    At most ``|consumed|`` of the ``n + |consumed|`` best items are the
    user's own, so only the items at or above that cut-off are sorted.
    """
    consumed = train.user_slice(user)[0]
    neg = -scores
    k = n + len(consumed)
    # a stable sort keeps equal scores in ascending item order
    if 0 < k < len(neg):
        cut = np.partition(neg, kth := k - 1)[kth]
        if not np.isnan(cut):  # a NaN cut-off: fewer than k numbers, sort all
            head = np.flatnonzero(neg <= cut)
            return _unconsumed(head[np.argsort(neg[head], kind="stable")],
                               consumed, n)
    return _unconsumed(np.argsort(neg, kind="stable"), consumed, n)
