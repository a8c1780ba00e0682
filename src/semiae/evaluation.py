"""Metrics (RMSE, Recall@N) and the deterministic most-popular baseline."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .dataset import RatingDataset


@dataclass(frozen=True)
class EvalReport:
    """Task metrics with run metadata.

    ``rmse`` is set for the rating task; ``recall`` (a map N -> percentage)
    for the ranking task.
    """

    task: str
    rmse: float | None = None
    recall: dict[int, float] | None = None
    num_evaluated_users: int = 0
    config_echo: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.task == "rating" and self.rmse is None:
            raise ValueError("rating report needs an rmse value")
        if self.task == "ranking" and self.recall is None:
            raise ValueError("ranking report needs recall values")
        if self.recall is not None:
            for n, value in self.recall.items():
                if not 0.0 <= value <= 100.0:
                    raise ValueError(f"recall@{n}={value} outside [0, 100]")

    def to_dict(self) -> dict:
        doc: dict = {"task": self.task,
                     "num_evaluated_users": self.num_evaluated_users,
                     "config_echo": self.config_echo, "seed": self.seed}
        if self.rmse is not None:
            doc["rmse"] = self.rmse
        if self.recall is not None:
            doc["recall"] = {str(n): v for n, v in self.recall.items()}
        return doc

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, separators=(",", ":"))


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
    them, when that many candidates exist).  Users with no relevant test
    item are excluded from the mean; if no user qualifies that is an error.
    """
    relevant: dict[int, set[int]] = {}
    for u, i in zip(test.users.tolist(), test.items.tolist()):
        relevant.setdefault(u, set()).add(i)
    if not relevant:
        raise ValueError("no user has a relevant test item")
    total = 0.0
    for u in sorted(relevant):
        top = list(recommender(u))[:n]
        hits = sum(1 for i in top if i in relevant[u])
        total += hits / len(relevant[u])
    return 100.0 * total / len(relevant)


def num_users_with_test_items(test: RatingDataset) -> int:
    """How many users hold at least one held-out (relevant) item."""
    return len(np.unique(test.users))


def most_popular(train: RatingDataset, user: int, n: int) -> list[int]:
    """Rank items by training interaction count; no randomness anywhere.

    The user's own training items are excluded and ties break toward the
    lower item index.
    """
    if not 0 <= user < train.num_users:
        raise ValueError(f"user index {user} out of range")
    if n < 0:
        raise ValueError("n must be >= 0")
    counts = np.bincount(train.items, minlength=train.num_items)
    return _rank_unconsumed(counts, train, user, n)


def _rank_unconsumed(scores: np.ndarray, train: RatingDataset, user: int,
                     n: int) -> list[int]:
    """The ``n`` best-scoring items the user has no training triple for;
    ties break toward the lower item index."""
    consumed = np.zeros(train.num_items, bool)
    consumed[train.items[train.users == user]] = True
    order = np.lexsort((np.arange(len(scores)), -scores))
    return order[~consumed[order]][:n].tolist()
