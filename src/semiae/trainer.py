"""Training pipelines for the two recommendation tasks, plus inference.

Ranking: one training row per user, ``cat(r_u; profile_u)``, reconstructing
the binarized interaction vector over every item position (like/dislike is
meaningful everywhere once ratings are binarized).

Rating: one training row per item, ``cat(r_i; features_i)``, reconstructing
the explicit rating vector but measuring the loss only at observed user
positions.

Both loops are seed-deterministic: weight init and the per-epoch row
shuffles are drawn from one generator seeded by the config.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import RatingDataset, SideInfoMatrix, build_vectors
from .evaluation import _rank_unconsumed
from .model import (SemiAEParams, activation, concat_input, forward,
                    glorot_init, load_params, loss_and_gradients, save_params)
from .optim import OPTIMIZER_KINDS, make_optimizer, update

log = logging.getLogger(__name__)

TASKS = ("ranking", "rating")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    task: str
    hidden_dim: int
    learning_rate: float = 0.001
    regularization: float = 0.1
    optimizer: str = "adam"
    g: str = "sigmoid"
    f: str = "identity"
    epochs: int = 500
    batch_size: int = 64
    seed: int = 0
    binarize_threshold: float = 4.0
    binarize_comparison: str = ">"
    mask_ranking_loss: bool = False

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.regularization < 0:
            raise ValueError("regularization must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; "
                             f"valid: {OPTIMIZER_KINDS}")
        activation(self.g)
        activation(self.f)

    @classmethod
    def defaults(cls, task: str) -> "TrainConfig":
        """The benchmark defaults for each task."""
        if task == "rating":
            return cls(task="rating", hidden_dim=500, optimizer="adam")
        if task == "ranking":
            return cls(task="ranking", hidden_dim=10, optimizer="sgd",
                       epochs=1000)
        raise ValueError(f"task must be one of {TASKS}")

    @classmethod
    def from_dict(cls, doc: dict, task: str | None = None) -> "TrainConfig":
        """Build a config from a flat dict, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; "
                             f"valid: {sorted(known)}")
        doc = dict(doc)
        cfg_task = doc.pop("task", None) or task
        if cfg_task is None:
            raise ValueError("config must name a task (or pass one explicitly)")
        if task is not None and cfg_task != task:
            raise ValueError(f"config task {cfg_task!r} conflicts with "
                             f"requested task {task!r}")
        base = asdict(cls.defaults(cfg_task))
        base.update(doc)
        return cls(**base)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainedModel:
    """A trained network plus the metadata needed to use and audit it."""

    params: SemiAEParams
    task: str
    orientation: str
    side_dim: int
    loss_history: tuple[float, ...]
    config: TrainConfig | None = None

    def __post_init__(self) -> None:
        expected = "user" if self.task == "ranking" else "item"
        if self.orientation != expected:
            raise ValueError(f"{self.task} task must be {expected}-oriented")


def _run_epochs(x: np.ndarray, targets: np.ndarray, mask: np.ndarray | None,
                cfg: TrainConfig, rng: np.random.Generator
                ) -> tuple[SemiAEParams, list[float]]:
    n, input_dim = x.shape
    output_dim = targets.shape[1]
    params = glorot_init(input_dim, cfg.hidden_dim, output_dim,
                         cfg.g, cfg.f, rng)
    state = make_optimizer(cfg.optimizer, cfg.learning_rate)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        weighted = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            batch_mask = mask[idx] if mask is not None else None
            loss, grads = loss_and_gradients(
                params, x[idx], targets[idx], batch_mask, cfg.regularization)
            state, params = update(state, params, grads)
            weighted += loss * len(idx)
        history.append(weighted / n)
        if (epoch + 1) % 100 == 0 or epoch == 0:
            log.info("epoch %d/%d: loss %.6f", epoch + 1, cfg.epochs, history[-1])
        else:
            log.debug("epoch %d/%d: loss %.6f", epoch + 1, cfg.epochs, history[-1])
    return params, history


def train_ranking(train: RatingDataset, profiles: SideInfoMatrix,
                  cfg: TrainConfig) -> TrainedModel:
    """Fit the ranking model on binarized user rows with profiles appended.

    The loss covers every item position unless ``cfg.mask_ranking_loss`` is
    set, in which case only observed positions are measured.
    """
    if cfg.task != "ranking":
        raise ValueError("config task must be 'ranking'")
    if profiles.num_entities != train.num_users:
        raise ValueError(f"profiles cover {profiles.num_entities} users, "
                         f"dataset has {train.num_users}")
    if train.rating_scale != (0.0, 1.0):
        log.warning("ranking training expects binarized ratings, "
                    "got scale %s", train.rating_scale)
    iv = build_vectors(train, "user")
    x = concat_input(iv.vectors, profiles.rows)
    mask = iv.mask if cfg.mask_ranking_loss else None
    rng = np.random.default_rng(cfg.seed)
    params, history = _run_epochs(x, iv.vectors, mask, cfg, rng)
    return TrainedModel(params, "ranking", "user", profiles.dim,
                        tuple(history), cfg)


def train_rating(train: RatingDataset, features: SideInfoMatrix,
                 cfg: TrainConfig) -> TrainedModel:
    """Fit the rating model on explicit item rows with features appended.

    Only observed user positions enter the loss; items with no observed
    training rating contribute zero loss and zero gradient.
    """
    if cfg.task != "rating":
        raise ValueError("config task must be 'rating'")
    if features.num_entities != train.num_items:
        raise ValueError(f"features cover {features.num_entities} items, "
                         f"dataset has {train.num_items}")
    iv = build_vectors(train, "item")
    x = concat_input(iv.vectors, features.rows)
    rng = np.random.default_rng(cfg.seed)
    params, history = _run_epochs(x, iv.vectors, iv.mask, cfg, rng)
    return TrainedModel(params, "rating", "item", features.dim,
                        tuple(history), cfg)


def predict_ratings(model: TrainedModel, train: RatingDataset,
                    features: SideInfoMatrix) -> np.ndarray:
    """Reconstruct the full item-by-user rating matrix from training data.

    Inputs are built from the training triples only.  Items that are
    unobserved in training fall back to the global training mean; all
    predictions are clipped to the rating scale.
    """
    if model.task != "rating":
        raise ValueError("predict_ratings needs a rating-task model")
    iv = build_vectors(train, "item")
    x = concat_input(iv.vectors, features.rows)
    _, out = forward(model.params, x)
    empty = ~iv.mask.any(axis=1)
    if empty.any():
        if len(train) == 0:
            raise ValueError("cannot predict from an empty training set")
        out[empty, :] = float(train.ratings.mean())
    lo, hi = train.rating_scale
    return np.clip(out, lo, hi)


def ranking_scores(model: TrainedModel, train: RatingDataset,
                   profiles: SideInfoMatrix, user: int) -> np.ndarray:
    """Reconstruction scores over all items for one user (training input only)."""
    if model.task != "ranking":
        raise ValueError("ranking_scores needs a ranking-task model")
    if not 0 <= user < train.num_users:
        raise ValueError(f"user index {user} out of range")
    row = np.zeros(train.num_items)
    owned = train.users == user
    row[train.items[owned]] = train.ratings[owned]
    x = concat_input(row, profiles.rows[user])
    _, out = forward(model.params, x)
    return out


def recommend_top_n(model: TrainedModel, train: RatingDataset,
                    profiles: SideInfoMatrix, user: int, n: int) -> list[int]:
    """Top-n unconsumed items for a user, scored by reconstruction.

    Items the user already interacted with in training are excluded; ties
    break toward the lower item index.  Asking for more items than exist
    returns every candidate, ranked.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    scores = ranking_scores(model, train, profiles, user)
    return _rank_unconsumed(scores, train, user, n)


def save_model(path: str | Path, model: TrainedModel,
               extras: dict | None = None) -> None:
    """Write the model JSON (weights plus a training-config echo).

    ``extras`` lands in the echo alongside the config: run context such as
    the training fraction that the model file should carry for audit.
    """
    echo = {
        "task": model.task,
        "orientation": model.orientation,
        "side_dim": model.side_dim,
        "loss_history": list(model.loss_history),
        "config": model.config.to_dict() if model.config else None,
    }
    if extras:
        echo.update(extras)
    save_params(path, model.params, echo)


def load_model_and_echo(path: str | Path) -> tuple[TrainedModel, dict]:
    """Read a model written by :func:`save_model`, with the echo it carries
    (the config, the loss history and the run context of ``extras``)."""
    params, echo = load_params(path)
    try:
        cfg = TrainConfig(**echo["config"]) if echo.get("config") else None
        model = TrainedModel(params, echo["task"], echo["orientation"],
                             echo["side_dim"], tuple(echo["loss_history"]), cfg)
    except KeyError as exc:
        raise ValueError(f"{path}: model echo has no {exc} entry") from None
    return model, echo


def load_model(path: str | Path) -> TrainedModel:
    """Read a model written by :func:`save_model`."""
    return load_model_and_echo(path)[0]


def write_training_log(path: str | Path, loss_history) -> None:
    """Per-epoch training losses as a two-column CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(loss_history, start=1):
            writer.writerow([epoch, repr(float(loss))])
