"""Training pipelines for the two recommendation tasks, plus inference.

Ranking: one training row per user, ``cat(r_u; profile_u)``, reconstructing
the binarized interaction vector over every item position (like/dislike is
meaningful everywhere once ratings are binarized).

Rating: one training row per item, the user row ``cat(r_i; features_i)`` of
the transposed training set ``train.T``, reconstructing the explicit rating
vector but measuring the loss only at observed user positions.

Both tasks run one loop, seed-deterministic: weight init and the per-epoch
row shuffles are drawn from one generator seeded by the config.  The loop owns
the parameter buffers and one :class:`~semiae.model.Workspace`, and picks
its step once per run:

* an identity ``f`` with the loss over every output, the ranking default,
  lays out each epoch's rows once, in the epoch's order, as likes and
  side rows by :func:`~semiae.dataset.sparse_rows`, with the step's flat
  indices by :func:`~semiae.model.sparse_index`, and steps with
  ``sparse_loss_and_gradients`` on each batch's slice of that layout,
  densifying nothing;
* every other run (rating, whose loss is masked, or a non-identity ``f``)
  owns the batch's input rows and mask, written by
  :func:`~semiae.dataset.build_vectors` from the dataset's per-user index,
  and steps with ``loss_and_gradients``.

Either writes the batch's gradients into the workspace.  The optimizer
updates the parameters in place from those gradients, and the
:class:`SemiAEParams` built once over the parameters sees every update.  A
step allocates nothing the size of a parameter or of a dense batch.  A
training set with no triples is an error, and so is a ranking one with a
rating other than a like's 1.0.  A non-finite batch loss, or a
parameter left non-finite by the last update, stops training with a
ValueError naming the epoch, the batch, the loss (and the last finite one)
or the parameter, and the learning rate; numpy's floating-point warnings
stay quiet meanwhile.

Inference for both tasks is :func:`score_rows`: the model's rows (users
for ranking, items for rating) of data of the model's row shape, built by
``build_vectors`` and run as one forward pass.  Rating prediction scores
every item at once; top-n lists score ``SCORE_ROWS`` users at a time and
rank each user's row.  The first :func:`recommend_top_n` call for a (model,
train, profiles, n) ranks every user and keeps the lists, so a scan over
the users, as Recall@N makes, ranks each user once.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dataset import (COMPARISONS, RatingDataset, SideInfoMatrix,
                      build_vectors, located, sparse_rows)
from .evaluation import _rank_unconsumed
from .model import (ACTIVATIONS, SemiAEParams, Workspace, forward_from,
                    glorot_init, load_params, loss_and_gradients, save_params,
                    sparse_index, sparse_loss_and_gradients)
from .optim import OPTIMIZER_KINDS, Optimizer, update

log = logging.getLogger(__name__)

TASKS = ("ranking", "rating")
# users scored per forward pass of the top-n lists
SCORE_ROWS = 256
# (weak references to a model, train and profiles, n, their lists)
_last_lists: tuple = ()

# each TrainConfig annotation's values; no bool, though Python makes it an int
_TYPES = {"str": str, "int": (int, np.integer),
          "float": (int, float, np.integer)}
# what a field's value must satisfy beyond its type: a vocabulary or a bound
_RULES = {"task": ("one of", TASKS), "optimizer": ("one of", OPTIMIZER_KINDS),
          "g": ("one of", tuple(ACTIVATIONS)),
          "f": ("one of", tuple(ACTIVATIONS)),
          "binarize_comparison": ("one of", tuple(COMPARISONS)),
          "hidden_dim": (">=", 1), "epochs": (">=", 1), "batch_size": (">=", 1),
          "seed": (">=", 0), "regularization": (">=", 0),
          "learning_rate": (">", 0)}
_PASSES = {"one of": lambda value, vocabulary: value in vocabulary,
           **COMPARISONS}
# the config fields that a network's weights hold, so a model file's echo
# leaves them out
_WEIGHTS_OWN = ("g", "f", "hidden_dim")


def _finite(value) -> bool:
    """Whether a number is finite as a float; an int past the largest float
    is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
    # not a setting: perfbench/workloads.py reads it; ranking is never masked
    mask_ranking_loss = False

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if (isinstance(value, bool)
                    or not isinstance(value, _TYPES[field.type])):
                raise ValueError(f"{field.name} must be of type {field.type}, "
                                 f"got {value!r}")
            if isinstance(value, np.integer):
                # a Python int, which JSON writes
                value = int(value)
                object.__setattr__(self, field.name, value)
            if field.type == "float" and not _finite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
            if field.name in _RULES:
                rule, operand = _RULES[field.name]
                if not _PASSES[rule](value, operand):
                    raise ValueError(f"{field.name} must be {rule} {operand}, "
                                     f"got {value!r}")

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
        """Build a config from a flat dict, rejecting unknown keys.  A
        ``mask_ranking_loss`` of false, which older files hold, is dropped."""
        doc = dict(doc)
        if doc.pop("mask_ranking_loss", False) is not False:
            raise ValueError("mask_ranking_loss: the masked ranking loss was "
                             "removed, and ranking measures every output")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; "
                             f"valid: {sorted(known)}")
        cfg_task = doc.pop("task", task)
        if task is not None and cfg_task != task:
            raise ValueError(f"config task {cfg_task!r} conflicts with "
                             f"requested task {task!r}")
        if cfg_task is None:
            raise ValueError("config must name a task (or pass one explicitly)")
        return replace(cls.defaults(cfg_task), **doc)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainedModel:
    """A trained network, its per-epoch losses and its config.  The config's
    task gives the input rows' orientation; the weights' shapes give the
    side-information width."""

    params: SemiAEParams
    loss_history: tuple[float, ...]
    config: TrainConfig

    @property
    def task(self) -> str:
        return self.config.task

    @property
    def orientation(self) -> str:
        return "user" if self.task == "ranking" else "item"

    @property
    def side_dim(self) -> int:
        return self.params.input_dim - self.params.output_dim


def _sparse_batches(ds: RatingDataset, side: SideInfoMatrix,
                    perm: np.ndarray, batch_size: int, hidden_dim: int):
    """Each batch of ``batch_size`` consecutive users of ``perm``, the last
    batch ragged, as ``(index, side_rows)``: its part of the one
    :func:`~semiae.model.sparse_index` of the epoch's
    :func:`~semiae.dataset.sparse_rows`, for a network of ``hidden_dim``
    hidden units, with rows counted from the batch's first, and its side
    rows.  Each is a view."""
    at, cols, values, side_rows = sparse_rows(ds, side, perm)
    starts = range(0, len(perm), batch_size)
    cuts = np.searchsorted(at, [*starts, len(perm)]).tolist()
    # each like's row counted from its batch's first, for the whole epoch
    at %= batch_size
    index = sparse_index(at, cols, values, hidden_dim, ds.num_items)
    for start, lo, hi in zip(starts, cuts, cuts[1:]):
        yield index.part(lo, hi), side_rows[start:start + batch_size]


# the loop checks finiteness itself, so numpy's warnings stay quiet
@np.errstate(all="ignore")
def _run_epochs(train: RatingDataset, side: SideInfoMatrix,
                cfg: TrainConfig) -> TrainedModel:
    """Train on the user rows of ``train`` and ``side``, the loss at the
    observed ratings alone for the rating task.  Each epoch is a generator
    of its batches' steps, sparse or dense as the run picks once, and the
    loop updates the parameters from each step's gradients."""
    # one input row per user: its ratings over every item, which are also
    # its targets, then its side row
    n, output_dim = train.num_users, train.num_items
    if len(train) == 0:
        raise ValueError("cannot train on an empty training set")
    rng = np.random.default_rng(cfg.seed)
    params = glorot_init(output_dim + side.dim, cfg.hidden_dim, output_dim,
                         cfg.g, cfg.f, rng)
    # the writable arrays under params' read-only views: the optimizer
    # updates them in place, and params sees every update
    theta = [a.base for a in (params.Q, params.Q1, params.p, params.p1)]
    state = Optimizer(cfg.optimizer, cfg.learning_rate, theta)
    rows = min(cfg.batch_size, n)
    masked = cfg.task == "rating"
    sparse = cfg.f == "identity" and not masked
    work = Workspace.for_params(params, 0 if sparse else rows)
    if sparse:
        def steps(perm: np.ndarray):
            # batches of at most n rows, the same ones for any larger size
            for index, side_rows in _sparse_batches(train, side, perm, rows,
                                                    cfg.hidden_dim):
                yield sparse_loss_and_gradients(params, index, side_rows,
                                                cfg.regularization, work)
    else:
        x = np.empty((rows, params.input_dim))
        mask = np.empty((rows, output_dim), bool) if masked else None

        def steps(perm: np.ndarray):
            for start in range(0, n, rows):
                idx = perm[start:start + rows]
                batch_x = x[:len(idx)]
                batch_mask = mask[:len(idx)] if masked else None
                build_vectors(train, side, idx, batch_x, batch_mask)
                yield loss_and_gradients(
                    params, batch_x, batch_x[:, :output_dim], batch_mask,
                    cfg.regularization, work=work)
    num_batches = -(-n // rows)
    history: list[float] = []
    last_finite = None

    def diverged(what: str) -> ValueError:
        return ValueError(f"training diverged at epoch {epoch + 1}/"
                          f"{cfg.epochs}, batch {batch + 1}/{num_batches}: "
                          f"{what}, learning rate {cfg.learning_rate}")

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        weighted = 0.0
        for batch, (loss, grads) in enumerate(steps(perm)):
            if not math.isfinite(loss):
                raise diverged(f"loss {loss}, last finite loss {last_finite}")
            last_finite = loss
            update(state, grads)
            weighted += loss * min(rows, n - batch * rows)
        history.append(weighted / n)
        if (epoch + 1) % 100 == 0 or epoch == 0:
            log.info("epoch %d/%d: loss %.6f", epoch + 1, cfg.epochs, history[-1])
        else:
            log.debug("epoch %d/%d: loss %.6f", epoch + 1, cfg.epochs, history[-1])
    for name, arr in zip(("Q", "Q1", "p", "p1"), theta):
        if not np.all(np.isfinite(arr)):
            raise diverged(f"parameter {name} is not finite after the last "
                           f"update")
    return TrainedModel(params, tuple(history), cfg)


def train_ranking(train: RatingDataset, profiles: SideInfoMatrix,
                  cfg: TrainConfig) -> TrainedModel:
    """Fit the ranking model on user rows of likes with profiles appended.

    ``train`` holds likes of value 1.0, as :func:`~semiae.dataset.binarize`
    makes them; any other rating is refused.  The loss covers every item
    position."""
    if cfg.task != "ranking":
        raise ValueError("config task must be 'ranking'")
    if len(bad := train.ratings[train.ratings != 1.0]):
        raise ValueError(f"ranking trains on likes of value 1.0, got a "
                         f"rating of {bad[0]}: binarize the ratings first")
    return _run_epochs(train, profiles, cfg)


def train_rating(train: RatingDataset, features: SideInfoMatrix,
                 cfg: TrainConfig) -> TrainedModel:
    """Fit the rating model on explicit item rows with features appended.

    Only observed user positions enter the loss; items with no observed
    training rating contribute zero loss and zero gradient.
    """
    if cfg.task != "rating":
        raise ValueError("config task must be 'rating'")
    return _run_epochs(train.T, features, cfg)


def score_rows(model: TrainedModel, train: RatingDataset,
               side: SideInfoMatrix, rows) -> np.ndarray:
    """Reconstruction scores of the model's input rows ``rows``, one output
    row each, from one forward pass: users of ``train`` for a ranking model,
    items (the user rows of ``train.T``) for a rating model.

    Data whose rows differ from the model's in ratings or side values is
    refused.  The rows' input goes as soon as its product with ``Q`` is
    formed, before the activation and the output layer.
    """
    ds = train if model.orientation == "user" else train.T
    if (ds.num_items, side.dim) != (model.params.output_dim, model.side_dim):
        raise ValueError(
            f"model reads {model.orientation} rows of "
            f"{model.params.output_dim} ratings + {model.side_dim} side "
            f"values, but data has {model.orientation} rows of "
            f"{ds.num_items} ratings + {side.dim} side values")
    rows = np.asarray(rows, np.intp)
    if len(outside := rows[(rows < 0) | (rows >= ds.num_users)]):
        raise ValueError(f"{model.orientation} index {outside[0]} out of range")
    x = np.empty((len(rows), model.params.input_dim))
    build_vectors(ds, side, rows, x)
    z1 = x @ model.params.Q
    del x
    return forward_from(model.params, z1)[1]


def predict_ratings(model: TrainedModel, train: RatingDataset,
                    features: SideInfoMatrix) -> np.ndarray:
    """Reconstruct the full item-by-user rating matrix from training data.

    Inputs are built from the training triples only, as one
    :func:`score_rows` pass over every item.  Items that are unobserved in
    training fall back to the global training mean; all predictions are
    clipped to the rating scale.
    """
    if model.task != "rating":
        raise ValueError("predict_ratings needs a rating-task model")
    out = score_rows(model, train, features, np.arange(train.num_items))
    empty = train.item_counts == 0
    if empty.any():
        if len(train) == 0:
            raise ValueError("cannot predict from an empty training set")
        out[empty, :] = float(train.ratings.mean())
    lo, hi = train.rating_scale
    return np.clip(out, lo, hi, out=out)


def _top_n_lists(model: TrainedModel, train: RatingDataset,
                 profiles: SideInfoMatrix, n: int) -> list[list[int]]:
    """Every user's top-n list, scored ``SCORE_ROWS`` users at a time.  The
    lists of the last (model, train, profiles, n) stay in ``_last_lists``,
    which holds the three through weak references and so keeps none of
    them alive; a freed one never matches a new object."""
    global _last_lists
    key, last = (model, train, profiles), _last_lists  # one read of the slot
    if last and last[1] == n and all(ref() is obj
                                     for ref, obj in zip(last[0], key)):
        return last[2]
    lists: list[list[int]] = []
    for start in range(0, train.num_users, SCORE_ROWS):
        users = range(start, min(start + SCORE_ROWS, train.num_users))
        scores = score_rows(model, train, profiles, users)
        lists.extend(_rank_unconsumed(row, train, user, n)
                     for user, row in zip(users, scores))
    _last_lists = (tuple(map(weakref.ref, key)), n, lists)
    return lists


def recommend_top_n(model: TrainedModel, train: RatingDataset,
                    profiles: SideInfoMatrix, user: int, n: int) -> list[int]:
    """Top-n unconsumed items for a user, scored by reconstruction.

    Items the user already interacted with in training are excluded; ties
    break toward the lower item index.  Asking for more items than exist
    returns every candidate, ranked.  The first call for a (model, train,
    profiles, n) ranks every user, so a scan over the users costs one
    ranking each; the list returned is the caller's own.
    """
    if model.task != "ranking":
        raise ValueError("recommend_top_n needs a ranking-task model")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= user < train.num_users:
        raise ValueError(f"user index {user} out of range")
    return list(_top_n_lists(model, train, profiles, n)[user])


def save_model(path: str | Path, model: TrainedModel,
               extras: dict | None = None) -> None:
    """Write the model JSON: the weights, then an echo of the loss history
    and the config, less the activations and hidden width that the weights
    already hold.

    ``extras`` lands in the echo alongside the config: run context such as
    the training fraction that the model file should carry for audit.
    """
    config = {key: value for key, value in model.config.to_dict().items()
              if key not in _WEIGHTS_OWN}
    save_params(path, model.params, {"loss_history": list(model.loss_history),
                                     "config": config, **(extras or {})})


def load_model_and_echo(path: str | Path) -> tuple[TrainedModel, dict]:
    """Read a model written by :func:`save_model`, with the echo it carries
    (the config, the loss history and the run context of ``extras``).  The
    config takes its activations and hidden width from the weights, over any
    copy the echo holds; the loss history must be one finite number per
    epoch of the config, and the training fraction, if any, null or a
    number in (0, 1), as :func:`~semiae.dataset.split` takes."""
    params, echo = load_params(path)
    with located(path, "model echo"):
        if not isinstance(echo["config"], dict):
            raise ValueError("'config' is not an object")
        config = TrainConfig.from_dict(
            {**echo["config"], **{key: getattr(params, key)
                                  for key in _WEIGHTS_OWN}})
        history = echo["loss_history"]
        if not (isinstance(history, list) and len(history) == config.epochs
                and all(type(v) in (int, float) and _finite(v)
                        for v in history)):
            raise ValueError(f"loss_history must be a list of {config.epochs} "
                             f"finite numbers, one per epoch")
        model = TrainedModel(params, tuple(history), config)
        fraction = echo.get("train_fraction")
        if fraction is not None and not (type(fraction) in (int, float)
                                         and 0 < fraction < 1):
            raise ValueError(f"train_fraction must be null or a number in "
                             f"(0, 1), got {fraction!r}")
    return model, echo


def load_model(path: str | Path) -> TrainedModel:
    """Read a model written by :func:`save_model`."""
    return load_model_and_echo(path)[0]
