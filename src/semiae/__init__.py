"""Semi-autoencoder hybrid collaborative filtering.

A three-layer autoencoder whose output reconstructs only the rating block
of its input, so user profiles or item features can ride along as extra
input coordinates.  Includes MovieLens data handling, two training
pipelines (explicit rating prediction and binarized top-n ranking),
metrics, a most-popular baseline and a benchmark-reproduction CLI.

The package root exports the names of the README's library example and the
dataclasses a caller builds inputs from; everything else is imported from
its own module (``semiae.dataset``, ``semiae.model``, ``semiae.optim``,
``semiae.trainer``, ``semiae.evaluation``).
"""

from .dataset import (ParseError, PreparedData, RatingDataset, SideInfoMatrix,
                      binarize, load_raw_directory, split)
from .evaluation import most_popular, recall_at_n, rmse
from .trainer import (TrainConfig, TrainedModel, predict_ratings,
                      recommend_top_n, train_ranking, train_rating)

__version__ = "0.1.0"

__all__ = [
    "ParseError", "PreparedData", "RatingDataset", "SideInfoMatrix",
    "TrainConfig", "TrainedModel", "binarize", "load_raw_directory",
    "most_popular", "predict_ratings", "recall_at_n", "recommend_top_n",
    "rmse", "split", "train_ranking", "train_rating",
]
