#!/usr/bin/env python3
# Training both task pipelines on a small structured dataset and reading
# the results: loss curves, rating predictions, recommendations, and a
# comparison against the most-popular baseline.

import numpy as np

from semiae.dataset import RatingDataset, SideInfoMatrix, binarize, split
from semiae.evaluation import most_popular, recall_at_n, rmse
from semiae.trainer import (TrainConfig, predict_ratings, recommend_top_n,
                            train_ranking, train_rating)

# Two taste groups over 60 users and 40 items: evens love the first half of
# the catalogue, odds the second half.  Popularity alone cannot tell the
# groups apart.
rng = np.random.default_rng(4)
M, N = 60, 40
triples = []
for u in range(M):
    mine = np.arange(0, 20) + 20 * (u % 2)
    theirs = np.arange(0, 20) + 20 * ((u + 1) % 2)
    for i in rng.choice(mine, 8, replace=False):
        triples.append((u, int(i), float(rng.choice([4.0, 5.0], p=[0.3, 0.7]))))
    for i in rng.choice(theirs, 8, replace=False):
        triples.append((u, int(i), float(rng.integers(1, 4))))
ds = RatingDataset(M, N,
                   np.array([t[0] for t in triples], np.int32),
                   np.array([t[1] for t in triples], np.int32),
                   np.array([t[2] for t in triples]),
                   np.zeros(len(triples), np.int64))
# one side row per user and per item, in the dataset's index order
profiles = SideInfoMatrix((np.arange(M) % 2).reshape(-1, 1).astype(float),
                          ("group",))
features = SideInfoMatrix((np.arange(N) // 20).reshape(-1, 1).astype(float),
                          ("half",))
train, test = split(ds, 0.5, seed=2)

print("=== rating prediction (item rows, masked loss) ===")
cfg = TrainConfig(task="rating", hidden_dim=12, learning_rate=0.01,
                  regularization=0.01, optimizer="adam", g="sigmoid",
                  f="identity", epochs=300, batch_size=16, seed=0)
model = train_rating(train, features, cfg)
h = model.loss_history
print(f"loss: {h[0]:.2f} -> {h[49]:.2f} -> {h[-1]:.2f} over {len(h)} epochs")
preds = predict_ratings(model, train, features)
print(f"held-out RMSE: {rmse(preds, test):.3f}")
baseline = np.sqrt(np.mean((test.ratings - train.ratings.mean()) ** 2))
print(f"predict-the-mean baseline: {baseline:.3f}")

print("\n=== ranking (user rows + profiles, full loss on binarized data) ===")
btrain, btest = binarize(train, 4.0), binarize(test, 4.0)
kcfg = TrainConfig(task="ranking", hidden_dim=4, learning_rate=0.01,
                   regularization=0.01, optimizer="sgd", g="sigmoid",
                   f="identity", epochs=2000, batch_size=16, seed=0)
rmodel = train_ranking(btrain, profiles, kcfg)
print(f"loss: {rmodel.loss_history[0]:.2f} -> {rmodel.loss_history[-1]:.2f}")

user = 0
recs = recommend_top_n(rmodel, btrain, profiles, user, 5)
print(f"top-5 for user {user} (a first-half lover): {recs}")
print("  all within their taste group:", all(i < 20 for i in recs))

ours = {n: recall_at_n(
    lambda u: recommend_top_n(rmodel, btrain, profiles, u, 10), btest, n)
    for n in (5, 10)}
pop = {n: recall_at_n(lambda u: most_popular(btrain, u, 10), btest, n)
       for n in (5, 10)}
print(f"recall@5:  model {ours[5]:.1f}%  vs most-popular {pop[5]:.1f}%")
print(f"recall@10: model {ours[10]:.1f}%  vs most-popular {pop[10]:.1f}%")
