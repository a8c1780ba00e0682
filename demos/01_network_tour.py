#!/usr/bin/env python3
# A tour of the semi-autoencoder network itself, away from any dataset:
# the asymmetric input/output shapes, the prefix reconstruction target,
# the training step's loss with and without a mask, and a finite-difference
# check of its analytic gradients against its own loss.

import numpy as np

from semiae.dataset import RatingDataset, SideInfoMatrix, build_vectors
from semiae.model import forward, glorot_init, loss_and_gradients

rng = np.random.default_rng(0)

# A user has rated 4 of 6 items (their rating vector) and carries 3 profile
# values.  The network input is the concatenation, rating block first; the
# output only reconstructs the rating block.  Row k of the side matrix
# belongs to user k of the dataset.
user = RatingDataset(num_users=1, num_items=6, users=np.zeros(4, np.int32),
                     items=np.array([0, 2, 4, 5], np.int32),
                     ratings=np.array([5.0, 3.0, 1.0, 4.0]),
                     timestamps=np.zeros(4, np.int64))
profile = SideInfoMatrix(np.array([[1.0, 0.0, 0.62]]), ("F", "M", "age"))
# the builder writes the rows it is given (here the one user) into buffers
# the caller owns
batch, observed = np.empty((1, 9)), np.empty((1, 6), bool)
build_vectors(user, profile, [0], batch, observed)
x = batch[0]
print("input length:", len(x), "| output (target) length:", user.num_items)
print("reconstruction target (the input's prefix):", x[:6])

params = glorot_init(input_dim=9, hidden_dim=2, output_dim=6,
                     g="sigmoid", f="identity", rng=rng)
h, out = forward(params, x)
print("\nhidden code (bottleneck of 2):", np.round(h, 3))
print("reconstruction:", np.round(out, 3))


def loss(*args, **kwargs):
    """The loss that a training step returns beside its gradients."""
    return loss_and_gradients(*args, **kwargs)[0]


# The full loss measures every output coordinate; the masked loss only the
# positions where a rating was actually observed (the builder's mask).
target = batch[:, :6]
print("\nfull loss:  ", round(loss(params, batch, target), 4))
print("masked loss:", round(loss(params, batch, target, observed), 4))

# Perturbing the reconstruction at an unobserved position leaves the masked
# loss untouched.
bumped = target.copy()
bumped[0, 1] = 99.0  # an unobserved coordinate
print("masked loss with an unobserved target bumped to 99:",
      round(loss(params, batch, bumped, observed), 4))

# Gradient check: analytic gradients vs central finite differences.
_, grads = loss_and_gradients(params, batch, target, observed, reg=0.1)
eps = 1e-5
worst = 0.0
for name in ("Q", "Q1", "p", "p1"):
    base = getattr(params, name)
    analytic = getattr(grads, "d" + name)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        from dataclasses import replace
        plus, minus = base.copy(), base.copy()
        plus[idx] += eps
        minus[idx] -= eps
        num = (loss(replace(params, **{name: plus}), batch, target,
                    observed, reg=0.1)
               - loss(replace(params, **{name: minus}), batch, target,
                      observed, reg=0.1)) / (2 * eps)
        worst = max(worst, abs(num - analytic[idx]) /
                    (abs(num) + abs(analytic[idx]) + 1e-3))
print(f"\ngradient check over all {params.Q.size + params.Q1.size + len(params.p) + len(params.p1)}"
      f" parameters: worst relative error = {worst:.2e}")
