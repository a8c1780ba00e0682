#!/usr/bin/env python3
# A tour of the semi-autoencoder network itself, away from any dataset:
# the asymmetric input/output shapes, the prefix reconstruction target,
# the two losses, and a finite-difference check of the analytic gradients.

import numpy as np

from semiae.model import (concat_input, forward, glorot_init,
                          loss_and_gradients, masked_loss, subset_loss)

rng = np.random.default_rng(0)

# A user has rated 6 items (their rating vector) and carries 3 profile
# values.  The network input is the concatenation, rating block first; the
# output only reconstructs the rating block.
rating_block = np.array([5.0, 0.0, 3.0, 0.0, 1.0, 4.0])
profile = np.array([1.0, 0.0, 0.62])
x = concat_input(rating_block, profile)
print("input length:", len(x), "| output (target) length:", len(rating_block))
print("reconstruction target (the input's prefix):", x[:6])

params = glorot_init(input_dim=9, hidden_dim=2, output_dim=6,
                     g="sigmoid", f="identity", rng=rng)
h, out = forward(params, x)
print("\nhidden code (bottleneck of 2):", np.round(h, 3))
print("reconstruction:", np.round(out, 3))

# The full loss measures every output coordinate; the masked loss only the
# positions where a rating was actually observed.
batch = x.reshape(1, -1)
target = rating_block.reshape(1, -1)
observed = (target != 0)
print("\nfull loss:  ", round(subset_loss(params, batch, target), 4))
print("masked loss:", round(masked_loss(params, batch, target, observed), 4))

# Perturbing the reconstruction at an unobserved position leaves the masked
# loss untouched.
bumped = target.copy()
bumped[0, 1] = 99.0  # an unobserved coordinate
print("masked loss with an unobserved target bumped to 99:",
      round(masked_loss(params, batch, bumped, observed), 4))

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
        num = (masked_loss(replace(params, **{name: plus}), batch, target,
                           observed, reg=0.1)
               - masked_loss(replace(params, **{name: minus}), batch, target,
                             observed, reg=0.1)) / (2 * eps)
        worst = max(worst, abs(num - analytic[idx]) /
                    (abs(num) + abs(analytic[idx]) + 1e-3))
print(f"\ngradient check over all {params.Q.size + params.Q1.size + len(params.p) + len(params.p1)}"
      f" parameters: worst relative error = {worst:.2e}")
