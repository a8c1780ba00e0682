"""Parameter-update rules: plain gradient descent, RMSProp and Adam.

An :class:`Optimizer` is bound to the parameter buffers it trains (Q, Q1, p,
p1 in that order).  It allocates its accumulators and, for rmsprop and adam,
two block-sized scratch buffers once, and ``update`` overwrites the
parameters and accumulators in place, one block of
:data:`semiae.model.BLOCK` elements at a time, so that each block's operands
stay in the L2 cache; a parameter of one block, as every parameter of the
ranking model at ml-100k shape is, is updated whole.  sgd takes its step in
the gradients' own buffers instead of a scratch one.  Each update performs
the floating-point operations of the textbook formulas in a fixed order,
elementwise, so neither blocking nor the buffer changes a bit, and two runs
from the same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import BLOCK, GradientSet, blocks

OPTIMIZER_KINDS = ("sgd", "rmsprop", "adam")

# the textbook hyperparameters: Adam's decays and epsilon, RMSProp's decay
BETA1, BETA2, EPS, RHO = 0.9, 0.999, 1e-8, 0.9

_NAMES = ("Q", "Q1", "p", "p1")
_NUM_ACCUMULATORS = {"sgd": 0, "rmsprop": 1, "adam": 2}


@dataclass(eq=False)
class Optimizer:
    """Optimizer kind and learning rate, the parameters (Q, Q1, p, p1) it
    updates and their accumulators ("acc" for rmsprop, "m" and "v" for
    adam; sgd keeps none).  ``t`` counts completed updates.
    """

    kind: str
    learning_rate: float
    params: tuple[np.ndarray, ...]
    t: int = field(default=0, init=False)
    _blocks: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.kind!r}; "
                             f"valid: {OPTIMIZER_KINDS}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.params = tuple(self.params)
        if not all(theta.flags.c_contiguous and theta.flags.writeable
                   for theta in self.params):
            raise ValueError("parameters must be writable C-contiguous arrays")
        # two scratch buffers of one block, or of the largest parameter if
        # that is smaller, none for sgd.  Per parameter, each block's index
        # into the gradient and its views of the parameter, the
        # accumulators and the scratch, made once: a parameter of one block
        # is indexed whole, by ``...``, with views of its shape, and a
        # longer one by flat slices
        size = min(BLOCK, max(theta.size for theta in self.params))
        scratch = [np.empty(size)
                   for _ in range(0 if self.kind == "sgd" else 2)]
        self._blocks = []
        for theta in self.params:
            arrays = [theta, *(np.zeros(theta.shape) for _ in
                               range(_NUM_ACCUMULATORS[self.kind]))]
            if theta.size <= BLOCK:
                self._blocks.append([(..., arrays + [
                    b[:theta.size].reshape(theta.shape) for b in scratch])])
                continue
            flat = [a.reshape(-1) for a in arrays]
            self._blocks.append(
                [(part, [a[part] for a in flat]
                  + [b[:part.stop - part.start] for b in scratch])
                 for part in blocks(theta.size)])


def update(state: Optimizer, grads: GradientSet) -> None:
    """Apply one optimizer step to ``state.params`` in place.

    sgd computes its step, each gradient times the learning rate, in the
    gradients' own buffers, so they must be writable, and afterwards
    ``grads`` holds that step; rmsprop and adam only read ``grads``.  A
    training loop writes the next gradients over them either way."""
    all_grads = (grads.dQ, grads.dQ1, grads.dp, grads.dp1)
    for name, g, theta in zip(_NAMES, all_grads, state.params):
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} shape {theta.shape}")

    state.t += 1
    first = state.t == 1
    for g, parts in zip(all_grads, state._blocks):
        if len(parts) > 1:
            g = g.reshape(-1)
        for part, views in parts:
            _step(state, g[part], views, first)


def _step(state: Optimizer, g: np.ndarray, views: list[np.ndarray],
          first: bool) -> None:
    """One update, from the gradient block ``g``, of the blocks ``views``:
    the parameter's, the accumulators' and then the two scratch blocks
    ``step`` and ``tmp`` (sgd has neither accumulators nor scratch)."""
    eta = state.learning_rate
    if state.kind == "sgd":
        theta, step = views[0], g
        step *= eta
    elif state.kind == "rmsprop":
        theta, acc, step, tmp = views
        np.multiply(g, 1.0 - RHO, out=tmp)
        tmp *= g
        _decay_add(acc, RHO, tmp, first)
        # eta * g / sqrt(acc + eps)
        np.add(acc, EPS, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.multiply(g, eta, out=step)
        step /= tmp
    else:  # adam
        theta, m, v, step, tmp = views
        np.multiply(g, 1.0 - BETA1, out=tmp)
        _decay_add(m, BETA1, tmp, first)
        np.multiply(g, 1.0 - BETA2, out=tmp)
        tmp *= g
        _decay_add(v, BETA2, tmp, first)
        # eta * (m / (1-beta1^t)) / (sqrt(v / (1-beta2^t)) + eps)
        np.divide(m, 1.0 - BETA1 ** state.t, out=step)
        step *= eta
        np.divide(v, 1.0 - BETA2 ** state.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        step /= tmp
    np.subtract(theta, step, out=theta)


def _decay_add(acc: np.ndarray, decay: float, term: np.ndarray,
               first: bool) -> None:
    """acc = decay * acc + term in place; the first step is term alone, not
    0 + term, whose zeros would lose their sign."""
    if first:
        np.copyto(acc, term)
    else:
        acc *= decay
        acc += term
