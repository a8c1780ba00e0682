"""Parameter-update rules: plain gradient descent, RMSProp and Adam.

An :class:`Optimizer` is bound to the one vector of parameters it trains.
It allocates its accumulators and, for rmsprop and adam, two block-sized
scratch buffers once, and ``update`` overwrites the parameters and
accumulators in place, one block of :data:`semiae.model.BLOCK` elements at
a time, so that each block's operands stay in the L2 cache.  sgd takes its
step in the gradient's own buffer instead of a scratch one.  Each update
performs the floating-point operations of the textbook formulas in a fixed
order, elementwise, so neither blocking nor the buffer changes a bit, and
two runs from the same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import BLOCK, blocks

OPTIMIZER_KINDS = ("sgd", "rmsprop", "adam")

# the textbook hyperparameters: Adam's decays and epsilon, RMSProp's decay
BETA1, BETA2, EPS, RHO = 0.9, 0.999, 1e-8, 0.9

_NUM_ACCUMULATORS = {"sgd": 0, "rmsprop": 1, "adam": 2}


@dataclass(eq=False)
class Optimizer:
    """Optimizer kind and learning rate, the parameter vector ``theta`` it
    updates and its accumulators ("acc" for rmsprop, "m" and "v" for
    adam; sgd keeps none).  ``t`` counts completed updates.
    """

    kind: str
    learning_rate: float
    theta: np.ndarray
    t: int = field(default=0, init=False)
    _blocks: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.kind!r}; "
                             f"valid: {OPTIMIZER_KINDS}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        theta = self.theta
        if not (theta.ndim == 1 and theta.flags.c_contiguous
                and theta.flags.writeable):
            raise ValueError("the parameters must be one writable "
                             "C-contiguous vector")
        # per block, made once: its slice and its views of the parameters,
        # the accumulators and two scratch buffers of one block, or of a
        # shorter vector (sgd has none)
        scratch = [np.empty(min(BLOCK, theta.size))
                   for _ in range(0 if self.kind == "sgd" else 2)]
        arrays = [theta, *(np.zeros(theta.size) for _ in
                           range(_NUM_ACCUMULATORS[self.kind]))]
        self._blocks = [(part, [a[part] for a in arrays]
                         + [b[:part.stop - part.start] for b in scratch])
                        for part in blocks(theta.size)]


def update(state: Optimizer, grad: np.ndarray) -> None:
    """Apply one optimizer step to ``state.theta`` in place, from the
    gradient vector ``grad``.

    sgd computes its step, the gradient times the learning rate, in the
    gradient's own buffer, so it must be writable, and afterwards ``grad``
    holds that step; rmsprop and adam only read ``grad``.  A training loop
    writes the next gradient over it either way."""
    if grad.shape != state.theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match "
                         f"parameter shape {state.theta.shape}")
    state.t += 1
    first = state.t == 1
    for part, views in state._blocks:
        _step(state, grad[part], views, first)


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
