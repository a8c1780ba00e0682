"""Parameter-update rules: plain gradient descent, RMSProp and Adam.

An :class:`Optimizer` is bound to the parameter buffers it trains (Q, Q1, p,
p1 in that order).  It allocates its accumulators and two block-sized
scratch buffers once, and ``update`` overwrites the parameters and
accumulators in place, one block of :data:`semiae.model.BLOCK` elements at
a time, so that each block's operands stay in the L2 cache.  Each update
performs the floating-point operations of the textbook formulas in a fixed
order, elementwise, so blocking does not change a bit and two runs from the
same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import BLOCK, GradientSet, blocks

OPTIMIZER_KINDS = ("sgd", "rmsprop", "adam")

_SLOT_NAMES = ("Q", "Q1", "p", "p1")
_ACCUMULATORS = {"sgd": (), "rmsprop": ("acc",), "adam": ("m", "v")}


@dataclass(eq=False)
class Optimizer:
    """Optimizer kind, hyperparameters, the parameters it updates and its
    per-parameter accumulators.

    ``slots`` maps parameter name -> accumulator dict ("m"/"v" for adam,
    "acc" for rmsprop); sgd keeps none.  ``t`` counts completed updates.
    """

    kind: str
    learning_rate: float
    params: tuple[np.ndarray, ...]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    rho: float = 0.9
    t: int = 0
    slots: dict = field(init=False)
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
        self.slots = {name: {acc: np.zeros_like(theta)
                             for acc in _ACCUMULATORS[self.kind]}
                      for name, theta in zip(_SLOT_NAMES, self.params)}
        # two scratch buffers of one block, or of the largest parameter if
        # that is smaller; per parameter, each block's slice and its views
        # of the parameter, the accumulators and the scratch, made once
        size = min(BLOCK, max(theta.size for theta in self.params))
        step, tmp = np.empty(size), np.empty(size)
        self._blocks = [
            [(part, theta.reshape(-1)[part],
              [a.reshape(-1)[part] for a in self.slots[name].values()],
              step[:part.stop - part.start], tmp[:part.stop - part.start])
             for part in blocks(theta.size)]
            for name, theta in zip(_SLOT_NAMES, self.params)]


def make_optimizer(kind: str, learning_rate: float, params, **hyper) -> Optimizer:
    """An optimizer over the writable arrays ``params`` (Q, Q1, p, p1), with
    canonical default hyperparameters."""
    return Optimizer(kind=kind, learning_rate=learning_rate, params=params,
                     **hyper)


def update(state: Optimizer, grads: GradientSet) -> None:
    """Apply one optimizer step to ``state.params`` in place."""
    all_grads = (grads.dQ, grads.dQ1, grads.dp, grads.dp1)
    for name, g, theta in zip(_SLOT_NAMES, all_grads, state.params):
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} shape {theta.shape}")

    state.t += 1
    first = state.t == 1
    for g, parts in zip(all_grads, state._blocks):
        g = g.reshape(-1)
        for part, theta, accs, step, tmp in parts:
            _step(state, g[part], theta, accs, step, tmp, first)


def _step(state: Optimizer, g: np.ndarray, theta: np.ndarray,
          accs: list[np.ndarray], step: np.ndarray, tmp: np.ndarray,
          first: bool) -> None:
    """One update of the parameter block ``theta`` and its accumulators'
    blocks ``accs`` from the gradient block ``g``, through the scratch
    blocks ``step`` and ``tmp``."""
    eta = state.learning_rate
    if state.kind == "sgd":
        np.multiply(g, eta, out=step)
    elif state.kind == "rmsprop":
        (acc,) = accs
        np.multiply(g, 1.0 - state.rho, out=tmp)
        tmp *= g
        _decay_add(acc, state.rho, tmp, first)
        # eta * g / sqrt(acc + eps)
        np.add(acc, state.eps, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.multiply(g, eta, out=step)
        step /= tmp
    else:  # adam
        m, v = accs
        np.multiply(g, 1.0 - state.beta1, out=tmp)
        _decay_add(m, state.beta1, tmp, first)
        np.multiply(g, 1.0 - state.beta2, out=tmp)
        tmp *= g
        _decay_add(v, state.beta2, tmp, first)
        # eta * (m / (1-beta1^t)) / (sqrt(v / (1-beta2^t)) + eps)
        np.divide(m, 1.0 - state.beta1 ** state.t, out=step)
        step *= eta
        np.divide(v, 1.0 - state.beta2 ** state.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
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
