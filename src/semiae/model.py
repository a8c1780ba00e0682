"""The semi-autoencoder network: forward pass, losses and exact gradients.

A three-layer net whose output reconstructs only a designated prefix of its
input.  With input x (length S), hidden h (length H) and output length D:

    h   = g(x @ Q + p)
    out = f(h @ Q1 + p1)

where Q is S x H and Q1 is H x D.  The reconstruction target is the first D
coordinates of x, so auxiliary side information concatenated after the
rating block conditions the reconstruction without being reconstructed
itself.  With S = D this degenerates to a classical autoencoder.

One objective, :func:`reconstruction_loss`, is the squared error averaged
over rows, with an L2 penalty on the weight matrices (never the biases).
Without a mask it measures all D outputs (top-n ranking); with one, only the
observed target positions (rating prediction).

Two training steps give it with its exact gradients, and share the L2
term's code:

* :func:`sparse_loss_and_gradients`, for an identity ``f`` without a mask
  (the ranking default), reads the batch as its likes, each of value 1.0,
  with their flat indices, in one :class:`SparseIndex`, and its side rows,
  and densifies nothing: no array of the batch's rows by D or by S.
* :func:`loss_and_gradients` takes the dense batch, for every other case
  (the masked rating loss, a non-identity ``f``).

A training loop hands either one :class:`Workspace`, made once, that holds
the gradients and the block scratch of the L2 term; the dense step also
uses its four batch-sized buffers, each taking several of the step's
intermediates in turn, and a fifth for the derivative of a non-identity
``f``, so that a step allocates nothing of the dense batch's size or of a
parameter's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dataset import (RowDecoder, json_numbers, json_object, store_read_only,
                      write_json)

MODEL_SCHEMA_VERSION = 1

# elements per block of the training step's elementwise passes over the
# parameters, so that the operands of one block stay in the L2 cache
# (16k-64k elements measured the same)
BLOCK = 32768


def _identity(z: np.ndarray, out=None, scratch=None) -> np.ndarray:
    return z


def _ones(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return np.ones_like(a)
    out.fill(1.0)
    return out


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    # two-branch form, 1/(1+e) for z >= 0 and e/(1+e) below, e = exp(-|z|),
    # as max(sign(z), e)/(1+e), since e <= 1 and e = 1 at z = 0: exp only
    # ever sees -|z|
    top = np.sign(z, out=np.empty(np.shape(z)) if scratch is None else scratch)
    e = np.abs(z, out=np.empty(np.shape(z)) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(top, e, out=top)
    e += 1.0
    return np.divide(top, e, out=e)


def _relu(z: np.ndarray, out=None, scratch=None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def _tanh(z: np.ndarray, out=None, scratch=None) -> np.ndarray:
    return np.tanh(z, out=out)


@dataclass(frozen=True)
class Activation:
    """An elementwise activation ``a = fn(z)`` with its derivative written
    in terms of the activation's value: ``fn'(z) = deriv_at_value(a)``, so a
    backward pass reuses the forward pass's output.

    Both give a new array (the identity gives ``z`` itself), or write into
    ``out``: ``fn(z, z, scratch)`` overwrites ``z``, with the sigmoid's
    ``scratch`` a float array of its shape (a new one if None), and
    ``deriv_at_value(a, out)`` fills a float array ``out``."""

    fn: Callable[..., np.ndarray]
    deriv_at_value: Callable[..., np.ndarray]


ACTIVATIONS = {
    "identity": Activation(_identity, _ones),
    "sigmoid": Activation(_sigmoid, lambda s, out=None: np.multiply(
        s, np.subtract(1.0, s, out=out), out=out)),
    "relu": Activation(_relu, lambda h, out=None: np.greater(h, 0, out=out)),
    "tanh": Activation(_tanh, lambda t, out=None: np.subtract(
        1.0, np.multiply(t, t, out=out), out=out)),
}


@dataclass(frozen=True)
class SemiAEParams:
    """Weights and biases of one network, plus its activation kinds.

    Shapes: Q (S, H), Q1 (H, D), p (H,), p1 (D,).  The benchmark regime has
    H < D <= S, but shapes are only checked for mutual consistency so that
    degenerate and toy configurations remain constructible.
    """

    Q: np.ndarray
    Q1: np.ndarray
    p: np.ndarray
    p1: np.ndarray
    g: str = "sigmoid"
    f: str = "identity"

    def __post_init__(self) -> None:
        for name in (self.g, self.f):
            if name not in ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}; "
                                 f"valid: {sorted(ACTIVATIONS)}")
        if self.Q.ndim != 2 or self.Q1.ndim != 2:
            raise ValueError("Q and Q1 must be matrices")
        s, h = self.Q.shape
        h1, d = self.Q1.shape
        if h != h1:
            raise ValueError(f"hidden dims disagree: Q is {s}x{h}, Q1 is {h1}x{d}")
        if self.p.shape != (h,) or self.p1.shape != (d,):
            raise ValueError("bias shapes must be (H,) and (D,)")
        for arr in (self.Q, self.Q1, self.p, self.p1):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")
        store_read_only(self, "Q", "Q1", "p", "p1")

    @property
    def input_dim(self) -> int:
        return self.Q.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.Q.shape[1]

    @property
    def output_dim(self) -> int:
        return self.Q1.shape[1]


@dataclass(frozen=True)
class GradientSet:
    """Gradients with the same shapes as the corresponding parameters."""

    dQ: np.ndarray
    dQ1: np.ndarray
    dp: np.ndarray
    dp1: np.ndarray


@dataclass(frozen=True)
class Workspace:
    """The buffers that :func:`loss_and_gradients` writes, for batches of
    up to B rows: the gradients, of the parameters' shapes, and the batch's
    intermediates, each buffer holding the ones its comment names in turn.
    A loop makes one with :meth:`for_params` and every step reuses it; a
    batch of b rows uses the leading b rows of each buffer.
    :func:`sparse_loss_and_gradients` uses only the gradients and the
    block, so its loop makes one of 0 rows."""

    grads: GradientSet   # the gradients, C-contiguous
    hidden: np.ndarray   # (B, H) z1, the hidden activations, dLoss/dz1
    output: np.ndarray   # (B, D) z2, the output, dLoss/dz2
    squares: np.ndarray  # (B, D) a sigmoid f's scratch, the squared errors
    slope: np.ndarray    # (B, H) a sigmoid g's scratch, g'
    deriv: np.ndarray    # (B, D) f', of 0 rows for an identity f
    block: np.ndarray    # one block, the scratch of the L2 term's passes

    @classmethod
    def for_params(cls, params: SemiAEParams, rows: int) -> Workspace:
        theta = (params.Q, params.Q1, params.p, params.p1)
        h, d = params.Q1.shape
        return cls(GradientSet(*(np.empty(a.shape) for a in theta)),
                   np.empty((rows, h)), np.empty((rows, d)),
                   np.empty((rows, d)), np.empty((rows, h)),
                   np.empty((0 if params.f == "identity" else rows, d)),
                   np.empty(min(BLOCK, max(params.Q.size, params.Q1.size))))


def glorot_init(input_dim: int, hidden_dim: int, output_dim: int,
                g: str = "sigmoid", f: str = "identity",
                rng: np.random.Generator | None = None) -> SemiAEParams:
    """Fresh parameters: uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    if rng is None:
        rng = np.random.default_rng()
    lim_q = np.sqrt(6.0 / (input_dim + hidden_dim))
    lim_q1 = np.sqrt(6.0 / (hidden_dim + output_dim))
    return SemiAEParams(
        Q=rng.uniform(-lim_q, lim_q, (input_dim, hidden_dim)),
        Q1=rng.uniform(-lim_q1, lim_q1, (hidden_dim, output_dim)),
        p=np.zeros(hidden_dim),
        p1=np.zeros(output_dim),
        g=g,
        f=f,
    )


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, np.float64)
    was_vector = x.ndim == 1
    batch = np.atleast_2d(x)
    if batch.ndim != 2 or batch.shape[1] != dim:
        raise ValueError(f"{what} has shape {x.shape}, expected (..., {dim})")
    return batch, was_vector


def forward_from(params: SemiAEParams, z1: np.ndarray,
                 work: Workspace | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The forward pass of a batch from ``z1 = x @ Q`` on, so that a caller
    can let the input go once that product is formed.  ``z1`` becomes the
    hidden activations in place.  Given a :class:`Workspace`, the output is
    written into ``work.output`` and the activations take their scratch
    from ``work.slope`` and ``work.squares``; without one, into new arrays.
    Returns ``(h, out)``."""
    rows = slice(len(z1))
    z2, g_scratch, f_scratch = (None,) * 3 if work is None else (
        work.output[rows], work.slope[rows], work.squares[rows])
    z1 += params.p
    hid = ACTIVATIONS[params.g].fn(z1, z1, g_scratch)
    z2 = np.matmul(hid, params.Q1, out=z2)
    z2 += params.p1
    return hid, ACTIVATIONS[params.f].fn(z2, z2, f_scratch)


def forward(params: SemiAEParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the network on one vector or a batch of rows.

    Returns ``(h, out)`` with the same leading shape as ``x``.
    """
    batch, was_vector = _as_batch(x, params.input_dim, "input")
    hid, out = forward_from(params, batch @ params.Q)
    if was_vector:
        return hid[0], out[0]
    return hid, out


def _exact_sum(arr: np.ndarray) -> float:
    # correctly rounded, hence independent of summation order
    return math.fsum(arr.ravel().tolist())


def _weight_penalty(params: SemiAEParams, reg: float) -> float:
    if reg == 0.0:
        return 0.0
    return 0.5 * reg * (_exact_sum(params.Q * params.Q)
                        + _exact_sum(params.Q1 * params.Q1))


def _check_loss_args(params, batch_x, targets, mask):
    batch, _ = _as_batch(batch_x, params.input_dim, "input batch")
    tgt, _ = _as_batch(targets, params.output_dim, "targets")
    if tgt.shape[0] != batch.shape[0]:
        raise ValueError("batch and targets row counts differ")
    if mask is not None:
        mask = np.atleast_2d(np.asarray(mask, bool))
        if mask.shape != tgt.shape:
            raise ValueError("mask shape must match targets")
    return batch, tgt, mask


def reconstruction_loss(params: SemiAEParams, batch_x: np.ndarray,
                        targets: np.ndarray, mask: np.ndarray | None = None,
                        reg: float = 0.0) -> float:
    """Mean per-row squared error at the mask-true target positions (all of
    them without ``mask``), plus the weight penalty:
    ``(1/B) sum_rows ||mask * (target-out)||^2 + (reg/2)(||Q||^2 + ||Q1||^2)``.

    Rows with an all-false mask contribute nothing (they still count in the
    row average, mirroring an objective that sums over all rows but only
    observed coordinates).  The sums are exactly rounded, so the value is a
    function of the terms alone, comparable against any independent
    accumulation.
    """
    batch, tgt, m = _check_loss_args(params, batch_x, targets, mask)
    _, out = forward_from(params, batch @ params.Q)
    diff = out - tgt
    if m is not None:
        diff *= m
    return (_exact_sum(diff * diff) / batch.shape[0]
            + _weight_penalty(params, reg))


def blocks(size: int) -> list[slice]:
    """Consecutive slices of at most :data:`BLOCK` elements covering
    ``range(size)``."""
    return [slice(lo, min(lo + BLOCK, size)) for lo in range(0, size, BLOCK)]


def _add_scaled(acc: np.ndarray, scale: float, a: np.ndarray,
                scratch: np.ndarray) -> None:
    """``acc += scale * a`` on contiguous arrays, one block at a time
    through ``scratch``, of at least one block or ``a.size`` elements; an
    array of one block in one pass."""
    if a.size <= BLOCK:
        acc += np.multiply(a, scale, out=scratch[:a.size].reshape(a.shape))
        return
    acc, a = acc.reshape(-1), a.reshape(-1)
    for part in blocks(a.size):
        term = scratch[:part.stop - part.start]
        np.multiply(a[part], scale, out=term)
        acc[part] += term


def _penalty(params: SemiAEParams, reg: float, grads: GradientSet) -> float:
    """The L2 term of a step's loss, summed in floating point.  The
    weights' squares fill the weight gradients' buffers, which the step
    writes over next."""
    if reg == 0.0:
        return 0.0
    np.multiply(params.Q, params.Q, out=grads.dQ)
    np.multiply(params.Q1, params.Q1, out=grads.dQ1)
    return 0.5 * reg * (float(np.sum(grads.dQ)) + float(np.sum(grads.dQ1)))


def _add_penalty_gradient(params: SemiAEParams, reg: float,
                          work: Workspace) -> None:
    """Add the L2 term's gradient to the weight gradients in ``work``."""
    if reg != 0.0:
        _add_scaled(work.grads.dQ, reg, params.Q, work.block)
        _add_scaled(work.grads.dQ1, reg, params.Q1, work.block)


def loss_and_gradients(params: SemiAEParams, batch_x: np.ndarray,
                       targets: np.ndarray, mask: np.ndarray | None = None,
                       reg: float = 0.0, work: Workspace | None = None
                       ) -> tuple[float, GradientSet]:
    """Compute :func:`reconstruction_loss`, summed in floating point rather
    than exactly rounded, and its exact analytic gradients, L2 term included.

    The gradients and the batch's intermediates are written into ``work``,
    a :class:`Workspace` of at least the batch's rows, or a fresh one, and
    ``work.grads`` is returned.  With ``work`` given, a call allocates
    nothing of the batch's size.
    """
    batch, tgt, m = _check_loss_args(params, batch_x, targets, mask)
    b = batch.shape[0]
    if work is None:
        work = Workspace.for_params(params, b)
    out = work.grads
    hid, pred = forward_from(
        params, np.matmul(batch, params.Q, out=work.hidden[:b]), work)
    # both derivatives come from the activations' values; an identity f's
    # is 1 and its multiply is skipped
    if params.f != "identity":
        f_prime = ACTIVATIONS[params.f].deriv_at_value(pred, work.deriv[:b])
    g_prime = ACTIVATIONS[params.g].deriv_at_value(hid, work.slope[:b])

    # the output buffer becomes the difference, then dLoss/dz2
    diff = np.subtract(pred, tgt, out=pred)
    if m is not None:
        diff *= m
    loss = float(np.sum(np.multiply(diff, diff, out=work.squares[:b]))) / b
    loss += _penalty(params, reg, out)

    d_z2 = diff
    d_z2 *= 2.0 / b
    if params.f != "identity":
        d_z2 *= f_prime
    np.matmul(hid.T, d_z2, out=out.dQ1)
    np.sum(d_z2, axis=0, out=out.dp1)
    d_z1 = np.matmul(d_z2, params.Q1.T, out=hid)  # h is used up
    d_z1 *= g_prime
    np.matmul(batch.T, d_z1, out=out.dQ)
    np.sum(d_z1, axis=0, out=out.dp)
    _add_penalty_gradient(params, reg, work)
    return loss, out


class SparseIndex(NamedTuple):
    """A batch's likes as :func:`sparse_loss_and_gradients` reads them:
    like k is item ``cols[k]``, of value ``values[k]``, 1.0, with the flat
    indices by which the step gathers its H terms and scatters them, each
    of shape (likes, H): row k holds like k's H places in the flat memory
    of a C-contiguous array.

    ``rows`` places it in a (b, H) array at its batch row (``z1``, ``T
    Q1^T`` and the gathers of ``h`` and ``dLoss/dz1``), ``q`` in Q at its
    item's row (its Q row and the ``dQ`` scatter), and ``q1`` in Q1 at its
    item's column (its Q1 column and the ``dQ1`` scatter)."""

    cols: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    q: np.ndarray
    q1: np.ndarray

    def part(self, lo: int, hi: int) -> SparseIndex:
        """The index of the likes ``lo:hi``, as views."""
        return SparseIndex(*(a[lo:hi] for a in self))


def sparse_index(at: np.ndarray, cols: np.ndarray, values: np.ndarray,
                 hidden_dim: int, output_dim: int) -> SparseIndex:
    """The :class:`SparseIndex` of the likes at batch rows ``at`` and
    columns ``cols`` of a network of ``hidden_dim`` hidden units and
    ``output_dim`` outputs.  ``values`` are the likes' values; any other
    than 1.0 is refused.  A training loop builds it once for an epoch's
    layout and hands each batch its :meth:`~SparseIndex.part`, with ``at``
    counted from the batch's first row."""
    if len(bad := values[values != 1.0]):
        raise ValueError(f"the sparse step reads likes of value 1.0, got "
                         f"{bad[0]}")
    k = np.arange(hidden_dim)
    cols = np.asarray(cols, np.intp)
    return SparseIndex(cols, values, (at * hidden_dim)[:, None] + k,
                       (cols * hidden_dim)[:, None] + k,
                       cols[:, None] + k * output_dim)


def sparse_loss_and_gradients(params: SemiAEParams, index: SparseIndex,
                              side_rows: np.ndarray, reg: float = 0.0,
                              work: Workspace | None = None
                              ) -> tuple[float, GradientSet]:
    """:func:`loss_and_gradients` of a network with an identity ``f``,
    without a mask, on a batch of likes: ``index``, the batch's
    :class:`SparseIndex` from :func:`sparse_index`, holds a 1.0 for each
    like in the first D inputs of its row, which are also its targets T,
    and ``side_rows`` holds the rest of each row.

    No array of the batch's dense shape is made.  With ``out = h Q1 + p1``,
    ``||out - T||^2 = ||out||^2 - 2<out, T> + ||T||^2``: the first part and
    the output layer's gradients come from H x H products, and the other
    parts, ``x @ Q`` and ``x.T @ dLoss/dz1`` from the likes (the exact
    sparse-target update of Vincent, de Brebisson and Bouthillier, 2015,
    arXiv:1412.7091).  The sums run in another order than the dense
    step's, so the two agree to rounding, not bit for bit, and a close fit
    could lose digits of the loss to the expansion's cancellation.

    The gradients are written into ``work.grads`` (a workspace of any
    rows, or a fresh one of 0 rows), and the step's other arrays are of
    the likes' count or of the batch's rows, by H.  Each scatter adds the
    likes' terms in their order: ``x @ Q`` and ``T Q1^T`` share one flat
    index, ``index.rows``, and ``T Q1^T``, which starts at zero, is its
    ``np.bincount``, which adds in index order from +0.0 as ``np.add.at``
    does into zeros, so the result does not depend on which of the two
    makes it.  A like's value of 1.0 multiplies no term, and ``dQ1``'s
    terms scale ``h`` by ``-2/b`` before it is gathered: b x H products in
    place of likes x H.
    """
    if params.f != "identity" or params.input_dim < params.output_dim:
        raise ValueError("the sparse step needs an identity f and an input "
                         "that begins with the targets")
    if work is None:
        work = Workspace.for_params(params, 0)
    grads = work.grads
    dQ, dQ1, dp, dp1 = grads.dQ, grads.dQ1, grads.dp, grads.dp1
    Q, Q1, p1 = params.Q, params.Q1, params.p1
    (h, d), b = Q1.shape, len(side_rows)
    g = ACTIVATIONS[params.g]
    cols, in_row = index.cols, index.rows.reshape(-1)

    # z1 = x Q + p, and T Q1^T: each like adds its Q row, or its Q1
    # column, to its batch row
    terms = np.take(Q.reshape(-1), index.q)
    z1 = side_rows @ Q[d:]
    np.add.at(z1.reshape(-1), in_row, terms.reshape(-1))
    z1 += params.p
    hid = g.fn(z1, z1)
    terms = np.take(Q1.reshape(-1), index.q1)
    t_q1 = np.bincount(in_row, terms.reshape(-1),
                       minlength=b * h).reshape(b, h)

    q1_q1 = Q1 @ Q1.T
    q1_p1 = Q1 @ p1
    h_sum = hid.sum(axis=0)
    d_h = hid @ q1_q1
    # ||out||^2 - 2 <out, T> + ||T||^2, the last the count of likes
    loss = (float(np.sum(d_h * hid)) + 2.0 * float(h_sum @ q1_p1)
            + b * float(p1 @ p1)
            - 2.0 * (float(np.sum(hid * t_q1))
                     + float(index.values @ p1[cols]))
            + float(len(cols))) / b
    if math.isnan(loss) and all(np.isfinite(a).all()
                                for a in (Q, Q1, params.p, p1)):
        # a sum of squares of finite terms can only overflow, to inf,
        # where its expansion may take inf - inf or inf * 0
        loss = math.inf
    loss += _penalty(params, reg, grads)

    # dLoss/dh = (2/b) (out - T) Q1^T, then dLoss/dz1
    d_h += q1_p1
    d_h -= t_q1
    d_h *= 2.0 / b
    d_z1 = np.multiply(d_h, g.deriv_at_value(hid), out=d_h)
    # dQ1 = (2/b) h^T (out - T) = (2/b) (h^T h Q1 + h_sum p1^T - h^T T); the
    # rank-one part is added a row at a time: np.outer's broadcast takes
    # twice as long at H=10 and buffers ~100 KB
    np.matmul((hid.T @ hid) * (2.0 / b), Q1, out=dQ1)
    for row, scale in zip(dQ1, (h_sum * (2.0 / b)).tolist()):
        row += p1 * scale
    terms = np.take((hid * (-2.0 / b)).reshape(-1), index.rows)
    np.add.at(dQ1.reshape(-1), index.q1.reshape(-1), terms.reshape(-1))
    # dp1 = (2/b) (h_sum Q1 + b p1 - the column sums of T)
    np.matmul(h_sum * (2.0 / b), Q1, out=dp1)
    dp1 += 2.0 * p1
    np.add.at(dp1, cols, -2.0 / b)
    # dQ = x^T dLoss/dz1: the side rows' product, and each like's row's
    # dLoss/dz1 in its Q row
    dQ[:d] = 0.0
    np.matmul(side_rows.T, d_z1, out=dQ[d:])
    terms = np.take(d_z1.reshape(-1), index.rows)
    np.add.at(dQ.reshape(-1), index.q.reshape(-1), terms.reshape(-1))
    np.sum(d_z1, axis=0, out=dp)
    _add_penalty_gradient(params, reg, work)
    return loss, grads


def save_params(path: str | Path, params: SemiAEParams,
                config_echo: dict | None = None) -> None:
    """Write the versioned model JSON with deterministic bytes; the arrays
    go out as nested lists, and floats survive a round trip losslessly."""
    write_json(path, {
        "schema_version": MODEL_SCHEMA_VERSION,
        "dims": {"S": params.input_dim, "H": params.hidden_dim,
                 "D": params.output_dim},
        "activations": {"g": params.g, "f": params.f},
        "Q": params.Q,
        "Q1": params.Q1,
        "p": params.p,
        "p1": params.p1,
        "training_config_echo": config_echo or {},
    })


def load_params(path: str | Path) -> tuple[SemiAEParams, dict]:
    """Read a model JSON written by :func:`save_params`; returns (params,
    config echo).  A malformed file, or an array not nested to the shape of
    the file's ``dims``, raises ValueError naming it.  ``Q`` and ``Q1`` are
    decoded one row at a time by :class:`~semiae.dataset.RowDecoder`, so no
    weight is ever a Python float; what the read holds at its peak is the
    file's text, twice while it is decoded from UTF-8."""
    with json_object(path, "model JSON", MODEL_SCHEMA_VERSION,
                     RowDecoder) as doc:
        dims = doc["dims"]
        shapes = {"Q": (dims["S"], dims["H"]), "Q1": (dims["H"], dims["D"]),
                  "p": (dims["H"],), "p1": (dims["D"],)}
        arrays = {key: json_numbers(doc[key], np.float64, key)
                  for key in shapes}
        for key, shape in shapes.items():
            if arrays[key].shape != shape:
                raise ValueError(f"{key}: shape {arrays[key].shape} is not "
                                 f"{shape}")
        params = SemiAEParams(
            **arrays,
            g=doc["activations"]["g"],
            f=doc["activations"]["f"],
        )
        echo = doc.get("training_config_echo", {})
        if not isinstance(echo, dict):
            raise ValueError("'training_config_echo' is not an object")
    return params, echo
