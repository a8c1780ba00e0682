"""The semi-autoencoder network: forward pass, losses and exact gradients.

A three-layer net whose output reconstructs only a designated prefix of its
input.  With input x (length S), hidden h (length H) and output length D:

    h   = g(x @ Q + p)
    out = f(h @ Q1 + p1)

where Q is S x H and Q1 is H x D.  The reconstruction target is the first D
coordinates of x, so auxiliary side information concatenated after the
rating block conditions the reconstruction without being reconstructed
itself.  With S = D this degenerates to a classical autoencoder.

Two objectives are supported, both with an L2 penalty on the weight
matrices (never the biases):

* ``subset_loss``  -- squared error over all D outputs, averaged over rows;
* ``masked_loss``  -- squared error only at observed target positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

MODEL_SCHEMA_VERSION = 1


def _identity(z: np.ndarray) -> np.ndarray:
    return z


def _identity_deriv(z: np.ndarray) -> np.ndarray:
    return np.ones_like(z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # two-branch form: never exponentiates a large positive argument
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_deriv(z: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return s * (1.0 - s)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _relu_deriv(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, 1.0, 0.0)


def _tanh_deriv(z: np.ndarray) -> np.ndarray:
    t = np.tanh(z)
    return 1.0 - t * t


@dataclass(frozen=True)
class Activation:
    """An elementwise activation with its derivative (both at pre-activation)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]


ACTIVATIONS = {
    "identity": Activation("identity", _identity, _identity_deriv),
    "sigmoid": Activation("sigmoid", _sigmoid, _sigmoid_deriv),
    "relu": Activation("relu", _relu, _relu_deriv),
    "tanh": Activation("tanh", np.tanh, _tanh_deriv),
}


def activation(name: str) -> Activation:
    """Look up an activation by name, raising with the valid set on miss."""
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; "
                         f"valid: {sorted(ACTIVATIONS)}") from None


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
        activation(self.g)
        activation(self.f)
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
            arr.flags.writeable = False

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

    def check_shapes(self, params: SemiAEParams) -> None:
        if (self.dQ.shape != params.Q.shape or self.dQ1.shape != params.Q1.shape
                or self.dp.shape != params.p.shape
                or self.dp1.shape != params.p1.shape):
            raise ValueError("gradient shapes do not match parameters")


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


def concat_input(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Concatenate rating block(s) and side-information block(s), rating first."""
    r = np.asarray(r, np.float64)
    c = np.asarray(c, np.float64)
    if c.size == 0:
        return r.copy()
    return np.concatenate([r, c], axis=-1)


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, np.float64)
    was_vector = x.ndim == 1
    batch = np.atleast_2d(x)
    if batch.ndim != 2 or batch.shape[1] != dim:
        raise ValueError(f"{what} has shape {x.shape}, expected (..., {dim})")
    return batch, was_vector


def _forward_cache(params: SemiAEParams, batch_x: np.ndarray):
    z1 = batch_x @ params.Q + params.p
    hid = activation(params.g).fn(z1)
    z2 = hid @ params.Q1 + params.p1
    out = activation(params.f).fn(z2)
    return z1, hid, z2, out


def forward(params: SemiAEParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the network on one vector or a batch of rows.

    Returns ``(h, out)`` with the same leading shape as ``x``.
    """
    batch, was_vector = _as_batch(x, params.input_dim, "input")
    _, hid, _, out = _forward_cache(params, batch)
    if was_vector:
        return hid[0], out[0]
    return hid, out


def _exact_sum(arr: np.ndarray) -> float:
    # correctly rounded, hence independent of summation order
    return math.fsum(arr.ravel().tolist())


def _weight_penalty(params: SemiAEParams, reg: float, exact: bool) -> float:
    if reg == 0.0:
        return 0.0
    reduce = _exact_sum if exact else lambda a: float(np.sum(a))
    return 0.5 * reg * (reduce(params.Q * params.Q)
                        + reduce(params.Q1 * params.Q1))


def _loss_value(params, batch_x, targets, mask, reg) -> float:
    # public losses use exactly rounded sums so that the value is a function
    # of the terms alone, comparable against any independent accumulation
    _, _, _, out = _forward_cache(params, batch_x)
    diff = out - targets
    if mask is not None:
        diff = diff * mask
    return (_exact_sum(diff * diff) / batch_x.shape[0]
            + _weight_penalty(params, reg, exact=True))


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


def subset_loss(params: SemiAEParams, batch_x: np.ndarray, targets: np.ndarray,
                reg: float = 0.0) -> float:
    """Mean per-row squared error over all outputs, plus the weight penalty.

    ``(1/B) sum_rows ||target - out||^2 + (reg/2)(||Q||^2 + ||Q1||^2)``.
    """
    batch, tgt, _ = _check_loss_args(params, batch_x, targets, None)
    return _loss_value(params, batch, tgt, None, reg)


def masked_loss(params: SemiAEParams, batch_x: np.ndarray, targets: np.ndarray,
                mask: np.ndarray, reg: float = 0.0) -> float:
    """Like :func:`subset_loss` but measuring only mask-true target positions.

    Rows with an all-false mask contribute nothing (they still count in the
    row average, mirroring an objective that sums over all rows but only
    observed coordinates).
    """
    batch, tgt, m = _check_loss_args(params, batch_x, targets, mask)
    return _loss_value(params, batch, tgt, m, reg)


def loss_and_gradients(params: SemiAEParams, batch_x: np.ndarray,
                       targets: np.ndarray, mask: np.ndarray | None = None,
                       reg: float = 0.0) -> tuple[float, GradientSet]:
    """Compute the (masked or full) loss and its exact analytic gradients."""
    batch, tgt, m = _check_loss_args(params, batch_x, targets, mask)
    b = batch.shape[0]
    z1, hid, z2, out = _forward_cache(params, batch)

    diff = out - tgt
    if m is not None:
        diff = diff * m
    loss = float(np.sum(diff * diff)) / b + _weight_penalty(params, reg,
                                                            exact=False)

    d_out = (2.0 / b) * diff
    d_z2 = d_out * activation(params.f).deriv(z2)
    d_q1 = hid.T @ d_z2
    d_p1 = d_z2.sum(axis=0)
    d_hid = d_z2 @ params.Q1.T
    d_z1 = d_hid * activation(params.g).deriv(z1)
    d_q = batch.T @ d_z1
    d_p = d_z1.sum(axis=0)
    if reg != 0.0:
        d_q = d_q + reg * params.Q
        d_q1 = d_q1 + reg * params.Q1
    return loss, GradientSet(d_q, d_q1, d_p, d_p1)


def params_to_dict(params: SemiAEParams, config_echo: dict | None = None) -> dict:
    """Versioned JSON-ready form; floats survive a round trip losslessly."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "dims": {"S": params.input_dim, "H": params.hidden_dim,
                 "D": params.output_dim},
        "activations": {"g": params.g, "f": params.f},
        "Q": params.Q.tolist(),
        "Q1": params.Q1.tolist(),
        "p": params.p.tolist(),
        "p1": params.p1.tolist(),
        "training_config_echo": config_echo or {},
    }


def params_from_dict(doc: dict) -> tuple[SemiAEParams, dict]:
    """Inverse of :func:`params_to_dict`; returns (params, config echo)."""
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {version}")
    try:
        dims = doc["dims"]
        params = SemiAEParams(
            Q=np.asarray(doc["Q"], np.float64).reshape(dims["S"], dims["H"]),
            Q1=np.asarray(doc["Q1"], np.float64).reshape(dims["H"], dims["D"]),
            p=np.asarray(doc["p"], np.float64).reshape(dims["H"]),
            p1=np.asarray(doc["p1"], np.float64).reshape(dims["D"]),
            g=doc["activations"]["g"],
            f=doc["activations"]["f"],
        )
    except KeyError as exc:
        raise ValueError(f"model JSON has no {exc} entry") from None
    return params, doc.get("training_config_echo", {})


def save_params(path: str | Path, params: SemiAEParams,
                config_echo: dict | None = None) -> None:
    """Write the model JSON with deterministic bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params, config_echo), fh,
                  sort_keys=True, separators=(",", ":"))


def load_params(path: str | Path) -> tuple[SemiAEParams, dict]:
    """Read a model JSON written by :func:`save_params`; a malformed file
    raises ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return params_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def with_arrays(params: SemiAEParams, Q: np.ndarray, Q1: np.ndarray,
                p: np.ndarray, p1: np.ndarray) -> SemiAEParams:
    """A copy of ``params`` with replaced arrays (activations unchanged)."""
    return replace(params, Q=Q, Q1=Q1, p=p, p1=p1)
