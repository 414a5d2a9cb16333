"""Composed tape versions of the fused ops, kept as test oracles.

`forward_mlp`, `sinkhorn_wasserstein` and the flow's `spline_nll` each run
as one tape op with a hand-written backward. The versions below build the
same maps from elementary tape ops, so their gradients come from the tape's
own chain rule; the property tests compare the fused ops against them in
value and gradient. The flow's NLL is composed from `spline_params` and
`rq_spline` on the tape, which the tests also compare with the plain-array
spline's maps in value and with their pullbacks in gradient. The primitives only these oracles use live here too.
So do the per-tensor loops of `AdamW` and `SgdMomentum`, which the
flat-buffer optimizers must match bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from catebounds.autodiff import Tensor, as_tensor, constant, slice_last
from catebounds.balancing import _group_weights, _pairwise_sq_dists, _transpose
from catebounds.flow import (LOG_2PI, MIN_BIN, MIN_DERIVATIVE, TAIL_BOUND,
                             FlowConfig, _bin_index)
from catebounds.nets import ADAM_BETAS, ADAM_EPS, SGD_MOMENTUM, MlpConfig


def assert_close(fused: np.ndarray, oracle: np.ndarray, rtol: float = 1e-9):
    """Agreement relative to the oracle's largest magnitude."""
    scale = max(float(np.max(np.abs(oracle))), 1e-300)
    assert float(np.max(np.abs(fused - oracle))) <= rtol * scale, (fused, oracle)


# -- primitives ----------------------------------------------------------------


def concat_last(parts: Sequence[Tensor | np.ndarray]) -> Tensor:
    """Concatenate along the last axis; backward splits the adjoint."""
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[-1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[..., lo:hi])

    return Tensor._result(out_data, tuple(parts), backward, "concat_last")


def cumsum_last(t: Tensor) -> Tensor:
    out_data = np.cumsum(t.data, axis=-1)

    def backward(g):
        t._accumulate(np.flip(np.cumsum(np.flip(g, -1), axis=-1), -1))

    return Tensor._result(out_data, (t,), backward, "cumsum_last")


def take_along_last(t: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis with integer indices of matching rank."""
    idx = np.asarray(idx)
    out_data = np.take_along_axis(t.data, idx, axis=-1)

    def backward(g):
        k = t.data.shape[-1]
        flat = np.zeros((int(np.prod(t.data.shape[:-1], dtype=np.int64)), k))
        gi = np.broadcast_to(idx, g.shape).reshape(-1, g.shape[-1])
        gg = g.reshape(-1, g.shape[-1])
        rows = np.repeat(np.arange(flat.shape[0]), g.shape[-1])
        np.add.at(flat, (rows, gi.ravel()), gg.ravel())
        t._accumulate(flat.reshape(t.data.shape))

    return Tensor._result(out_data, (t,), backward, "take_along_last")


def log(t: Tensor) -> Tensor:
    def backward(g):
        t._accumulate(g / t.data)

    return Tensor._result(np.log(t.data), (t,), backward, "log")


def elu(t: Tensor) -> Tensor:
    """ELU with alpha = 1 in its `np.where` form: x where x > 0, else
    expm1(min(x, 0)), so -0.0 maps to +0.0."""
    out_data = np.where(t.data > 0.0, t.data, np.expm1(np.minimum(t.data, 0.0)))

    def backward(g):
        t._accumulate(g * np.where(t.data > 0.0, 1.0, out_data + 1.0))

    return Tensor._result(out_data, (t,), backward, "elu")


def logsumexp_last(t: Tensor, keepdims: bool = False) -> Tensor:
    """log(sum(exp(t))) along the last axis, stabilised by a constant shift.

    The max shift is treated as a constant; the expression is identical for any
    constant shift, so gradients are exact.
    """
    shift = np.max(t.data, axis=-1, keepdims=True)
    shifted = t - constant(shift)
    out = log(shifted.exp().sum(axis=-1, keepdims=True)) + constant(shift)
    if not keepdims:
        out = out.reshape(*t.data.shape[:-1])
    return out


def softmax_last(t: Tensor) -> Tensor:
    shift = np.max(t.data, axis=-1, keepdims=True)
    e = (t - constant(shift)).exp()
    return e / e.sum(axis=-1, keepdims=True)


# -- the MLP and its optimizers ------------------------------------------------


def forward_mlp(cfg: MlpConfig, params: Sequence[Tensor], x) -> Tensor:
    """`elu(x @ W1 + b1) @ W2 + b2` from five tape ops."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"expected input of shape (n, {cfg.input_dim}), got {x.shape}")
    w1, b1, w2, b2 = params
    return elu(x @ w1 + b1) @ w2 + b2


class AdamW:
    """Adam with decoupled weight decay, one parameter tensor at a time;
    each step rebinds every parameter's `data` to a new array."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        b1, b2 = ADAM_BETAS
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1**self.t)
            v_hat = self.v[i] / (1.0 - b2**self.t)
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * p.data
            )


class SgdMomentum:
    """SGD with heavy-ball momentum and optional L2 weight decay, one
    parameter tensor at a time."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.velocity[i] = SGD_MOMENTUM * self.velocity[i] + g
            p.data = p.data - self.lr * self.velocity[i]


# -- Sinkhorn ------------------------------------------------------------------


def sinkhorn_wasserstein(rep_a, rep_b, *, epsilon: float = 0.1, iters: int = 10,
                         weights_a=None, weights_b=None) -> Tensor:
    """Log-domain Sinkhorn unrolled through the tape, weights as constants."""
    a, b = as_tensor(rep_a), as_tensor(rep_b)
    wa = _group_weights(weights_a, a.shape[0])
    wb = _group_weights(weights_b, b.shape[0])
    log_wa = constant(np.log(np.maximum(wa.data, 1e-300)))
    log_wb = constant(np.log(np.maximum(wb.data, 1e-300)))
    cost = _pairwise_sq_dists(a, b)
    f = constant(np.zeros((a.shape[0], 1)))
    g = constant(np.zeros((1, b.shape[0])))
    neg_cost = cost * (-1.0 / epsilon)
    for _ in range(iters):
        f = logsumexp_last(neg_cost + g * (1.0 / epsilon) + _transpose(log_wb),
                           keepdims=True) * (-epsilon)
        g_col = logsumexp_last(
            _transpose(neg_cost) + _transpose(f) * (1.0 / epsilon) + _transpose(log_wa),
            keepdims=True,
        ) * (-epsilon)
        g = _transpose(g_col)
    log_plan = (f + g - cost) * (1.0 / epsilon) + log_wa + _transpose(log_wb)
    plan = log_plan.exp()
    return (plan * cost).sum()


# -- the spline ----------------------------------------------------------------


def spline_params(raw: Tensor, cfg: FlowConfig):
    k = cfg.knots
    b = TAIL_BOUND
    n = raw.shape[0]
    uw = slice_last(raw, 0, k)
    uh = slice_last(raw, k, 2 * k)
    ud = slice_last(raw, 2 * k, 3 * k - 1)

    neg_b = constant(np.full((n, 1), -b))
    pos_b = constant(np.full((n, 1), b))

    def _knots(u: Tensor):
        widths = softmax_last(u) * (1.0 - MIN_BIN * k) + MIN_BIN
        inner = slice_last(cumsum_last(widths), 0, k - 1) * (2.0 * b) - b
        return concat_last([neg_b, inner, pos_b])

    cumw, cumh = _knots(uw), _knots(uh)
    shift = float(np.log(np.expm1(1.0 - MIN_DERIVATIVE)))
    inner_d = (ud + shift).softplus() + MIN_DERIVATIVE
    one = constant(np.ones((n, 1)))
    d = concat_last([one, inner_d, one])
    return cumw, cumh, d


def rq_spline(vals: np.ndarray, cumw: Tensor, cumh: Tensor, d: Tensor):
    """Forward spline and logabsdet of `vals` (n, m), from gathers and
    elementwise tape ops; bin widths and heights are slices of the knots
    subtracted on the tape."""
    inside = np.abs(vals) <= TAIL_BOUND
    clamped = np.clip(vals, -TAIL_BOUND, TAIL_BOUND)
    idx = _bin_index(clamped, cumw.data)
    k = cumw.shape[-1] - 1

    wk = take_along_last(slice_last(cumw, 1, k + 1) - slice_last(cumw, 0, k), idx)
    hk = take_along_last(slice_last(cumh, 1, k + 1) - slice_last(cumh, 0, k), idx)
    cwk = take_along_last(slice_last(cumw, 0, k), idx)
    chk = take_along_last(slice_last(cumh, 0, k), idx)
    dk = take_along_last(d, idx)
    dk1 = take_along_last(d, idx + 1)
    s = hk / wk

    theta = (constant(clamped) - cwk) / wk
    t1m = theta * (1.0 - theta)
    denom = s + (dk1 + dk - 2.0 * s) * t1m
    deriv_num = s * s * (dk1 * theta * theta + 2.0 * s * t1m + dk * (1.0 - theta) ** 2)
    logabsdet = log(deriv_num) - 2.0 * log(denom)
    out = chk + hk * (s * theta * theta + dk * t1m) / denom

    mask = constant(inside.astype(np.float64))
    out = mask * out + constant(np.where(inside, 0.0, vals))
    logabsdet = mask * logabsdet
    return out, logabsdet


def spline_nll(raw: Tensor, y_std: np.ndarray, cfg: FlowConfig,
               log_std: float) -> Tensor:
    """The mean of z^2/2 + log(2 pi)/2 - logabsdet over the spline's outputs,
    plus `log_std`, through the composed spline."""
    z, logabsdet = rq_spline(y_std, *spline_params(raw, cfg))
    return (z * z * 0.5 + (0.5 * LOG_2PI) - logabsdet).mean() + log_std
