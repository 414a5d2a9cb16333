"""Composed tape versions of the fused ops, kept as test oracles.

`sinkhorn_wasserstein`, `spline_params` and `rq_spline` each run as one tape
op with a hand-written backward. The versions below build the same maps from
elementary tape ops, so their gradients come from the tape's own chain rule;
the property tests compare the fused ops against them in value and gradient.
The primitives only these oracles use live here too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from catebounds.autodiff import Tensor, as_tensor, constant, slice_last
from catebounds.balancing import _group_weights, _pairwise_sq_dists, _transpose
from catebounds.flow import (MIN_BIN, MIN_DERIVATIVE, TAIL_BOUND, FlowConfig,
                             _bin_index)


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


def logsumexp_last(t: Tensor, keepdims: bool = False) -> Tensor:
    """log(sum(exp(t))) along the last axis, stabilised by a constant shift.

    The max shift is treated as a constant; the expression is identical for any
    constant shift, so gradients are exact.
    """
    shift = np.max(t.data, axis=-1, keepdims=True)
    shifted = t - constant(shift)
    out = shifted.exp().sum(axis=-1, keepdims=True).log() + constant(shift)
    if not keepdims:
        out = out.reshape(*t.data.shape[:-1])
    return out


def softmax_last(t: Tensor) -> Tensor:
    shift = np.max(t.data, axis=-1, keepdims=True)
    e = (t - constant(shift)).exp()
    return e / e.sum(axis=-1, keepdims=True)


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

    def _bins(u: Tensor):
        widths = softmax_last(u) * (1.0 - MIN_BIN * k) + MIN_BIN
        inner = slice_last(cumsum_last(widths), 0, k - 1) * (2.0 * b) - b
        cum = concat_last([neg_b, inner, pos_b])
        eff = slice_last(cum, 1, k + 1) - slice_last(cum, 0, k)
        return cum, eff

    cumw, w = _bins(uw)
    cumh, h = _bins(uh)
    shift = float(np.log(np.expm1(1.0 - MIN_DERIVATIVE)))
    inner_d = (ud + shift).softplus() + MIN_DERIVATIVE
    one = constant(np.ones((n, 1)))
    d = concat_last([one, inner_d, one])
    return cumw, w, cumh, h, d


def rq_spline(inputs, cumw, w, cumh, h, d):
    """Forward spline and logabsdet, from gathers and elementwise tape ops."""
    inputs = np.asarray(inputs, dtype=np.float64)
    squeeze = inputs.ndim == 1
    vals = inputs[:, None] if squeeze else inputs
    inside = np.abs(vals) <= TAIL_BOUND
    clamped = np.clip(vals, -TAIL_BOUND, TAIL_BOUND)
    idx = _bin_index(clamped, cumw.data)

    wk = take_along_last(w, idx)
    hk = take_along_last(h, idx)
    cwk = take_along_last(slice_last(cumw, 0, cumw.shape[-1] - 1), idx)
    chk = take_along_last(slice_last(cumh, 0, cumh.shape[-1] - 1), idx)
    dk = take_along_last(d, idx)
    dk1 = take_along_last(d, idx + 1)
    s = hk / wk

    theta = (constant(clamped) - cwk) / wk
    t1m = theta * (1.0 - theta)
    denom = s + (dk1 + dk - 2.0 * s) * t1m
    deriv_num = s * s * (dk1 * theta * theta + 2.0 * s * t1m + dk * (1.0 - theta) ** 2)
    logabsdet = deriv_num.log() - 2.0 * denom.log()
    out = chk + hk * (s * theta * theta + dk * t1m) / denom

    mask = constant(inside.astype(np.float64))
    out = mask * out + constant(np.where(inside, 0.0, vals))
    logabsdet = mask * logabsdet
    if squeeze:
        return out.reshape(-1), logabsdet.reshape(-1)
    return out, logabsdet
