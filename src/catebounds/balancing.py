"""Distributional distances between treated and control representations.

Both metrics are differentiable in the representations, so their gradients
are exact and available to the estimator loss.

- MMD: squared maximum mean discrepancy, composed from autodiff primitives.
  Linear kernel by default (squared distance between empirical means); RBF
  with the median heuristic as option.
- Wasserstein: entropic optimal transport cost <P, C> with squared Euclidean
  cost, computed by log-domain Sinkhorn iterations (Cuturi 2013). The loop
  runs in numpy as a single tape op whose hand-written backward walks the
  same iterations in reverse, so the gradient is that of the unrolled loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError, Tensor, as_tensor

__all__ = [
    "BalancingMetric",
    "BalancingConfig",
    "mmd",
    "sinkhorn_wasserstein",
    "balancing_penalty",
]


class BalancingMetric(enum.Enum):
    MMD = "mmd"
    WASSERSTEIN = "wasserstein"


@dataclass(frozen=True)
class BalancingConfig:
    metric: BalancingMetric = BalancingMetric.MMD
    alpha: float = 1.0
    kernel: str = "linear"          # "linear" | "rbf" (MMD only)
    sinkhorn_epsilon: float = 0.1
    sinkhorn_iters: int = 10

    def __post_init__(self):
        if not self.alpha >= 0.0:  # NaN fails every test
            raise ValueError("alpha must be non-negative")
        if self.kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not self.sinkhorn_epsilon > 0.0:
            raise ValueError("sinkhorn_epsilon must be positive")
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be positive")


def _group_weights(weights, n: int) -> Tensor:
    """Normalise optional per-sample weights to sum 1; uniform when absent."""
    if weights is None:
        return Tensor(np.full((n, 1), 1.0 / n))
    w = as_tensor(weights)
    if w.ndim == 1:
        w = w.reshape(-1, 1)
    if np.any(w.data < 0.0):
        raise ValueError("weights must be non-negative")
    return w / w.sum()


def _pairwise_sq_dists(x: Tensor, y: Tensor) -> Tensor:
    xx = (x * x).sum(axis=1, keepdims=True)          # (n, 1)
    yy = (y * y).sum(axis=1, keepdims=True)          # (m, 1)
    cross = x @ _transpose(y)                         # (n, m)
    d2 = xx + _transpose(yy) - 2.0 * cross
    # rounding can push exact zeros slightly negative
    return d2.relu()


def _transpose(t: Tensor) -> Tensor:
    data = t.data.T

    def backward(g):
        t._accumulate(g.T)

    return Tensor._result(data, (t,), backward, "transpose")


def mmd(rep_a: Tensor | np.ndarray, rep_b: Tensor | np.ndarray, *,
        kernel: str = "linear", weights_a=None, weights_b=None) -> Tensor:
    """Squared MMD between two representation samples of shape (n_i, d).

    Linear kernel: || weighted_mean(a) - weighted_mean(b) ||^2. RBF kernel:
    biased V-statistic; the bandwidth is the median pairwise squared distance
    of the pooled sample, treated as a constant for gradients.
    """
    a, b = as_tensor(rep_a), as_tensor(rep_b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("representations must be 2-D with equal feature dim")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty representation group")
    wa = _group_weights(weights_a, a.shape[0])
    wb = _group_weights(weights_b, b.shape[0])
    if kernel == "linear":
        mean_a = (a * wa).sum(axis=0)
        mean_b = (b * wb).sum(axis=0)
        diff = mean_a - mean_b
        return (diff * diff).sum()
    if kernel != "rbf":
        raise ValueError(f"unknown kernel {kernel!r}")
    bandwidth = _median_bandwidth(np.concatenate([a.data, b.data], axis=0))
    k_aa = (_pairwise_sq_dists(a, a) * (-1.0 / bandwidth)).exp()
    k_bb = (_pairwise_sq_dists(b, b) * (-1.0 / bandwidth)).exp()
    k_ab = (_pairwise_sq_dists(a, b) * (-1.0 / bandwidth)).exp()
    val = (
        (wa * k_aa * _transpose(wa)).sum()
        + (wb * k_bb * _transpose(wb)).sum()
        - 2.0 * (wa * k_ab * _transpose(wb)).sum()
    )
    return val.relu()  # V-statistic is >= 0 analytically; clamp float dust


def _median_bandwidth(pooled: np.ndarray) -> float:
    """The median pairwise squared distance of the rows of `pooled` (two or
    more), floored at 1e-12."""
    d2 = (
        (pooled**2).sum(1)[:, None] + (pooled**2).sum(1)[None, :]
        - 2.0 * pooled @ pooled.T
    )
    return max(float(np.median(d2[np.triu_indices_from(d2, k=1)])), 1e-12)


def sinkhorn_wasserstein(
    rep_a: Tensor | np.ndarray,
    rep_b: Tensor | np.ndarray,
    *,
    epsilon: float = 0.1,
    iters: int = 10,
    weights_a=None,
    weights_b=None,
) -> Tensor:
    """Entropic OT cost <P, C> between two weighted point clouds.

    C is squared Euclidean distance. Potentials are computed by `iters`
    log-domain Sinkhorn updates in numpy; the result is one tape node whose
    backward runs back through the same updates, so gradients are those of
    the unrolled loop. The weights only set the marginals: they are read as
    constants, and a weight tensor never receives a gradient through this
    metric, even when it requires one. Non-finite costs or potentials raise
    :class:`NonFiniteError` naming the op and the iteration.
    """
    a, b = as_tensor(rep_a), as_tensor(rep_b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("representations must be 2-D with equal feature dim")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty representation group")
    if not epsilon > 0.0:  # NaN too
        raise ValueError("epsilon must be positive")
    log_wa = _constant_log_weights(weights_a, a.shape[0])          # (n, 1)
    log_wb = _constant_log_weights(weights_b, b.shape[0]).T        # (1, m)
    x, y = a.data, b.data
    inv_eps = 1.0 / epsilon

    def check(values, what, t):
        if not np.isfinite(values).all():
            raise NonFiniteError(
                f"non-finite values produced by op 'sinkhorn_wasserstein': "
                f"{what} at iteration {t} of {iters}")

    halves = []      # each iteration's row and column softmax weights
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d2 = (x * x).sum(axis=1, keepdims=True) + (y * y).sum(axis=1) - 2.0 * (x @ y.T)
        cost = np.maximum(d2, 0.0)  # rounding can push exact zeros negative
        check(cost, "squared distances", 0)
        neg_cost = cost * -inv_eps
        f = np.zeros((a.shape[0], 1))
        g = np.zeros((1, b.shape[0]))
        for t in range(1, iters + 1):
            # f_i = -eps * LSE_j[(g_j - C_ij)/eps + log wb_j]
            f, rows = _soft_min(neg_cost + g * inv_eps + log_wb, 1, epsilon)
            check(f, "potential f", t)
            # g_j = -eps * LSE_i[(f_i - C_ij)/eps + log wa_i]
            g, cols = _soft_min(neg_cost + f * inv_eps + log_wa, 0, epsilon)
            check(g, "potential g", t)
            halves.append((rows, cols))
        plan = np.exp((f + g - cost) * inv_eps + log_wa + log_wb)
    value = (plan * cost).sum()

    def backward(grad):
        weighted = plan * cost * grad               # adjoint of log_plan
        d_cost = plan * grad - weighted * inv_eps
        # only the last iteration's f and g reach the plan directly
        d_f_plan = weighted.sum(axis=1, keepdims=True) * inv_eps
        d_g = weighted.sum(axis=0, keepdims=True) * inv_eps
        for rows, cols in reversed(halves):
            through_g = d_g * cols
            d_cost += through_g
            through_f = (d_f_plan - through_g.sum(axis=1, keepdims=True)) * rows
            d_cost += through_f
            d_g = -through_f.sum(axis=0, keepdims=True)
            d_f_plan = 0.0
        d_d2 = d_cost * (d2 > 0.0)
        if a.requires_grad:
            a._accumulate(2.0 * (d_d2.sum(axis=1, keepdims=True) * x - d_d2 @ y))
        if b.requires_grad:
            b._accumulate(2.0 * (d_d2.sum(axis=0)[:, None] * y - d_d2.T @ x))

    return Tensor._result(value, (a, b), backward, "sinkhorn_wasserstein")


def _constant_log_weights(weights, n: int) -> np.ndarray:
    """Log of the normalised weights (n, 1), detached from any tape."""
    values = None if weights is None else as_tensor(weights).data
    return np.log(np.maximum(_group_weights(values, n).data, 1e-300))


def _soft_min(z: np.ndarray, axis: int, epsilon: float):
    """-eps * logsumexp(z) along `axis` (keepdims) and the softmax weights."""
    shift = z.max(axis=axis, keepdims=True)
    e = np.exp(z - shift)
    total = e.sum(axis=axis, keepdims=True)
    return (np.log(total) + shift) * -epsilon, e / total


def balancing_penalty(cfg: BalancingConfig, rep_treated, rep_control,
                      weights_treated=None, weights_control=None) -> Tensor:
    """Dispatch to the configured metric (weights optional, per group)."""
    if cfg.metric is BalancingMetric.MMD:
        return mmd(rep_treated, rep_control, kernel=cfg.kernel,
                   weights_a=weights_treated, weights_b=weights_control)
    return sinkhorn_wasserstein(
        rep_treated, rep_control,
        epsilon=cfg.sinkhorn_epsilon, iters=cfg.sinkhorn_iters,
        weights_a=weights_treated, weights_b=weights_control,
    )
