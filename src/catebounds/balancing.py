"""Distributional distances between treated and control representations.

Both metrics are differentiable in the representations, so their gradients
are exact and available to the estimator loss.

- MMD: squared maximum mean discrepancy, composed from autodiff primitives.
  Linear kernel by default (squared distance between empirical means); RBF
  with the median heuristic as option.
- Wasserstein: entropic optimal transport cost <P, C> with squared Euclidean
  cost, computed by Sinkhorn iterations (Cuturi 2013) on two scaling vectors
  against one kernel, re-based in the log domain whenever a scaling would
  leave float64's safe range (Schmitzer 2019). The loop runs in numpy as a
  single tape op whose hand-written backward walks the same half-steps in
  reverse, so the gradient is still that of the unrolled log-domain loop.
"""

from __future__ import annotations

import enum
import numbers
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
        _check_iters("sinkhorn_iters", self.sinkhorn_iters)


def _check_iters(name: str, value) -> None:
    """Refuse an iteration count that is not an integer of at least 1 (a
    bool, NaN or 2.5 too)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be positive and an integer, got {value!r}")


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


# A scaling half-step divides a marginal by the kernel's sums, p = M beta or
# q = M^T alpha. While every sum is at least SCALING_FLOOR, each scaling is at
# most 1/SCALING_FLOOR (the weights are at most 1), so no sum exceeds
# max(n, m)/SCALING_FLOOR: nothing overflows, and no upper bound needs a
# check. A kernel entry below float64's normal range (2.2e-308) may lose its
# value; scaled by at most 1/SCALING_FLOOR it moves a sum of at least
# SCALING_FLOOR by a relative max(n, m) * 2.2e-308 / SCALING_FLOOR**2, which
# at 1e-100 stays under the 1.1e-16 unit roundoff for any batch below 1e91
# rows. A scaling of at most 1/SCALING_FLOOR = e^230 brings forward kernel
# entries down to about e^-460, whose exponents carry a rounding of a few
# hundred ulps: no more than the log-domain loop's own exponents C/eps, which
# reach about 1500 in training.
SCALING_FLOOR = 1e-100


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

    C is squared Euclidean distance. The potentials f and g take `iters`
    Sinkhorn updates each, in numpy. The first f update runs in the log
    domain and gives the row-stochastic kernel M = row-softmax(-C/eps +
    log w_b). Each later update is one matrix-vector product on two scaling
    vectors, alpha = w_a / (M beta) and beta = w_b / (M^T alpha), and the plan
    is diag(alpha) M diag(beta). A half-step whose sums fall below
    `SCALING_FLOOR` runs in the log domain from the potentials instead, and
    its softmax becomes the new kernel. The result is one tape node whose
    backward walks the half-steps in reverse, so gradients are those of the
    unrolled log-domain loop. The weights only set the marginals: they are
    read as constants, and a weight tensor never receives a gradient through
    this metric, even when it requires one. Non-finite costs or potentials
    raise :class:`NonFiniteError` naming the op and the iteration.
    """
    a, b = as_tensor(rep_a), as_tensor(rep_b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("representations must be 2-D with equal feature dim")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty representation group")
    if not epsilon > 0.0:  # NaN too
        raise ValueError("epsilon must be positive")
    _check_iters("iters", iters)
    wa = _constant_weights(weights_a, a.shape[0])          # (n,)
    wb = _constant_weights(weights_b, b.shape[0])          # (m,)
    log_wa, log_wb = np.log(wa), np.log(wb)
    x, y = a.data, b.data
    inv_eps = 1.0 / epsilon

    def check(values, what, t):
        if not np.isfinite(values).all():
            raise NonFiniteError(
                f"non-finite values produced by op 'sinkhorn_wasserstein': "
                f"{what} at iteration {t} of {iters}")

    # Invariants: alpha = wa / p, beta = wb / q, f = f_off - eps log p,
    # g = g_off - eps log q, and exp((f + g - C)/eps) wa wb = diag(alpha) M
    # diag(beta) for the newest kernel M. Each half-step's softmax weights
    # are diag(left) M diag(right) of its kernel, kept as (kernel, p, beta)
    # for an f half-step (left = 1/p) and (kernel, alpha, q) for a g
    # half-step (right = 1/q); a log-domain half-step's are M itself.
    kernels, steps = [], []
    ones_a, ones_b = np.ones(a.shape[0]), np.ones(b.shape[0])
    g_off, q = np.zeros(b.shape[0]), ones_b      # g = 0 before the first half-step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d2 = (x * x).sum(axis=1, keepdims=True) + (y * y).sum(axis=1) - 2.0 * (x @ y.T)
        cost = np.maximum(d2, 0.0)  # rounding can push exact zeros negative
        check(cost, "squared distances", 0)
        neg_cost = cost * -inv_eps
        for h in range(2 * iters):
            t = h // 2 + 1
            if h % 2 == 0:
                if kernels:
                    p = kernels[-1] @ beta
                    if p.min() >= SCALING_FLOOR:
                        steps.append((len(kernels) - 1, p, beta))
                        alpha = wa / p
                        continue
                # f_i = -eps * LSE_j[(g_j - C_ij)/eps + log wb_j]
                g = g_off - epsilon * np.log(q)
                f, rows = _soft_min(neg_cost + (g * inv_eps + log_wb), 1, epsilon)
                check(f, "potential f", t)
                f_off, p, alpha = f.ravel(), ones_a, wa
                g_off, q = g + epsilon * log_wb, wb
                kernels.append(rows)
            else:
                q = kernels[-1].T @ alpha
                if q.min() >= SCALING_FLOOR:
                    steps.append((len(kernels) - 1, alpha, q))
                    beta = wb / q
                    continue
                # g_j = -eps * LSE_i[(f_i - C_ij)/eps + log wa_i]
                f = f_off - epsilon * np.log(p)
                g, cols = _soft_min(neg_cost + (f * inv_eps + log_wa)[:, None], 0,
                                    epsilon)
                check(g, "potential g", t)
                g_off, q, beta = g.ravel(), ones_b, wb
                f_off, p, alpha = f + epsilon * log_wa, wa, ones_a
                kernels.append(cols)
            steps.append((len(kernels) - 1, ones_a, ones_b))
        plan = alpha[:, None] * kernels[-1] * beta
    value = (plan * cost).sum()

    def backward(grad):
        weighted = plan * cost * grad               # adjoint of log_plan
        d_cost = plan * grad - weighted * inv_eps
        # only the last iteration's f and g reach the plan directly
        d_f_plan = weighted.sum(axis=1) * inv_eps
        d_g = weighted.sum(axis=0) * inv_eps
        # a half-step adds its potential's adjoint times its softmax weights,
        # diag(left) M diag(right), to d_cost: collect the outer products
        # left x right per kernel and apply each kernel once
        lefts = [[] for _ in kernels]
        rights = [[] for _ in kernels]
        for h in range(len(steps) - 1, -1, -1):
            k, u, v = steps[h]
            kernel = kernels[k]
            if h % 2:                                # (kernel, alpha, q)
                through = d_g / v
                lefts[k].append(u)
                rights[k].append(through)
                d_f = d_f_plan - u * (kernel @ through)
                d_f_plan = 0.0
            else:                                    # (kernel, p, beta)
                through = d_f / u
                lefts[k].append(through)
                rights[k].append(v)
                d_g = -v * (kernel.T @ through)
        for kernel, left, right in zip(kernels, lefts, rights):
            d_cost += kernel * (np.stack(left, axis=1) @ np.stack(right))
        d_d2 = d_cost * (d2 > 0.0)
        if a.requires_grad:
            a._accumulate(2.0 * (d_d2.sum(axis=1, keepdims=True) * x - d_d2 @ y))
        if b.requires_grad:
            b._accumulate(2.0 * (d_d2.sum(axis=0)[:, None] * y - d_d2.T @ x))

    return Tensor._result(value, (a, b), backward, "sinkhorn_wasserstein")


def _constant_weights(weights, n: int) -> np.ndarray:
    """The normalised weights (n,), floored at 1e-300 so that their logs are
    finite, detached from any tape."""
    values = None if weights is None else as_tensor(weights).data
    return np.maximum(_group_weights(values, n).data.ravel(), 1e-300)


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
