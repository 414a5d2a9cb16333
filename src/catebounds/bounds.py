"""Treatment-effect intervals from a sensitivity parameter and outcome quantiles.

Under an odds-ratio sensitivity model with parameter Gamma >= 1, the worst-case
conditional outcome means are obtained by tilting the learned outcome density:
the lower (upper) mean re-weights the left (right) tail by 1/s_minus and the
rest by 1/s_plus, with the split at the quantile c_minus = 1/(1+Gamma)
(c_plus = Gamma/(1+Gamma)). On the flow's outcome quantiles at the k nodes
(j - 1/2)/k (`ConditionalFlow.sample`, ascending, no random draws) this is a
midpoint-rule weighted partial mean; the node at the split is divided between
the blocks in proportion to the fractional part of k*c, which makes the rule
exact for the k-node measure: Gamma = 1 collapses both bounds onto the node
mean, bounds always sandwich the mean, and widths grow weakly in Gamma.

CATE bounds per point combine the per-arm means:
lower = mu1_lower - mu0_upper, upper = mu1_upper - mu0_lower.

`cate_bounds` takes one `GammaField` that holds every delta of a run and
returns one set of bounds per delta. It computes each point's representation
once and derives the point CATE, the propensities and Gamma from it; the
quantile nodes are shared by all deltas, since only Gamma differs among them,
and one `cvar_mu_bounds` call per arm bounds them under every delta's Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import read_table, write_table
from .estimators import Stage0Model, predict_point_cate, representation
from .flow import ConditionalFlow
from .sensitivity import GammaField, PropensityModel, gamma_pointwise

__all__ = [
    "cvar_mu_bounds",
    "CateBounds",
    "cate_bounds",
    "read_bounds_csv",
    "write_bounds_csv",
]


def _partial_mean(sorted_samples: np.ndarray, csum: np.ndarray, cut: np.ndarray,
                  low_w: np.ndarray, high_w: np.ndarray) -> np.ndarray:
    """Row-wise weighted mean with the low/high split at fractional rank `cut`.

    sorted_samples: (n, k) ascending rows, csum their row-wise prefix sums.
    cut = k*c in [0, k], of shape (..., n); the boundary order statistic is
    split between blocks by cut's fractional part. low_w and high_w are the
    per-row block weights (1/s values), shaped like cut.
    """
    n, k = sorted_samples.shape
    i0 = np.minimum(np.floor(cut).astype(np.int64), k)
    frac = cut - i0
    total = csum[:, -1]
    rows = np.arange(n)
    # sum of the first i0 entries (0 when i0 == 0)
    low_full = np.where(i0 > 0, csum[rows, np.maximum(i0 - 1, 0)], 0.0)
    boundary = np.where(i0 < k, sorted_samples[rows, np.minimum(i0, k - 1)], 0.0)
    low_sum = low_full + frac * boundary
    high_sum = total - low_sum
    return (low_w * low_sum + high_w * high_sum) / k


def cvar_mu_bounds(sorted_samples: np.ndarray, gamma: np.ndarray,
                   pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case outcome-mean interval per row of a sorted sample matrix.

    sorted_samples: (n, k) or (k,), ascending. pi broadcasts to (n,) and
    gamma to (..., n). Returns (mu_lower, mu_upper), each of gamma's shape:
    row d of a (D, n) gamma's bounds equals a call with gamma[d], bit for
    bit. 1-D samples drop the n axis (scalars for a scalar gamma).
    """
    samples = np.asarray(sorted_samples, dtype=np.float64)
    squeeze = samples.ndim == 1
    if squeeze:
        samples = samples[None, :]
    if samples.ndim != 2 or samples.shape[1] < 1:
        raise ValueError("need a non-empty 2-D sample matrix")
    if np.any(np.diff(samples, axis=1) < 0.0):
        raise ValueError("samples must be sorted ascending")
    n, k = samples.shape
    gamma = np.asarray(gamma, dtype=np.float64)
    gamma = np.broadcast_to(gamma, (*gamma.shape[:-1], n))
    pi = np.broadcast_to(np.asarray(pi, dtype=np.float64), (n,))
    if np.any(gamma < 1.0):
        raise ValueError("gamma must be >= 1")
    if np.any((pi <= 0.0) | (pi >= 1.0)):
        raise ValueError("pi must lie strictly inside (0, 1)")

    inv_gamma = 1.0 / gamma
    inv_s_minus = (1.0 - gamma) * pi + gamma          # >= 1
    inv_s_plus = (1.0 - inv_gamma) * pi + inv_gamma   # <= 1
    c_minus = 1.0 / (1.0 + gamma)
    c_plus = gamma / (1.0 + gamma)

    csum = np.cumsum(samples, axis=1)
    mu_lower = _partial_mean(samples, csum, k * c_minus, inv_s_minus, inv_s_plus)
    mu_upper = _partial_mean(samples, csum, k * c_plus, inv_s_plus, inv_s_minus)
    # at Gamma = 1 the tilt is the identity; pin the collapse to the sample
    # mean bitwise instead of leaving it to summation order
    identity = gamma == 1.0
    if np.any(identity):
        mean = samples.mean(axis=1)
        mu_lower = np.where(identity, mean, mu_lower)
        mu_upper = np.where(identity, mean, mu_upper)
    if squeeze:
        return mu_lower.take(0, axis=-1), mu_upper.take(0, axis=-1)
    return mu_lower, mu_upper


@dataclass
class CateBounds:
    """Per-point treatment-effect interval with its ingredients."""

    point: np.ndarray        # stage-0 head difference
    lower: np.ndarray
    upper: np.ndarray
    gamma: np.ndarray
    pi1_phi: np.ndarray


# rows per flow.sample call, which bounds the (rows, k) matrix held at once
CHUNK = 128


def cate_bounds(
    x: np.ndarray,
    model: Stage0Model,
    prop_x: PropensityModel,
    prop_phi: PropensityModel,
    field: GammaField,
    flow: ConditionalFlow,
    k: int,
) -> list[CateBounds]:
    """Interval bounds on the representation-level CATE at each row of `x`,
    one CateBounds per delta of `field`, in the field's order.

    Per point: compute the representation once, and from it the point CATE,
    pi^phi and, with pi^x, the pointwise Gamma; look up Gamma at every delta
    (own pointwise value included); take the flow's outcomes at k quantile
    nodes per arm; and combine the per-arm extremal means. The nodes depend
    on neither Gamma nor the chunk, so each chunk's are computed and bounded
    once per arm, under every delta's Gamma at once: the result for a delta
    equals that of a field built for that delta alone.
    """
    if k < 1:
        raise ValueError("k must be positive")
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    phi = representation(model, x)
    point = predict_point_cate(model, phi)
    pi1_phi = prop_phi.predict(phi)
    gammas = field.at(phi, gamma_pointwise(prop_x.predict(x), pi1_phi))

    lowers = np.empty_like(gammas)
    uppers = np.empty_like(gammas)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        p1, g = pi1_phi[lo:hi], gammas[:, lo:hi]
        s1 = flow.sample(np.ones(hi - lo), phi[lo:hi], k)
        s0 = flow.sample(np.zeros(hi - lo), phi[lo:hi], k)
        mu1_lo, mu1_hi = cvar_mu_bounds(s1, g, p1)
        mu0_lo, mu0_hi = cvar_mu_bounds(s0, g, 1.0 - p1)
        lowers[:, lo:hi] = mu1_lo - mu0_hi
        uppers[:, lo:hi] = mu1_hi - mu0_lo
    return [CateBounds(point=point, lower=lower, upper=upper, gamma=gamma,
                       pi1_phi=pi1_phi)
            for gamma, lower, upper in zip(gammas, lowers, uppers)]


def read_bounds_csv(path: str | Path) -> CateBounds:
    """Load a table written by write_bounds_csv."""
    header, rows = read_table(path)
    if header != ["id", "tau_hat", "lower", "upper", "gamma", "pi1_phi",
                  "decision"]:
        raise ValueError(f"{path}: not a bounds table")
    if not rows:
        raise ValueError(f"{path}: empty bounds table")
    cols = np.array(rows)[:, 1:6].astype(np.float64)
    return CateBounds(point=cols[:, 0], lower=cols[:, 1], upper=cols[:, 2],
                      gamma=cols[:, 3], pi1_phi=cols[:, 4])


def write_bounds_csv(path: str | Path, bounds: CateBounds,
                     decisions: Sequence[str]) -> None:
    """Per-point interval table: id, point, interval, Gamma, pi, decision."""
    write_table(path, {"id": np.arange(len(bounds.point)),
                       "tau_hat": bounds.point, "lower": bounds.lower,
                       "upper": bounds.upper, "gamma": bounds.gamma,
                       "pi1_phi": bounds.pi1_phi, "decision": decisions})
