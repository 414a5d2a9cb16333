"""Data-driven sensitivity analysis for a learned representation.

The representation of a CATE estimator may discard covariate information that
predicts treatment. The induced hidden-confounding strength at a point is
measured by the odds ratio between the covariate propensity pi^x(x) and the
representation propensity pi^phi(phi):

    lambda = (pi0^phi / pi1^phi) * (pi1^x / pi0^x),   Gamma_point = max(lambda, 1/lambda)

Gamma_point >= 1 always, with equality iff the two propensities agree. The
field value at a representation is the maximum of Gamma_point over training
points whose standardized representation lies within a Euclidean delta-ball
(the query's own Gamma_point included), which makes the field conservative and
weakly increasing in delta.

With a one-dimensional representation the ball maximum uses a sorted index,
not an all-pairs comparison: each query's ball is the run of sorted training
rows that pass the ball test, found by bisection with the same floating-point
test, and a sparse-table range maximum answers it: O(n log n) per delta, then
O(log n) per query. The result equals the all-pairs maximum bit for bit,
points exactly on the edge included. With more dimensions every query is
compared with every training row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .autodiff import no_grad
from .data import write_table
from .estimators import PROPENSITY_CLIP, bce_logits
from .nets import AdamW, Mlp, MlpConfig, TrainRun, fit

__all__ = [
    "DELTA_PRESETS",
    "PropensityModel",
    "train_propensity",
    "gamma_pointwise",
    "gamma_ball",
    "GammaField",
    "build_gamma_field",
    "write_gamma_csv",
]

# delta ball radii on standardized representations
DELTA_PRESETS = (0.0005, 0.001, 0.005, 0.01, 0.05)


@dataclass
class PropensityModel:
    """Binary treatment probability P(A=1 | inputs), clamped to (0.01, 0.99).

    The net is trained on logits with BCE; inputs are standardized by the
    training statistics stored here.
    """

    net: Mlp
    mean: np.ndarray
    std: np.ndarray
    loss_trace: list[float] = field(default_factory=list)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64).T).T
        z = (x - self.mean) / self.std
        with no_grad():
            logits = self.net(z).data[:, 0]
        return np.clip(expit(logits), *PROPENSITY_CLIP)

    def to_checkpoint(self) -> dict:
        return {
            "kind": "propensity",
            "config": {
                "input_dim": self.net.cfg.input_dim,
                "hidden_units": self.net.cfg.hidden_units,
                "seed": self.net.cfg.seed,
            },
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "params": self.net.param_arrays(),
            "loss_trace": self.loss_trace,
        }

    @staticmethod
    def from_checkpoint(payload: dict) -> "PropensityModel":
        if payload.get("kind") != "propensity":
            raise ValueError("not a propensity checkpoint")
        cfg = payload["config"]
        net = Mlp(MlpConfig(cfg["input_dim"], cfg["hidden_units"], 1,
                            seed=cfg["seed"]))
        net.load_param_arrays(payload["params"])
        model = PropensityModel(net=net,
                                mean=np.asarray(payload["mean"], dtype=np.float64),
                                std=np.asarray(payload["std"], dtype=np.float64))
        model.loss_trace = list(payload.get("loss_trace", []))
        return model


def train_propensity(inputs: np.ndarray, treatments: np.ndarray, run: TrainRun,
                     *, hidden_units: int, seed: int = 0) -> PropensityModel:
    """Fit P(A=1 | inputs) by minibatch AdamW on the logit BCE."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64).T).T
    a = np.asarray(treatments, dtype=np.float64).reshape(-1)
    if len(x) != len(a):
        raise ValueError("inputs and treatments must have equal length")
    if not np.all(np.isin(a, (0.0, 1.0))):
        raise ValueError("treatment must be binary")
    if a.min() == a.max():
        raise ValueError("dataset has a single treatment group")
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-8)
    z = (x - mean) / std

    seq = np.random.SeedSequence(seed).spawn(2)
    net = Mlp(MlpConfig(x.shape[1], hidden_units, 1,
                        seed=int(seq[0].generate_state(1)[0])))
    opt = AdamW(net.parameters(), lr=run.learning_rate,
                weight_decay=run.weight_decay)
    shuffle_rng = np.random.default_rng(int(seq[1].generate_state(1)[0]))
    trace = list(fit(lambda idx: bce_logits(net(z[idx]), a[idx]), [opt],
                     len(x), run, shuffle_rng))
    return PropensityModel(net=net, mean=mean, std=std, loss_trace=trace)


def gamma_pointwise(pi1_x: np.ndarray, pi1_phi: np.ndarray) -> np.ndarray:
    """Pointwise sensitivity from the two treated-probabilities.

    Both inputs must lie in (0, 1); the result is max(lambda, 1/lambda) >= 1
    with lambda the propensity odds ratio.
    """
    px = np.asarray(pi1_x, dtype=np.float64)
    pp = np.asarray(pi1_phi, dtype=np.float64)
    # written so that NaN fails the test too
    if not (np.all((px > 0.0) & (px < 1.0)) and np.all((pp > 0.0) & (pp < 1.0))):
        raise ValueError("propensities must lie strictly inside (0, 1)")
    lam = ((1.0 - pp) / pp) * (px / (1.0 - px))
    return np.maximum(lam, 1.0 / lam)


def _first_false(holds, m: int, n: int) -> np.ndarray:
    """Per query i of m, the first j in [0, n) at which `holds` is False.

    `holds(cols)` tests query i against column cols[i], and must hold on a
    prefix of [0, n) for every query. A vectorized bisection: n.bit_length()
    rounds halve each query's open interval until it is empty.
    """
    lo = np.zeros(m, dtype=np.intp)
    hi = np.full(m, n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        ok = holds(np.minimum(mid, n - 1))
        open_ = lo < hi
        lo = np.where(open_ & ok, mid + 1, lo)
        hi = np.where(open_ & ~ok, mid, hi)
    return lo


def _range_max(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(vals[lo[i]:hi[i]]) per i by a sparse table, -inf on an empty range.

    Row k of the table holds the maxima of the windows of length 2**k, so a
    range is covered by two windows of its largest power-of-two length:
    O(n log n) to build and O(1) per range. A maximum is exact, so the overlap
    of the two windows changes nothing.
    """
    n = len(vals)
    table = np.full((n.bit_length(), n), -np.inf)
    table[0] = vals
    for k in range(1, len(table)):
        w = 1 << (k - 1)
        table[k, :n - 2 * w + 1] = np.maximum(table[k - 1, :n - 2 * w + 1],
                                              table[k - 1, w:n - w + 1])
    out = np.full(len(lo), -np.inf)
    rows = np.flatnonzero(hi > lo)
    first, stop = lo[rows], hi[rows]
    k = np.frexp((stop - first).astype(np.float64))[1] - 1  # floor(log2(length))
    out[rows] = np.maximum(table[k, first], table[k, stop - (1 << k)])
    return out


def _max_within_delta(query: np.ndarray, base: np.ndarray, base_vals: np.ndarray,
                      self_vals: np.ndarray, delta: float) -> np.ndarray:
    """Per query row: max of base_vals within the delta-ball, and its own value.

    Base row b is in the ball of query q iff fl(sum_j fl((q_j - b_j)**2)) <=
    fl(delta**2). With one coordinate the base rows are sorted, and rounding
    is monotone, so each ball is one run [lo, hi) of that order, found per
    query by bisection on that same test; a sparse table gives its maximum.
    Ties and points exactly on the edge land as in the all-pairs test, bit for
    bit. With more coordinates every query is tested against every base row.
    Inputs must be finite.
    """
    out = np.array(self_vals, dtype=np.float64, copy=True)
    d2_max = delta * delta
    if query.shape[1] > 1:
        chunk = 512  # queries per all-pairs block
        for lo in range(0, len(query), chunk):
            hi = min(lo + chunk, len(query))
            diff = query[lo:hi, None, :] - base[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            masked = np.where(d2 <= d2_max, base_vals[None, :], -np.inf)
            out[lo:hi] = np.maximum(out[lo:hi], masked.max(axis=1))
        return out

    m, n = len(query), len(base)
    if n == 0:
        return out
    order = np.argsort(base[:, 0], kind="stable")
    q, b, vals = query[:, 0], base[order, 0], base_vals[order]

    def beyond(cols, side):
        # b[cols] is outside the ball, on `side` of q
        diff = q - b[cols]
        return (side * diff > 0.0) & (diff * diff > d2_max)

    lo = _first_false(lambda cols: beyond(cols, 1.0), m, n)
    hi = _first_false(lambda cols: ~beyond(cols, -1.0), m, n)
    return np.maximum(out, _range_max(vals, lo, hi))


def _check_field_inputs(phis: np.ndarray, gammas: np.ndarray, name: str) -> None:
    """The index sorts by phi, so it needs finite keys; Gammas are >= 1."""
    if len(phis) != len(gammas):
        raise ValueError(f"phis and {name} must have equal length")
    if not np.all(np.isfinite(phis)):
        raise ValueError("representations must be finite")
    if not np.all(np.isfinite(gammas)):
        raise ValueError(f"{name} must be finite")
    if np.any(gammas < 1.0):
        raise ValueError(f"{name} must be >= 1")


def gamma_ball(phis_std: np.ndarray, gamma_points: np.ndarray,
               delta: float) -> np.ndarray:
    """Training-set field: Gamma_hat_i = max Gamma_point over the delta-ball.

    `phis_std` must already be standardized; each point's own Gamma_point is in
    its ball, so Gamma_hat >= Gamma_point >= 1 everywhere.
    """
    if not delta >= 0.0:  # NaN included
        raise ValueError("delta must be non-negative")
    phis_std = np.atleast_2d(np.asarray(phis_std, dtype=np.float64).T).T
    gamma_points = np.asarray(gamma_points, dtype=np.float64).reshape(-1)
    _check_field_inputs(phis_std, gamma_points, "gamma_points")
    return _max_within_delta(phis_std, phis_std, gamma_points, gamma_points, delta)


@dataclass
class GammaField:
    """Conservative sensitivity field over representation space.

    Stores the training cloud (standardized), its pointwise Gammas, and the
    ball radius. Queries take a raw representation plus its own Gamma_point and
    return max(own, ball maximum over training points within delta).
    """

    delta: float
    mean: np.ndarray
    std: np.ndarray
    train_phis_std: np.ndarray
    train_gamma_points: np.ndarray
    train_gamma_hat: np.ndarray

    def standardize(self, phis: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(phis, dtype=np.float64).T).T
        return (p - self.mean) / self.std

    def at(self, phis: np.ndarray, gamma_point: np.ndarray) -> np.ndarray:
        q = self.standardize(phis)
        own = np.asarray(gamma_point, dtype=np.float64).reshape(-1)
        _check_field_inputs(q, own, "gamma_point")
        return _max_within_delta(q, self.train_phis_std, self.train_gamma_points,
                                 own, self.delta)


def build_gamma_field(train_phis: np.ndarray, train_pi1_x: np.ndarray,
                      train_pi1_phi: np.ndarray, delta: float) -> GammaField:
    """Standardize the training representations and precompute the field."""
    phis = np.atleast_2d(np.asarray(train_phis, dtype=np.float64).T).T
    mean = phis.mean(axis=0)
    std = np.maximum(phis.std(axis=0), 1e-8)
    phis_std = (phis - mean) / std
    gp = gamma_pointwise(train_pi1_x, train_pi1_phi)
    gh = gamma_ball(phis_std, gp, delta)
    return GammaField(delta=delta, mean=mean, std=std, train_phis_std=phis_std,
                      train_gamma_points=gp, train_gamma_hat=gh)


def write_gamma_csv(path: str | Path, phis: np.ndarray, pi1_x: np.ndarray,
                    pi1_phi: np.ndarray, gamma_points: np.ndarray,
                    gamma_hat: np.ndarray) -> None:
    """Per-point sensitivity table: id, representation, propensities, Gammas."""
    phis = np.atleast_2d(np.asarray(phis, dtype=np.float64).T).T
    columns = {"id": np.arange(len(phis))}
    columns.update({f"phi{j + 1}": phis[:, j] for j in range(phis.shape[1])})
    columns.update(pi1_x=pi1_x, pi1_phi=pi1_phi, gamma_point=gamma_points,
                   gamma_hat=gamma_hat)
    write_table(path, columns)
