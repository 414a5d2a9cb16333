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

A run evaluates the field at several radii delta. `build_gamma_field` builds
one `GammaField` for all of them: it standardizes the training cloud, computes
its Gamma_point and indexes it once, and the field's training values and its
queries come back with one row per delta.

With a one-dimensional representation the index is the sorted cloud plus a
sparse table of range maxima, built once in O(n log n). Each query's ball is
the run of sorted training rows that pass the ball test, found by bisection
with the same floating-point test: O(log n) per query and delta. The result
equals the all-pairs maximum bit for bit, points exactly on the edge
included. With more dimensions every query is compared with every training
row once, and the squared distances serve every delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import write_tables
from .estimators import PROPENSITY_CLIP, bce_logits
from .nets import (AdamW, Mlp, MlpConfig, Standardizer, TrainRun, as_columns,
                   checkpoint, child_seeds, fit, fit_standardizer,
                   load_checkpoint, read_checkpoint)
from .special import expit

__all__ = [
    "DELTA_PRESETS",
    "PropensityModel",
    "train_propensity",
    "gamma_pointwise",
    "GammaField",
    "build_gamma_field",
    "write_gamma_csv",
]

# delta ball radii on standardized representations
DELTA_PRESETS = (0.0005, 0.001, 0.005, 0.01, 0.05)


# the MlpConfig fields a propensity record keeps; the output is one logit
_PROPENSITY_CONFIG = ("input_dim", "hidden_units", "seed")


@dataclass
class PropensityModel:
    """Binary treatment probability P(A=1 | inputs), clamped to (0.01, 0.99).

    The net is trained on logits with BCE; inputs are standardized by the
    training statistics stored here.
    """

    net: Mlp
    scaler: Standardizer
    loss_trace: list[float] = field(default_factory=list)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        logits = self.net.predict(inputs, prepare=self.scaler.apply)[:, 0]
        return np.clip(expit(logits), *PROPENSITY_CLIP)

    def to_checkpoint(self) -> dict:
        config = {k: getattr(self.net.cfg, k) for k in _PROPENSITY_CONFIG}
        return checkpoint("propensity", config, {"net": self.net},
                          self.scaler._asdict(), self.loss_trace)

    @staticmethod
    def from_checkpoint(payload: dict) -> "PropensityModel":
        net = Mlp(MlpConfig(output_dim=1, **read_checkpoint(
            payload, "propensity", _PROPENSITY_CONFIG)))
        d = net.cfg.input_dim
        model = PropensityModel(net, Standardizer(np.zeros(d), np.ones(d)))
        model.loss_trace = load_checkpoint(payload, {"net": net},
                                           model.scaler._asdict())
        return model


def train_propensity(inputs: np.ndarray, treatments: np.ndarray, run: TrainRun,
                     *, hidden_units: int, seed: int = 0) -> PropensityModel:
    """Fit P(A=1 | inputs) by minibatch AdamW on the logit BCE."""
    x = as_columns(inputs)
    a = np.asarray(treatments, dtype=np.float64).reshape(-1)
    if len(x) != len(a):
        raise ValueError("inputs and treatments must have equal length")
    if not np.all(np.isin(a, (0.0, 1.0))):
        raise ValueError("treatment must be binary")
    if a.min() == a.max():
        raise ValueError("dataset has a single treatment group")
    scaler = fit_standardizer(x)

    seeds = child_seeds(seed, ("net", "shuffle"))
    net = Mlp(MlpConfig(x.shape[1], hidden_units, 1, seed=seeds["net"]))
    opt = AdamW(net.parameters(), lr=run.learning_rate,
                weight_decay=run.weight_decay)
    # each batch is standardized as it is drawn, which gives the rows of a
    # standardized copy of x bit for bit without holding one
    trace = list(fit(lambda idx: bce_logits(net(scaler.apply(x[idx])), a[idx]),
                     [opt], len(x), run, np.random.default_rng(seeds["shuffle"])))
    return PropensityModel(net, scaler, loss_trace=trace)


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


def _sparse_table(vals: np.ndarray) -> np.ndarray:
    """Range-maximum table: row k holds the maxima of the windows of length
    2**k, -inf where a window would run off the end. O(n log n) to build."""
    n = len(vals)
    table = np.full((n.bit_length(), n), -np.inf)
    table[0] = vals
    for k in range(1, len(table)):
        w = 1 << (k - 1)
        table[k, :n - 2 * w + 1] = np.maximum(table[k - 1, :n - 2 * w + 1],
                                              table[k - 1, w:n - w + 1])
    return table


def _range_max(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(vals[lo[i]:hi[i]]) per i from `_sparse_table(vals)`, -inf on an
    empty range. Two windows of the range's largest power-of-two length cover
    it; a maximum is exact, so their overlap changes nothing."""
    out = np.full(len(lo), -np.inf)
    rows = np.flatnonzero(hi > lo)
    first, stop = lo[rows], hi[rows]
    k = np.frexp((stop - first).astype(np.float64))[1] - 1  # floor(log2(length))
    out[rows] = np.maximum(table[k, first], table[k, stop - (1 << k)])
    return out


class _BallIndex:
    """A cloud of rows with one value each, ready for delta-ball maxima.

    With one coordinate the rows are sorted once and a sparse table holds the
    range maxima of their values, so every delta and every query reuses them.
    With more coordinates the rows are kept as given.
    """

    def __init__(self, base: np.ndarray, base_vals: np.ndarray):
        self.base, self.base_vals = base, base_vals
        if base.shape[1] == 1 and len(base):
            order = np.argsort(base[:, 0], kind="stable")
            self.keys = base[order, 0]
            self.table = _sparse_table(base_vals[order])


def _max_within_delta(query: np.ndarray, index: _BallIndex,
                      self_vals: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per delta and query row: the max of the index's values within the
    delta-ball, and the query's own value. Returns (len(deltas), len(query)).

    Base row b is in the ball of query q iff fl(sum_j fl((q_j - b_j)**2)) <=
    fl(delta**2). With one coordinate rounding is monotone, so each ball is
    one run [lo, hi) of the sorted keys, found per query by bisection on that
    same test; the sparse table gives its maximum. Ties and points exactly on
    the edge land as in the all-pairs test, bit for bit. With more coordinates
    each block of queries is compared with every base row once, and the
    squared distances are masked per delta. Inputs must be finite.
    """
    own = np.asarray(self_vals, dtype=np.float64)
    out = np.tile(own, (len(deltas), 1))
    d2_maxes = [delta * delta for delta in deltas]
    base, base_vals = index.base, index.base_vals
    if query.shape[1] > 1:
        chunk = 512  # queries per all-pairs block
        for lo in range(0, len(query), chunk):
            hi = min(lo + chunk, len(query))
            diff = query[lo:hi, None, :] - base[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            for row, d2_max in zip(out, d2_maxes):
                masked = np.where(d2 <= d2_max, base_vals[None, :], -np.inf)
                row[lo:hi] = np.maximum(row[lo:hi], masked.max(axis=1))
        return out

    m, n = len(query), len(base)
    if n == 0:
        return out
    q, b = query[:, 0], index.keys

    def beyond(cols, side, d2_max):
        # b[cols] is outside the ball, on `side` of q
        diff = q - b[cols]
        return (side * diff > 0.0) & (diff * diff > d2_max)

    for row, d2_max in zip(out, d2_maxes):
        lo = _first_false(lambda cols: beyond(cols, 1.0, d2_max), m, n)
        hi = _first_false(lambda cols: ~beyond(cols, -1.0, d2_max), m, n)
        row[:] = np.maximum(row, _range_max(index.table, lo, hi))
    return out


def _check_deltas(deltas) -> np.ndarray:
    d = np.asarray(deltas, dtype=np.float64)
    if d.ndim != 1 or len(d) == 0:
        raise ValueError("need at least one delta, as a 1-D sequence")
    if not np.all(d >= 0.0):  # NaN included
        raise ValueError("delta must be non-negative")
    return d


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


@dataclass
class GammaField:
    """Conservative sensitivity field over representation space, at every
    ball radius of a run.

    Holds the training cloud's pointwise Gammas and its index, whose `base`
    is the standardized cloud, built once for all radii. `train_gamma_hat`
    and `at` give one row per delta: a query takes a raw representation plus
    its own Gamma_point and returns max(own, ball maximum over training points
    within delta).
    """

    deltas: np.ndarray
    scaler: Standardizer
    train_gamma_points: np.ndarray
    train_gamma_hat: np.ndarray
    index: _BallIndex

    def standardize(self, phis: np.ndarray) -> np.ndarray:
        p = as_columns(phis)
        d = len(self.scaler.mean)
        if p.shape[1] != d:
            raise ValueError(
                f"field is over {d}-dimensional representations, "
                f"got {p.shape[1]}-dimensional ones")
        return self.scaler.apply(p)

    def at(self, phis: np.ndarray, gamma_point: np.ndarray) -> np.ndarray:
        q = self.standardize(phis)
        own = np.asarray(gamma_point, dtype=np.float64).reshape(-1)
        _check_field_inputs(q, own, "gamma_point")
        return _max_within_delta(q, self.index, own, self.deltas)


def build_gamma_field(train_phis: np.ndarray, train_pi1_x: np.ndarray,
                      train_pi1_phi: np.ndarray, deltas) -> GammaField:
    """Standardize the training representations, index them once and
    precompute the field at every delta."""
    deltas = _check_deltas(deltas)
    scaler = fit_standardizer(train_phis)
    phis_std = scaler.apply(train_phis)
    gp = gamma_pointwise(train_pi1_x, train_pi1_phi)
    _check_field_inputs(phis_std, gp, "gamma_points")
    index = _BallIndex(phis_std, gp)
    return GammaField(deltas=deltas, scaler=scaler, train_gamma_points=gp,
                      train_gamma_hat=_max_within_delta(phis_std, index, gp, deltas),
                      index=index)


def write_gamma_csv(paths: Sequence[str | Path], phis: np.ndarray,
                    pi1_x: np.ndarray, pi1_phi: np.ndarray,
                    gamma_points: np.ndarray,
                    gamma_hats: Sequence[np.ndarray]) -> None:
    """Per-point sensitivity tables, one per delta: id, representation,
    propensities, Gammas. `paths[i]` gets `gamma_hats[i]`; the other
    columns are the same in every table and are formatted once."""
    phis = as_columns(phis)
    shared = {"id": np.arange(len(phis))}
    shared.update({f"phi{j + 1}": phis[:, j] for j in range(phis.shape[1])})
    shared.update(pi1_x=pi1_x, pi1_phi=pi1_phi, gamma_point=gamma_points)
    write_tables([(path, {**shared, "gamma_hat": gamma_hat})
                  for path, gamma_hat in zip(paths, gamma_hats, strict=True)])
