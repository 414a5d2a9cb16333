"""Conditional density model for outcomes given (treatment, representation).

A single monotone rational-quadratic spline layer with K knots on
[-B, B] and identity tails, driven by a context network that maps
(a, standardized representation) to the unnormalized spline parameters, with a
standard normal base distribution. Outcomes are standardized by training
mean/std inside the model; densities are reported in original units.

The spline parameterization follows the usual recipe (Durkan et al. 2019):
softmax-normalized bin widths/heights with a minimum bin size MIN_BIN,
softplus-transformed interior knot derivatives with a minimum MIN_DERIVATIVE,
and boundary derivatives pinned to 1 so the transform continues as the
identity outside [-B, B], B = TAIL_BOUND. The spline runs on plain arrays;
training records the context network and one NLL op, `spline_nll`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from scipy.special import expit, ndtri

from .autodiff import NonFiniteError, Tensor
from .nets import (Mlp, MlpConfig, SgdMomentum, Standardizer, TrainRun,
                   as_columns, checkpoint, fit, fit_standardizer,
                   load_checkpoint, read_checkpoint)

__all__ = [
    "FlowConfig",
    "ConditionalFlow",
    "FlowDivergenceError",
    "spline_params",
    "rq_spline",
    "rq_inverse",
    "spline_nll",
    "train_cnf",
    "TAIL_BOUND",
    "MIN_BIN",
    "MIN_DERIVATIVE",
]

LOG_2PI = float(np.log(2.0 * np.pi))
# the spline acts on [-TAIL_BOUND, TAIL_BOUND] in standardized units; every
# bin is at least MIN_BIN of that range wide and high, and every interior
# knot derivative is at least MIN_DERIVATIVE
TAIL_BOUND = 5.0
MIN_BIN = 1e-3
MIN_DERIVATIVE = 1e-3
# training aborts once the minibatch NLL has stayed above DIVERGENCE_FACTOR x
# |initial NLL| for DIVERGENCE_PATIENCE consecutive steps
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 500


class FlowDivergenceError(RuntimeError):
    """Training NLL stayed an order of magnitude above its start for too long."""


@dataclass(frozen=True)
class FlowConfig:
    context_dim: int                 # 1 (treatment) + representation dim
    hidden_units: int
    knots: int = 10
    noise_y: float = 0.1             # train-time Gaussian noise, standardized units
    noise_context: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.context_dim < 2:
            raise ValueError("context_dim must cover treatment plus representation")
        if self.knots < 2 or MIN_BIN * self.knots >= 1.0:
            raise ValueError("knots must be at least 2 and below 1/MIN_BIN")
        if not (self.noise_y >= 0.0 and self.noise_context >= 0.0):  # NaN too
            raise ValueError("noise intensities must be non-negative, got "
                             f"noise_y={self.noise_y}, "
                             f"noise_context={self.noise_context}")


# -- the spline ----------------------------------------------------------------
#
# The spline runs on plain arrays. `spline_params` turns the context net's raw
# output into knot grids and derivatives, `rq_spline` applies the forward map
# with its log-det to (n, m) points, and `rq_inverse` the inverse without it
# to one ascending grid of base points shared by all rows: sampling's
# quantile nodes. Each row's grid falls into its bins as consecutive runs, so
# the inverse computes its coefficients once per bin and repeats them.
# Training records one tape op, `spline_nll`, from the raw output to the mean
# NLL. Its hand-written backward chains the pullbacks that the private maps
# return beside their values: the rational-quadratic map's (derivatives after
# Durkan et al. 2019), whose bin sizes are knot differences, then the knots'
# softmax-cumsum and the derivatives' softplus.


def spline_params(raw: np.ndarray, cfg: FlowConfig):
    """Raw context-net output (n, 3K-1) -> knot grids and derivatives.

    Returns (cumw, cumh, d): knot positions (n, K+1) from -B to B on the
    input and output axes, and knot derivatives (n, K+1) with the two
    boundary derivatives pinned to 1. Bin widths and heights are the
    differences of consecutive knots, taken where they are used.
    """
    return tuple(p for p, _ in _params_and_pullbacks(raw, cfg))


def _params_and_pullbacks(raw: np.ndarray, cfg: FlowConfig):
    """(cumw, cumh, d), each paired with the pullback of its adjoint to the
    columns of `raw` it reads, which lie side by side in that order."""
    k = cfg.knots
    return _knots(raw[:, :k]), _knots(raw[:, k:2 * k]), _derivatives(raw[:, 2 * k:])


def _knots(u: np.ndarray):
    """Knot grid (n, K+1) from the softmax of the K columns of `u`."""
    k, b = u.shape[-1], TAIL_BOUND
    e = np.exp(u - np.max(u, axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    scale = 1.0 - MIN_BIN * k
    widths = soft * scale + MIN_BIN
    inner = np.cumsum(widths, axis=-1)[:, :k - 1] * (2.0 * b) - b
    edge = np.full((len(u), 1), b)
    cum = np.concatenate([-edge, inner, edge], axis=-1)

    def pullback(g):
        # reverse cumsum of the interior knots' adjoint, then the softmax's
        g_widths = np.zeros_like(u)
        g_widths[:, :k - 1] = np.cumsum(g[:, k - 1:0:-1], axis=-1)[:, ::-1]
        g_soft = g_widths * (2.0 * b * scale)
        return soft * (g_soft - (g_soft * soft).sum(axis=-1, keepdims=True))

    return cum, pullback


def _derivatives(u: np.ndarray):
    """Knot derivatives (n, K+1): softplus of the K-1 columns of `u`,
    shifted so that zero maps to 1, floored at the minimum; both ends 1."""
    shift = float(np.log(np.expm1(1.0 - MIN_DERIVATIVE)))
    ud = u + shift
    one = np.ones((len(ud), 1))
    d = np.concatenate([one, np.logaddexp(0.0, ud) + MIN_DERIVATIVE, one], axis=-1)
    return d, lambda g: g[:, 1:-1] * expit(ud)


def _bin_index(values: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Per-row bin of each value given row-wise knot grids (n, K+1).

    Counts the interior knots at or below each value; for increasing grids
    this is `(values >= cum[:, :-1]).sum(-1) - 1` clipped to [0, K-1],
    without the (n, m, K) comparison array.
    """
    idx = np.zeros(values.shape, dtype=np.intp)
    for j in range(1, cum.shape[-1] - 1):
        idx += values >= cum[:, j, None]
    return idx


def _gather(idx, cumw, cumh, d):
    """Each point's bin width and height, left knots and knot derivatives;
    a bin's width (height) is the difference of its two knots."""
    cwk, cwk1, chk, chk1, dk, dk1 = [
        np.take_along_axis(p, j, axis=-1)
        for p in (cumw, cumh, d) for j in (idx, idx + 1)]
    return cwk1 - cwk, chk1 - chk, cwk, chk, dk, dk1


def _scatter(values: np.ndarray, idx: np.ndarray, width: int) -> np.ndarray:
    """Sum `values` (n, m) into an (n, width) array at column `idx` of each
    row: the adjoint of a gather along the last axis."""
    n = values.shape[0]
    flat = np.arange(n)[:, None] * width + idx
    return np.bincount(flat.ravel(), weights=values.ravel(),
                       minlength=n * width).reshape(n, width)


def rq_spline(inputs: np.ndarray, cumw: np.ndarray, cumh: np.ndarray,
              d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the spline elementwise with per-row parameters.

    `inputs` has shape (n, m) and the parameters are the arrays of
    :func:`spline_params`. Outside [-TAIL_BOUND, TAIL_BOUND] the map is the
    identity with logabsdet 0. Returns (outputs, logabsdet), each (n, m).
    """
    vals = np.asarray(inputs, dtype=np.float64)
    if vals.ndim != 2 or len(vals) != len(cumw):
        raise ValueError(f"rq_spline: inputs must have shape (n, m) with "
                         f"n = {len(cumw)} parameter rows, got shape {vals.shape}")
    return _rq_forward(vals, cumw, cumh, d)[:2]


def _rq_forward(vals, cumw, cumh, d):
    """Outputs, logabsdet, and the pullback of their adjoints to
    (cumw, cumh, d)."""
    inside = np.abs(vals) <= TAIL_BOUND
    clamped = np.clip(vals, -TAIL_BOUND, TAIL_BOUND)
    idx = _bin_index(clamped, cumw)
    wk, hk, cwk, chk, dk, dk1 = _gather(idx, cumw, cumh, d)
    s = hk / wk
    theta = (clamped - cwk) / wk
    t1m = theta * (1.0 - theta)
    slope_sum = dk1 + dk - 2.0 * s
    denom = s + slope_sum * t1m
    numer = s * theta * theta + dk * t1m
    quad = dk1 * theta * theta + 2.0 * s * t1m + dk * (1.0 - theta) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        logabsdet = np.log(s * s * quad) - 2.0 * np.log(denom)
    out = np.where(inside, chk + hk * numer / denom, vals)

    def pullback(g_out, g_lad):
        g_out = g_out * inside
        g_lad = g_lad * inside
        # out = chk + hk * numer / denom; each partial is hk * (numer' -
        # frac * denom') / denom, with frac = numer / denom
        frac = numer / denom
        scale = g_out * hk / denom
        one_m2t = 1.0 - 2.0 * theta
        d_denom_theta = slope_sum * one_m2t
        d_denom_s = 1.0 - 2.0 * t1m
        d_quad_theta = 2.0 * (dk1 * theta + s * one_m2t - dk * (1.0 - theta))
        g_theta = (scale * (2.0 * s * theta + dk * one_m2t - frac * d_denom_theta)
                   + g_lad * (d_quad_theta / quad - 2.0 * d_denom_theta / denom))
        g_s = (scale * (theta * theta - frac * d_denom_s)
               + g_lad * (2.0 / s + 2.0 * t1m / quad - 2.0 * d_denom_s / denom))
        g_dk = (scale * t1m * (1.0 - frac)
                + g_lad * ((1.0 - theta) ** 2 / quad - 2.0 * t1m / denom))
        g_dk1 = (-scale * frac * t1m
                 + g_lad * (theta * theta / quad - 2.0 * t1m / denom))
        # theta = (x - cwk) / wk and s = hk / wk; wk and hk are knot
        # differences, and cwk and chk left knots
        g_cwk = -g_theta / wk
        k1 = d.shape[-1]
        return (
            _knot_adjoint(_scatter(g_cwk * theta - g_s * s / wk, idx, k1 - 1))
            + _scatter(g_cwk, idx, k1),
            _knot_adjoint(_scatter(g_out * frac + g_s / wk, idx, k1 - 1))
            + _scatter(g_out, idx, k1),
            _scatter(np.concatenate([g_dk, g_dk1], axis=-1),
                     np.concatenate([idx, idx + 1], axis=-1), k1),
        )

    return out, np.where(inside, logabsdet, 0.0), pullback


def _knot_adjoint(g_sizes: np.ndarray) -> np.ndarray:
    """Adjoint (n, K+1) of a knot grid from that of its differences (n, K)."""
    full = np.zeros((len(g_sizes), g_sizes.shape[-1] + 1))
    full[:, 1:] += g_sizes
    full[:, :-1] -= g_sizes
    return full


def rq_inverse(z: np.ndarray, cumw: np.ndarray, cumh: np.ndarray,
               d: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rq_spline` at one grid of base points shared by
    every row, without the log-det.

    `z` is a 1-D ascending grid of k points and the parameters are the
    (n, K+1) arrays of :func:`spline_params`; returns the (n, k) inverse.
    Outside [-TAIL_BOUND, TAIL_BOUND] the map is the identity; inside, the
    root in [0, 1] of the bin's quadratic gives the position within the
    input bin.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"rq_inverse: z must be a 1-D grid of shape (k,), "
                         f"got shape {z.shape}")
    if not np.all(z[1:] >= z[:-1]):  # NaN too
        raise ValueError("rq_inverse: z must be an ascending grid of shape (k,)")
    clamped = np.clip(z, -TAIL_BOUND, TAIL_BOUND)
    # a point lies in bin j when it is at or above j interior knots, so the
    # ascending grid splits into consecutive runs, one per bin of each row
    ends = np.searchsorted(clamped, cumh[:, 1:-1], side="left")
    n, k = len(cumh), len(z)
    counts = np.diff(ends, prepend=0, append=k, axis=-1).ravel()

    def per_point(coef):
        """A per-bin coefficient (n, K) at each point of its row's bins."""
        return np.repeat(coef.ravel(), counts).reshape(n, k)

    # the per-bin terms of the quadratic, each as the per-point form rounds
    # it; each (n, k) term is dropped after its last use, which bounds the
    # peak memory of a stage-2 chunk
    wk, hk = np.diff(cumw, axis=-1), np.diff(cumh, axis=-1)
    dk, dk1 = d[:, :-1], d[:, 1:]
    s = hk / wk
    two_s = dk1 + dk - 2.0 * s
    zbar = clamped - per_point(cumh[:, :-1])
    slope_term = zbar * per_point(two_s)
    qa = per_point(hk * (s - dk)) + slope_term
    qb = per_point(hk * dk) - slope_term
    del slope_term
    qc = -per_point(s) * zbar
    del zbar
    disc = qb * qb - 4.0 * qa * qc
    del qa
    if np.any(disc < -1e-9):
        raise FloatingPointError("negative discriminant in spline inverse")
    disc = np.maximum(disc, 0.0)
    theta = np.clip((2.0 * qc) / (-qb - np.sqrt(disc)), 0.0, 1.0)
    return np.where(np.abs(z) <= TAIL_BOUND,
                    theta * per_point(wk) + per_point(cumw[:, :-1]), z)


def _neg_log_density(z, logabsdet):
    """-log p per point in standardized units, from the spline's output and
    log-det under the standard normal base: z^2/2 + log(2 pi)/2 - logabsdet."""
    return z * z * 0.5 + (0.5 * LOG_2PI) - logabsdet


def spline_nll(raw: Tensor, y_std: np.ndarray, cfg: FlowConfig,
               log_std: float) -> Tensor:
    """Mean negative log likelihood, as one tape op, of the standardized
    outcomes `y_std` (n, m) under the spline of the raw context-net output
    (n, 3K-1); `log_std`, the log of the outcome scale, gives original units."""
    parts = _params_and_pullbacks(raw.data, cfg)
    z, logabsdet, rq_pullback = _rq_forward(y_std, *(p for p, _ in parts))
    n = z.size
    loss = _neg_log_density(z, logabsdet).sum() * (1.0 / n) + log_std

    def backward(g):
        # the adjoints as the composed ops round them: the mean spreads g / n,
        # z * z adds its two equal halves, and each adjoint that reached its
        # tensor as a zero-padded slice had 0.0 added (so -0.0 became +0.0)
        c = np.broadcast_to(g * (1.0 / n), z.shape)
        half = c * 0.5 * z
        grads = rq_pullback(half + half + 0.0, -c + 0.0)
        g_raw = [pullback(g_p) for (_, pullback), g_p in zip(parts, grads)]
        raw._accumulate(np.concatenate(g_raw, axis=1) + 0.0)

    return Tensor._result(loss, (raw,), backward, "spline_nll")


# -- conditional flow ----------------------------------------------------------


class ConditionalFlow:
    """One-layer conditional spline flow with a standard normal base."""

    def __init__(self, cfg: FlowConfig):
        self.cfg = cfg
        out_dim = 3 * cfg.knots - 1
        self.context_net = Mlp(
            MlpConfig(cfg.context_dim, cfg.hidden_units, out_dim, seed=cfg.seed)
        )
        # start at the identity transform: base density at initialization
        self.context_net.zero_output_layer()
        self.y_scaler = Standardizer(np.zeros(1), np.ones(1))
        self.context_scaler = Standardizer(np.zeros(cfg.context_dim - 1),
                                           np.ones(cfg.context_dim - 1))
        self.loss_trace: list[float] = []

    # context assembly ---------------------------------------------------------

    def _context(self, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64).reshape(-1, 1)
        phi = as_columns(phi)
        if phi.shape[1] != self.cfg.context_dim - 1:
            raise ValueError(
                f"representation dim {phi.shape[1]} does not match context_dim "
                f"{self.cfg.context_dim}"
            )
        return np.concatenate([a, self.context_scaler.apply(phi)], axis=1)

    def _spline_params(self, ctx: np.ndarray):
        return spline_params(self.context_net.predict(ctx), self.cfg)

    # public ops ---------------------------------------------------------------

    def nll_tensor(self, y: np.ndarray, a: np.ndarray, phi: np.ndarray,
                   noise_rng: np.random.Generator | None = None) -> Tensor:
        """Mean negative log likelihood (original units) as a tape scalar.

        When `noise_rng` is given, train-time Gaussian noise is added to the
        standardized outcome and context.
        """
        ctx = self._context(a, phi)
        y_std = self.y_scaler.apply(np.ravel(y))
        if noise_rng is not None:
            if self.cfg.noise_y > 0.0:
                y_std = y_std + self.cfg.noise_y * noise_rng.standard_normal(y_std.shape)
            if self.cfg.noise_context > 0.0:
                noise = self.cfg.noise_context * noise_rng.standard_normal(
                    (ctx.shape[0], ctx.shape[1] - 1)
                )
                ctx = np.concatenate([ctx[:, :1], ctx[:, 1:] + noise], axis=1)
        return spline_nll(self.context_net(ctx), y_std, self.cfg,
                          float(np.log(self.y_scaler.std[0])))

    def nll(self, y, a, phi) -> float:
        """The mean NLL of `nll_tensor` without noise, the context net run
        by `Mlp.predict`."""
        y_std = self.y_scaler.apply(np.ravel(y))
        raw = Tensor(self.context_net.predict(self._context(a, phi)))
        return float(spline_nll(raw, y_std, self.cfg,
                                float(np.log(self.y_scaler.std[0]))).data)

    def log_density(self, y: np.ndarray, a, phi) -> np.ndarray:
        """log p(y | a, phi) per point, original outcome units."""
        y_std = self.y_scaler.apply(np.ravel(y))
        z, logabsdet = rq_spline(y_std, *self._spline_params(self._context(a, phi)))
        return (-_neg_log_density(z, logabsdet) - np.log(self.y_scaler.std[0]))[:, 0]

    def sample(self, a, phi, k: int) -> np.ndarray:
        """k outcomes per context row: the base quantiles at the midpoint
        nodes z_j = Phi^-1((j - 1/2)/k), j = 1..k, pushed through the inverse
        spline as one grid shared by every row. The spline is monotone, so
        each row comes out ascending."""
        if k < 1:
            raise ValueError("k must be positive")
        z = ndtri((np.arange(k) + 0.5) / k)
        params = self._spline_params(self._context(a, phi))
        out = self.y_scaler.invert(rq_inverse(z, *params))
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("non-finite flow samples")
        return out

    # serialization ------------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        return {"y_mean": self.y_scaler.mean, "y_std": self.y_scaler.std,
                "context_mean": self.context_scaler.mean,
                "context_std": self.context_scaler.std}

    def to_checkpoint(self) -> dict:
        return checkpoint("conditional_flow", asdict(self.cfg),
                          {"context": self.context_net}, self._arrays(),
                          self.loss_trace)

    @staticmethod
    def from_checkpoint(payload: dict) -> "ConditionalFlow":
        flow = ConditionalFlow(FlowConfig(**read_checkpoint(
            payload, "conditional_flow", [f.name for f in fields(FlowConfig)])))
        flow.loss_trace = load_checkpoint(payload, {"context": flow.context_net},
                                          flow._arrays())
        return flow


# -- training ------------------------------------------------------------------


def train_cnf(
    flow: ConditionalFlow,
    y: np.ndarray,
    a: np.ndarray,
    phi: np.ndarray,
    run: TrainRun,
) -> ConditionalFlow:
    """Fit the flow by SGD with momentum 0.9, without weight decay, on
    noise-regularized NLL.

    Standardizers are fit on the training outcomes/representations. Training
    aborts with :class:`FlowDivergenceError` when the minibatch NLL exceeds
    `DIVERGENCE_FACTOR` x |initial NLL| for `DIVERGENCE_PATIENCE` consecutive
    iterations.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    phi = as_columns(phi)
    if not (len(y) == len(a) == len(phi)):
        raise ValueError("y, a, phi must have equal length")
    if len(y) < 2:
        raise ValueError("need at least 2 training points")
    if run.weight_decay:
        raise ValueError("the flow trains without weight decay, got "
                         f"weight_decay={run.weight_decay}")

    flow.y_scaler = fit_standardizer(y)
    flow.context_scaler = fit_standardizer(phi)

    seq = np.random.SeedSequence(flow.cfg.seed)
    shuffle_rng, noise_rng = [np.random.default_rng(s) for s in seq.spawn(2)]
    opt = SgdMomentum(flow.context_net.parameters(), lr=run.learning_rate)
    flow.loss_trace = []
    high_streak = 0
    for val in fit(lambda idx: flow.nll_tensor(y[idx], a[idx], phi[idx],
                                               noise_rng=noise_rng),
                   [opt], len(y), run, shuffle_rng):
        flow.loss_trace.append(val)
        initial = flow.loss_trace[0]
        if val > DIVERGENCE_FACTOR * abs(initial):
            high_streak += 1
            if high_streak >= DIVERGENCE_PATIENCE:
                raise FlowDivergenceError(
                    f"NLL {val:.3g} stayed above {DIVERGENCE_FACTOR}x initial "
                    f"({initial:.3g}) for {DIVERGENCE_PATIENCE} steps"
                )
        else:
            high_streak = 0
    return flow
