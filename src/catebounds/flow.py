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
identity outside [-B, B], B = TAIL_BOUND.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from scipy.special import expit, ndtri

from .autodiff import NonFiniteError, Tensor, as_tensor, no_grad, slice_last
from .nets import (Mlp, MlpConfig, SgdMomentum, Standardizer, TrainRun,
                   checkpoint, fit, fit_standardizer, load_checkpoint,
                   read_checkpoint)

__all__ = [
    "FlowConfig",
    "ConditionalFlow",
    "FlowDivergenceError",
    "spline_params",
    "rq_spline",
    "rq_inverse",
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
        if self.noise_y < 0.0 or self.noise_context < 0.0:
            raise ValueError("noise intensities must be non-negative")


# -- the spline, on the tape ---------------------------------------------------
#
# Training runs the forward map with gradients on; densities run it under
# `no_grad` and read `.data`. Each step is one tape node with a hand-written
# backward: the knot grids and derivatives of `spline_params`, and the
# gathers, rational-quadratic map and log-det of `rq_spline`, whose
# derivatives follow Durkan et al. (2019). The inverse, `rq_inverse`, is used
# only for sampling; it runs on plain arrays and skips the log-det.


def spline_params(raw: Tensor, cfg: FlowConfig):
    """Raw context-net output (n, 3K-1) -> knot grids, bin sizes, derivatives.

    Returns (cumw, w, cumh, h, d): knot positions (n, K+1) from -B to B, bin
    widths and heights (n, K), and knot derivatives (n, K+1) with the two
    boundary derivatives pinned to 1.
    """
    k = cfg.knots
    cumw = _knots(raw, 0, cfg)
    cumh = _knots(raw, k, cfg)
    return cumw, _bin_sizes(cumw), cumh, _bin_sizes(cumh), _derivatives(raw, cfg)


def _knots(raw: Tensor, lo: int, cfg: FlowConfig) -> Tensor:
    """Knot grid (n, K+1) from the softmax of columns lo:lo+K of `raw`."""
    k, b = cfg.knots, TAIL_BOUND
    u = raw.data[:, lo:lo + k]
    e = np.exp(u - np.max(u, axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    scale = 1.0 - MIN_BIN * k
    widths = soft * scale + MIN_BIN
    inner = np.cumsum(widths, axis=-1)[:, :k - 1] * (2.0 * b) - b
    edge = np.full((len(u), 1), b)
    cum = np.concatenate([-edge, inner, edge], axis=-1)

    def backward(g):
        # reverse cumsum of the interior knots' adjoint, then the softmax's
        g_widths = np.zeros_like(u)
        g_widths[:, :k - 1] = np.cumsum(g[:, k - 1:0:-1], axis=-1)[:, ::-1]
        g_soft = g_widths * (2.0 * b * scale)
        full = np.zeros_like(raw.data)
        full[:, lo:lo + k] = soft * (g_soft - (g_soft * soft).sum(axis=-1, keepdims=True))
        raw._accumulate(full)

    return Tensor._result(cum, (raw,), backward, "spline_knots")


def _bin_sizes(cum: Tensor) -> Tensor:
    """Differences of consecutive knots (n, K)."""
    def backward(g):
        full = np.zeros_like(cum.data)
        full[:, 1:] += g
        full[:, :-1] -= g
        cum._accumulate(full)

    return Tensor._result(np.diff(cum.data, axis=-1), (cum,), backward, "spline_bins")


def _derivatives(raw: Tensor, cfg: FlowConfig) -> Tensor:
    """Knot derivatives (n, K+1): softplus of the last K-1 raw columns,
    shifted so that zero maps to 1, floored at the minimum; both ends 1."""
    k = cfg.knots
    shift = float(np.log(np.expm1(1.0 - MIN_DERIVATIVE)))
    ud = raw.data[:, 2 * k:] + shift
    one = np.ones((len(ud), 1))
    d = np.concatenate([one, np.logaddexp(0.0, ud) + MIN_DERIVATIVE, one], axis=-1)

    def backward(g):
        full = np.zeros_like(raw.data)
        full[:, 2 * k:] = g[:, 1:k] * expit(ud)
        raw._accumulate(full)

    return Tensor._result(d, (raw,), backward, "spline_derivatives")


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


def _gather(idx, cumw, w, cumh, h, d):
    """Each point's bin width and height, left knots and knot derivatives."""
    return [np.take_along_axis(p, j, axis=-1)
            for p, j in ((w, idx), (h, idx), (cumw, idx), (cumh, idx),
                         (d, idx), (d, idx + 1))]


def _scatter(values: np.ndarray, idx: np.ndarray, width: int) -> np.ndarray:
    """Sum `values` (n, m) into an (n, width) array at column `idx` of each
    row: the adjoint of a gather along the last axis."""
    n = values.shape[0]
    flat = np.arange(n)[:, None] * width + idx
    return np.bincount(flat.ravel(), weights=values.ravel(),
                       minlength=n * width).reshape(n, width)


def rq_spline(inputs: np.ndarray, cumw: Tensor, w: Tensor, cumh: Tensor,
              h: Tensor, d: Tensor) -> tuple[Tensor, Tensor]:
    """Apply the spline elementwise with per-row parameters, on the tape.

    `inputs` is a plain array of shape (n,) or (n, k); the parameters come
    from :func:`spline_params`. Outside [-TAIL_BOUND, TAIL_BOUND] the map is
    the identity with logabsdet 0. Returns (outputs, logabsdet) tensors of
    the shape of `inputs`, both slices of one tape op with a hand-written
    backward.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    squeeze = inputs.ndim == 1
    vals = inputs[:, None] if squeeze else inputs
    inside = np.abs(vals) <= TAIL_BOUND
    clamped = np.clip(vals, -TAIL_BOUND, TAIL_BOUND)
    packed = _rq_forward(vals, clamped, inside,
                         *(as_tensor(p) for p in (cumw, w, cumh, h, d)))
    m = vals.shape[-1]
    out, logabsdet = slice_last(packed, 0, m), slice_last(packed, m, 2 * m)
    if squeeze:
        return out.reshape(-1), logabsdet.reshape(-1)
    return out, logabsdet


def _rq_forward(vals, clamped, inside, cumw, w, cumh, h, d) -> Tensor:
    """Outputs and logabsdet side by side (n, 2m), as one tape node."""
    idx = _bin_index(clamped, cumw.data)
    wk, hk, cwk, chk, dk, dk1 = _gather(idx, cumw.data, w.data, cumh.data,
                                        h.data, d.data)
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
    packed = np.concatenate([out, np.where(inside, logabsdet, 0.0)], axis=-1)

    def backward(g):
        m = vals.shape[-1]
        g_out = g[:, :m] * inside
        g_lad = g[:, m:] * inside
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
        # theta = (x - cwk) / wk and s = hk / wk
        g_cwk = -g_theta / wk
        k1 = d.data.shape[-1]
        grads = (
            (cumw, _scatter(g_cwk, idx, k1)),
            (w, _scatter(g_cwk * theta - g_s * s / wk, idx, k1 - 1)),
            (cumh, _scatter(g_out, idx, k1)),
            (h, _scatter(g_out * frac + g_s / wk, idx, k1 - 1)),
            (d, _scatter(np.concatenate([g_dk, g_dk1], axis=-1),
                         np.concatenate([idx, idx + 1], axis=-1), k1)),
        )
        for param, grad in grads:
            if param.requires_grad:
                param._accumulate(grad)

    return Tensor._result(packed, (cumw, w, cumh, h, d), backward, "rq_spline")


def rq_inverse(z: np.ndarray, cumw: np.ndarray, w: np.ndarray,
               cumh: np.ndarray, h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rq_spline` on plain arrays, without the log-det.

    `z` has shape (n,) or (n, k) and the parameters are the arrays of
    :func:`spline_params`. Outside [-TAIL_BOUND, TAIL_BOUND] the map is the
    identity; inside, the root in [0, 1] of the bin's quadratic gives the
    position within the input bin.
    """
    z = np.asarray(z, dtype=np.float64)
    vals = z[:, None] if z.ndim == 1 else z
    clamped = np.clip(vals, -TAIL_BOUND, TAIL_BOUND)
    idx = _bin_index(clamped, cumh)
    wk, hk, cwk, chk, dk, dk1 = _gather(idx, cumw, w, cumh, h, d)
    s = hk / wk
    zbar = clamped - chk
    two_s = dk1 + dk - 2.0 * s
    qa = hk * (s - dk) + zbar * two_s
    qb = hk * dk - zbar * two_s
    qc = -s * zbar
    disc = qb * qb - 4.0 * qa * qc
    if np.any(disc < -1e-9):
        raise FloatingPointError("negative discriminant in spline inverse")
    disc = np.maximum(disc, 0.0)
    theta = np.clip((2.0 * qc) / (-qb - np.sqrt(disc)), 0.0, 1.0)
    out = np.where(np.abs(vals) <= TAIL_BOUND, theta * wk + cwk, vals)
    return out.reshape(z.shape)


def _neg_log_density(z, logabsdet):
    """-log p per point in standardized units, from the spline's output and
    log-det under the standard normal base: z^2/2 + log(2 pi)/2 - logabsdet.
    Training applies it to tensors, `log_density` to their arrays."""
    return z * z * 0.5 + (0.5 * LOG_2PI) - logabsdet


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
        phi = np.atleast_2d(np.asarray(phi, dtype=np.float64).T).T
        if phi.shape[1] != self.cfg.context_dim - 1:
            raise ValueError(
                f"representation dim {phi.shape[1]} does not match context_dim "
                f"{self.cfg.context_dim}"
            )
        scaler = self.context_scaler
        return np.concatenate([a, (phi - scaler.mean) / scaler.std], axis=1)

    def _spline_params(self, ctx: np.ndarray):
        return spline_params(self.context_net(ctx), self.cfg)

    # public ops ---------------------------------------------------------------

    def nll_tensor(self, y: np.ndarray, a: np.ndarray, phi: np.ndarray,
                   noise_rng: np.random.Generator | None = None) -> Tensor:
        """Mean negative log likelihood (original units) as a tape scalar.

        When `noise_rng` is given, train-time Gaussian noise is added to the
        standardized outcome and context.
        """
        ctx = self._context(a, phi)
        y_std = ((np.asarray(y, dtype=np.float64).reshape(-1, 1) - self.y_scaler.mean)
                 / self.y_scaler.std)
        if noise_rng is not None:
            if self.cfg.noise_y > 0.0:
                y_std = y_std + self.cfg.noise_y * noise_rng.standard_normal(y_std.shape)
            if self.cfg.noise_context > 0.0:
                noise = self.cfg.noise_context * noise_rng.standard_normal(
                    (ctx.shape[0], ctx.shape[1] - 1)
                )
                ctx = np.concatenate([ctx[:, :1], ctx[:, 1:] + noise], axis=1)
        z, logabsdet = rq_spline(y_std, *self._spline_params(ctx))
        nll = _neg_log_density(z, logabsdet).mean()
        return nll + float(np.log(self.y_scaler.std[0]))

    def nll(self, y, a, phi) -> float:
        with no_grad():
            return float(self.nll_tensor(y, a, phi).data)

    def log_density(self, y: np.ndarray, a, phi) -> np.ndarray:
        """log p(y | a, phi) per point, original outcome units."""
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        y_std = (y - self.y_scaler.mean[0]) / self.y_scaler.std[0]
        with no_grad():
            params = self._spline_params(self._context(a, phi))
            z, logabsdet = rq_spline(y_std, *params)
        return (-_neg_log_density(z.data, logabsdet.data)
                - np.log(self.y_scaler.std[0]))

    def sample(self, a, phi, k: int) -> np.ndarray:
        """k outcomes per context row: the base quantiles at the midpoint
        nodes z_j = Phi^-1((j - 1/2)/k), j = 1..k, pushed through the inverse
        spline. The spline is monotone, so each row comes out ascending."""
        if k < 1:
            raise ValueError("k must be positive")
        z = ndtri((np.arange(k) + 0.5) / k)
        ctx = self._context(a, phi)
        n = len(ctx)
        # numpy multiplies a lone row by gemv, which rounds unlike the gemm of
        # a batch; paired with its copy, a row comes out as in a larger chunk
        with no_grad():
            params = [p.data[:n] for p in self._spline_params(
                np.repeat(ctx, 2 if n == 1 else 1, axis=0))]
        out = rq_inverse(np.broadcast_to(z, (n, k)), *params)
        out = out * self.y_scaler.std[0] + self.y_scaler.mean[0]
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
    """Fit the flow by SGD with momentum 0.9 on noise-regularized NLL.

    Standardizers are fit on the training outcomes/representations. Training
    aborts with :class:`FlowDivergenceError` when the minibatch NLL exceeds
    `DIVERGENCE_FACTOR` x |initial NLL| for `DIVERGENCE_PATIENCE` consecutive
    iterations.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    phi = np.atleast_2d(np.asarray(phi, dtype=np.float64).T).T
    if not (len(y) == len(a) == len(phi)):
        raise ValueError("y, a, phi must have equal length")
    if len(y) < 2:
        raise ValueError("need at least 2 training points")

    flow.y_scaler = fit_standardizer(y.reshape(-1, 1))
    flow.context_scaler = fit_standardizer(phi)

    seq = np.random.SeedSequence(flow.cfg.seed)
    shuffle_rng, noise_rng = [np.random.default_rng(s) for s in seq.spawn(2)]
    opt = SgdMomentum(flow.context_net.parameters(), lr=run.learning_rate,
                      weight_decay=run.weight_decay)
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
