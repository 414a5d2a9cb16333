"""Conditional density model for outcomes given (treatment, representation).

A single monotone rational-quadratic spline layer with K knots on
[-B, B] and identity tails, driven by a context network that maps
(a, standardized representation) to the unnormalized spline parameters, with a
standard normal base distribution. Outcomes are standardized by training
mean/std inside the model; densities are reported in original units.

The spline parameterization follows the usual recipe: softmax-normalized bin
widths/heights with a minimum bin size, softplus-transformed interior knot
derivatives with a minimum, and boundary derivatives pinned to 1 so the
transform continues as the identity outside [-B, B].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import (
    NonFiniteError,
    Tensor,
    concat_last,
    constant,
    no_grad,
    slice_last,
    softmax_last,
    take_along_last,
)
from .nets import Mlp, MlpConfig, SgdMomentum, TrainRun, fit

__all__ = [
    "FlowConfig",
    "ConditionalFlow",
    "FlowDivergenceError",
    "spline_params",
    "rq_spline",
    "train_cnf",
    "integrate_density",
]

LOG_2PI = float(np.log(2.0 * np.pi))
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
    tail_bound: float = 5.0
    min_bin: float = 1e-3
    min_derivative: float = 1e-3
    noise_y: float = 0.1             # train-time Gaussian noise, standardized units
    noise_context: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.context_dim < 2:
            raise ValueError("context_dim must cover treatment plus representation")
        if self.knots < 2:
            raise ValueError("need at least 2 knots")
        if self.tail_bound <= 0.0:
            raise ValueError("tail_bound must be positive")
        if self.min_bin <= 0.0 or self.min_bin * self.knots >= 1.0:
            raise ValueError("min_bin must be positive and < 1/knots")
        if self.min_derivative <= 0.0 or self.min_derivative >= 1.0:
            raise ValueError("min_derivative must be in (0, 1)")
        if self.noise_y < 0.0 or self.noise_context < 0.0:
            raise ValueError("noise intensities must be non-negative")


# -- the spline, on the tape ---------------------------------------------------
#
# Training runs it with gradients on; sampling and densities run it under
# `no_grad` and read `.data`.


def spline_params(raw: Tensor, cfg: FlowConfig):
    """Raw context-net output (n, 3K-1) -> knot grids, bin sizes, derivatives.

    Returns (cumw, w, cumh, h, d): knot positions (n, K+1) from -B to B, bin
    widths and heights (n, K), and knot derivatives (n, K+1) with the two
    boundary derivatives pinned to 1.
    """
    k = cfg.knots
    b = cfg.tail_bound
    n = raw.shape[0]
    uw = slice_last(raw, 0, k)
    uh = slice_last(raw, k, 2 * k)
    ud = slice_last(raw, 2 * k, 3 * k - 1)

    neg_b = constant(np.full((n, 1), -b))
    pos_b = constant(np.full((n, 1), b))

    def _bins(u: Tensor):
        widths = softmax_last(u) * (1.0 - cfg.min_bin * k) + cfg.min_bin
        inner = slice_last(widths.cumsum_last(), 0, k - 1) * (2.0 * b) - b
        cum = concat_last([neg_b, inner, pos_b])
        eff = slice_last(cum, 1, k + 1) - slice_last(cum, 0, k)
        return cum, eff

    cumw, w = _bins(uw)
    cumh, h = _bins(uh)
    shift = float(np.log(np.expm1(1.0 - cfg.min_derivative)))
    inner_d = (ud + shift).softplus() + cfg.min_derivative
    one = constant(np.ones((n, 1)))
    d = concat_last([one, inner_d, one])
    return cumw, w, cumh, h, d


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


def _inverse_theta(z, wk, hk, chk, dk, dk1, s) -> np.ndarray:
    """Position in [0, 1] within the bin of the inverse map: the root of the
    bin's quadratic, on plain arrays."""
    zbar = z - chk
    two_s = dk1 + dk - 2.0 * s
    qa = hk * (s - dk) + zbar * two_s
    qb = hk * dk - zbar * two_s
    qc = -s * zbar
    disc = qb * qb - 4.0 * qa * qc
    if np.any(disc < -1e-9):
        raise FloatingPointError("negative discriminant in spline inverse")
    disc = np.maximum(disc, 0.0)
    theta = (2.0 * qc) / (-qb - np.sqrt(disc))
    return np.clip(theta, 0.0, 1.0)


def rq_spline(
    inputs: np.ndarray,
    cumw: Tensor,
    w: Tensor,
    cumh: Tensor,
    h: Tensor,
    d: Tensor,
    *,
    inverse: bool = False,
    tail_bound: float = 5.0,
):
    """Apply the spline (or its inverse) elementwise with per-row parameters.

    `inputs` is a plain array of shape (n,) or (n, k); the parameters are
    tensors from :func:`spline_params`. Returns (outputs, logabsdet) tensors
    of the same shape as `inputs`. Outside [-tail_bound, tail_bound] the map
    is the identity with logabsdet 0. Gradients flow through the forward map
    only: the inverse takes its bin position from a root on plain arrays.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    squeeze = inputs.ndim == 1
    vals = inputs[:, None] if squeeze else inputs
    inside = np.abs(vals) <= tail_bound
    clamped = np.clip(vals, -tail_bound, tail_bound)
    idx = _bin_index(clamped, (cumh if inverse else cumw).data)

    wk = take_along_last(w, idx)
    hk = take_along_last(h, idx)
    cwk = take_along_last(slice_last(cumw, 0, cumw.shape[-1] - 1), idx)
    chk = take_along_last(slice_last(cumh, 0, cumh.shape[-1] - 1), idx)
    dk = take_along_last(d, idx)
    dk1 = take_along_last(d, idx + 1)
    s = hk / wk

    if inverse:
        theta = constant(_inverse_theta(clamped, wk.data, hk.data, chk.data,
                                        dk.data, dk1.data, s.data))
        out = theta * wk + cwk
    else:
        theta = (constant(clamped) - cwk) / wk
    t1m = theta * (1.0 - theta)
    denom = s + (dk1 + dk - 2.0 * s) * t1m
    deriv_num = s * s * (dk1 * theta * theta + 2.0 * s * t1m + dk * (1.0 - theta) ** 2)
    logabsdet = deriv_num.log() - 2.0 * denom.log()
    if inverse:
        logabsdet = -logabsdet
    else:
        out = chk + hk * (s * theta * theta + dk * t1m) / denom

    mask = constant(inside.astype(np.float64))
    out = mask * out + constant(np.where(inside, 0.0, vals))
    logabsdet = mask * logabsdet
    if squeeze:
        return out.reshape(-1), logabsdet.reshape(-1)
    return out, logabsdet


# -- conditional flow ----------------------------------------------------------


@dataclass
class _Scaler:
    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def identity(dim: int) -> "_Scaler":
        return _Scaler(np.zeros(dim), np.ones(dim))

    @staticmethod
    def fit(values: np.ndarray) -> "_Scaler":
        v = np.atleast_2d(np.asarray(values, dtype=np.float64).T).T
        return _Scaler(v.mean(axis=0), np.maximum(v.std(axis=0), 1e-8))

    def transform(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        return (v - self.mean) / self.std


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
        self.y_scaler = _Scaler.identity(1)
        self.context_scaler = _Scaler.identity(cfg.context_dim - 1)
        self.loss_trace: list[float] = []
        self.validation_nll: float | None = None

    # context assembly ---------------------------------------------------------

    def _context(self, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64).reshape(-1, 1)
        phi = np.atleast_2d(np.asarray(phi, dtype=np.float64).T).T
        if phi.shape[1] != self.cfg.context_dim - 1:
            raise ValueError(
                f"representation dim {phi.shape[1]} does not match context_dim "
                f"{self.cfg.context_dim}"
            )
        return np.concatenate([a, self.context_scaler.transform(phi)], axis=1)

    def _spline_params(self, a, phi):
        return spline_params(self.context_net(self._context(a, phi)), self.cfg)

    # public ops ---------------------------------------------------------------

    def nll_tensor(self, y: np.ndarray, a: np.ndarray, phi: np.ndarray,
                   noise_rng: np.random.Generator | None = None) -> Tensor:
        """Mean negative log likelihood (original units) as a tape scalar.

        When `noise_rng` is given, train-time Gaussian noise is added to the
        standardized outcome and context.
        """
        ctx = self._context(a, phi)
        y_std = self.y_scaler.transform(np.asarray(y, dtype=np.float64).reshape(-1, 1))
        if noise_rng is not None:
            if self.cfg.noise_y > 0.0:
                y_std = y_std + self.cfg.noise_y * noise_rng.standard_normal(y_std.shape)
            if self.cfg.noise_context > 0.0:
                noise = self.cfg.noise_context * noise_rng.standard_normal(
                    (ctx.shape[0], ctx.shape[1] - 1)
                )
                ctx = np.concatenate([ctx[:, :1], ctx[:, 1:] + noise], axis=1)
        params = spline_params(self.context_net(ctx), self.cfg)
        z, logabsdet = rq_spline(y_std, *params, tail_bound=self.cfg.tail_bound)
        nll = (z * z * 0.5 + (0.5 * LOG_2PI) - logabsdet).mean()
        return nll + float(np.log(self.y_scaler.std[0]))

    def nll(self, y, a, phi) -> float:
        with no_grad():
            return float(self.nll_tensor(y, a, phi).data)

    def log_density(self, y: np.ndarray, a, phi) -> np.ndarray:
        """log p(y | a, phi) per point, original outcome units."""
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        y_std = (y - self.y_scaler.mean[0]) / self.y_scaler.std[0]
        with no_grad():
            z, logabsdet = rq_spline(y_std, *self._spline_params(a, phi),
                                     tail_bound=self.cfg.tail_bound)
        z = z.data
        return (-0.5 * z * z - 0.5 * LOG_2PI + logabsdet.data
                - np.log(self.y_scaler.std[0]))

    def sample(self, a, phi, k: int, rng: np.random.Generator,
               chunk: int = 256) -> np.ndarray:
        """Draw k outcomes per context row, sorted ascending along axis 1."""
        if k < 1:
            raise ValueError("k must be positive")
        with no_grad():
            params = [p.data for p in self._spline_params(a, phi)]
            n = params[0].shape[0]
            out = np.empty((n, k))
            z = rng.standard_normal((n, k))
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                y_std, _ = rq_spline(
                    z[lo:hi], *(constant(p[lo:hi]) for p in params),
                    inverse=True, tail_bound=self.cfg.tail_bound,
                )
                out[lo:hi] = y_std.data
        out = out * self.y_scaler.std[0] + self.y_scaler.mean[0]
        out.sort(axis=1)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("non-finite flow samples")
        return out

    # serialization ------------------------------------------------------------

    def to_checkpoint(self) -> dict:
        return {
            "kind": "conditional_flow",
            "config": asdict(self.cfg),
            "y_scaler": {"mean": self.y_scaler.mean.tolist(),
                         "std": self.y_scaler.std.tolist()},
            "context_scaler": {"mean": self.context_scaler.mean.tolist(),
                               "std": self.context_scaler.std.tolist()},
            "params": self.context_net.param_arrays(),
            "loss_trace": self.loss_trace,
        }

    @staticmethod
    def from_checkpoint(payload: dict) -> "ConditionalFlow":
        if payload.get("kind") != "conditional_flow":
            raise ValueError("not a conditional flow checkpoint")
        flow = ConditionalFlow(FlowConfig(**payload["config"]))
        flow.context_net.load_param_arrays(payload["params"])
        flow.y_scaler = _Scaler(np.asarray(payload["y_scaler"]["mean"]),
                                np.asarray(payload["y_scaler"]["std"]))
        flow.context_scaler = _Scaler(
            np.asarray(payload["context_scaler"]["mean"]),
            np.asarray(payload["context_scaler"]["std"]),
        )
        flow.loss_trace = list(payload.get("loss_trace", []))
        return flow


# -- training ------------------------------------------------------------------


def train_cnf(
    flow: ConditionalFlow,
    y: np.ndarray,
    a: np.ndarray,
    phi: np.ndarray,
    run: TrainRun,
    validation: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
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

    flow.y_scaler = _Scaler.fit(y.reshape(-1, 1))
    flow.context_scaler = _Scaler.fit(phi)

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
    if validation is not None:
        vy, va, vphi = validation
        flow.validation_nll = flow.nll(vy, va, vphi)
    return flow


def integrate_density(flow: ConditionalFlow, a, phi, n_grid: int = 20_001) -> float:
    """Total probability mass of p(. | a, phi) for a single context row.

    Trapezoid rule over the spline support plus the exact Gaussian tail mass
    (the transform is the identity outside [-B, B] in standardized units).
    """
    from scipy.integrate import trapezoid
    from scipy.stats import norm

    b = flow.cfg.tail_bound
    grid_std = np.linspace(-b, b, n_grid)
    y_grid = grid_std * flow.y_scaler.std[0] + flow.y_scaler.mean[0]
    a_rep = np.full(n_grid, np.asarray(a, dtype=np.float64).reshape(-1)[0])
    phi_row = np.atleast_2d(np.asarray(phi, dtype=np.float64).T).T[0]
    phi_rep = np.tile(phi_row, (n_grid, 1))
    dens = np.exp(flow.log_density(y_grid, a_rep, phi_rep))
    inner = trapezoid(dens, y_grid)
    return float(inner + 2.0 * norm.cdf(-b))
