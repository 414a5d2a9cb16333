"""Numeric oracles the tests check the package against.

Finite-difference gradient checks for tape code, the spline's per-point
gathers along each row and its per-point inverse, the total mass of a flow
density by quadrature, the closed-form tilt coefficients of one
(Gamma, pi) pair, HC-MNIST built from a float copy of the images, and a
CSV table written cell by cell through `csv.writer`. The package itself
never calls these.
"""

from __future__ import annotations

import csv
import gzip
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.stats import norm

from catebounds.autodiff import Tensor
from catebounds.data import (HCMNIST_CLIP, HCMNIST_GAMMA_STAR, Dataset,
                             HcMnistConfig, _alpha_beta, _class_range,
                             _stream)
from catebounds.flow import TAIL_BOUND, ConditionalFlow, _bin_index
from catebounds.nets import Mlp


# -- gradients -----------------------------------------------------------------


def backward_gradients(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradient of a scalar loss for every parameter; unreachable ones get zero."""
    for p in params:
        p.zero_grad()
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    per_param: list[float] = field(default_factory=list)


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    tolerance: float,
    h: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients of the scalar `f()` with central differences.

    The checked parameters require a gradient while the check runs, as
    `nets.fit` makes them require one while it trains."""
    trainable = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = True
    try:
        analytic = backward_gradients(f(), params)
    finally:
        for p, flag in zip(params, trainable):
            p.requires_grad = flag
    per_param: list[float] = []
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.ravel()
        num = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(f().data)
            flat[j] = orig - h
            down = float(f().data)
            flat[j] = orig
            num[j] = (up - down) / (2.0 * h)
        a_flat = a.ravel()
        denom = np.maximum(np.maximum(np.abs(a_flat), np.abs(num)), 1e-6)
        rel = float(np.max(np.abs(a_flat - num) / denom)) if flat.size else 0.0
        per_param.append(rel)
        worst = max(worst, rel)
    return GradCheckReport(max_rel_error=worst, passed=worst < tolerance,
                           per_param=per_param)


def grad_check(
    net: Mlp,
    x: np.ndarray,
    tolerance: float = 1e-4,
    loss_fn: Callable[[Tensor], Tensor] | None = None,
    h: float = 1e-5,
) -> GradCheckReport:
    """Finite-difference check of a network's parameter gradients.

    The default probe loss is mean(out^2), which exercises every unit.
    """
    x = np.asarray(x, dtype=np.float64)
    if loss_fn is None:
        loss_fn = lambda out: (out * out).mean()

    def f() -> Tensor:
        return loss_fn(net(x))

    return finite_difference_check(f, net.parameters(), tolerance, h=h)


# -- the spline inverse --------------------------------------------------------


def gather_knots(idx: np.ndarray, cumw: np.ndarray, cumh: np.ndarray,
                 d: np.ndarray):
    """Each point's bin width and height, left knots and knot derivatives,
    gathered along each row at its bin `idx` (n, m). `flow._gather` must
    match it bit for bit."""
    cwk, cwk1, chk, chk1, dk, dk1 = [
        np.take_along_axis(p, j, axis=-1)
        for p in (cumw, cumh, d) for j in (idx, idx + 1)]
    return cwk1 - cwk, chk1 - chk, cwk, chk, dk, dk1


def rq_inverse_points(z: np.ndarray, cumw: np.ndarray, cumh: np.ndarray,
                      d: np.ndarray) -> np.ndarray:
    """Inverse of `flow.rq_spline` point by point: each of the (n, m) points
    `z` is located in its row's bins and gathers that bin's knots and
    derivatives. `flow.rq_inverse` must match it bit for bit on a grid."""
    vals = np.asarray(z, dtype=np.float64)
    clamped = np.clip(vals, -TAIL_BOUND, TAIL_BOUND)
    idx = _bin_index(clamped, cumh)
    wk, hk, cwk, chk, dk, dk1 = gather_knots(idx, cumw, cumh, d)
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
    return np.where(np.abs(vals) <= TAIL_BOUND, theta * wk + cwk, vals)


# -- flow densities ------------------------------------------------------------


def integrate_density(flow: ConditionalFlow, a, phi, n_grid: int = 20_001) -> float:
    """Total probability mass of p(. | a, phi) for a single context row.

    Trapezoid rule over the spline support plus the exact Gaussian tail mass
    (the transform is the identity outside [-B, B] in standardized units).
    """
    b = TAIL_BOUND
    grid_std = np.linspace(-b, b, n_grid)
    y_grid = grid_std * flow.y_scaler.std[0] + flow.y_scaler.mean[0]
    a_rep = np.full(n_grid, np.asarray(a, dtype=np.float64).reshape(-1)[0])
    phi_row = np.atleast_2d(np.asarray(phi, dtype=np.float64).T).T[0]
    phi_rep = np.tile(phi_row, (n_grid, 1))
    dens = np.exp(flow.log_density(y_grid, a_rep, phi_rep))
    inner = trapezoid(dens, y_grid)
    return float(inner + 2.0 * norm.cdf(-b))


# -- tilt coefficients ---------------------------------------------------------


@dataclass(frozen=True)
class ShiftCoefficients:
    """Tail weights and quantile splits for one (Gamma, pi) pair."""

    s_minus: float
    s_plus: float
    c_minus: float
    c_plus: float


def shift_coefficients(gamma: float, pi: float) -> ShiftCoefficients:
    """Coefficients of the extremal density tilts.

    s_minus = ((1-Gamma)*pi + Gamma)^-1, s_plus = ((1-1/Gamma)*pi + 1/Gamma)^-1,
    c_minus = 1/(1+Gamma), c_plus = Gamma/(1+Gamma). Requires Gamma >= 1 and
    pi in (0, 1). The weights satisfy (1/s_minus)*c_minus +
    (1/s_plus)*(1-c_minus) = 1 exactly.
    """
    if gamma < 1.0:
        raise ValueError("gamma must be >= 1")
    if not 0.0 < pi < 1.0:
        raise ValueError("pi must lie strictly inside (0, 1)")
    s_minus = 1.0 / ((1.0 - gamma) * pi + gamma)
    inv_gamma = 1.0 / gamma
    s_plus = 1.0 / ((1.0 - inv_gamma) * pi + inv_gamma)
    c_minus = 1.0 / (1.0 + gamma)
    c_plus = gamma / (1.0 + gamma)
    return ShiftCoefficients(s_minus, s_plus, c_minus, c_plus)


# -- HC-MNIST from float images ------------------------------------------------


def parse_idx_float(path: str | Path) -> np.ndarray:
    """An IDX image file (optionally gzipped) as (n, rows*cols) floats in
    [0, 1]: its pixel bytes copied out, converted to float64, then divided
    by 255 in place."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    magic, n, rows, cols = struct.unpack(">iiii", raw[:16])
    assert magic == 0x00000803
    pixels = np.frombuffer(raw[16:16 + n * rows * cols], dtype=np.uint8)
    images = pixels.reshape(n, rows * cols).astype(np.float64)
    images /= 255.0
    return images


def hcmnist_stats_float(images: np.ndarray, labels: np.ndarray) -> HcMnistConfig:
    """Per-class mean and std of the float images' mean intensity."""
    intensity = images.mean(axis=1)
    return HcMnistConfig(
        class_means=tuple(float(intensity[labels == c].mean()) for c in range(10)),
        class_stds=tuple(float(intensity[labels == c].std()) for c in range(10)))


def phi_float(images: np.ndarray, labels: np.ndarray,
              config: HcMnistConfig) -> np.ndarray:
    """phi from the float images' mean intensity, computed over all rows at once."""
    intensity = images.mean(axis=1)
    mu = np.asarray(config.class_means)[labels]
    sd = np.asarray(config.class_stds)[labels]
    z = np.clip((intensity - mu) / sd, -HCMNIST_CLIP, HCMNIST_CLIP)
    lo, hi = _class_range(labels)
    return lo + (z + HCMNIST_CLIP) * (hi - lo) / (2.0 * HCMNIST_CLIP)


def build_hcmnist_float(images: np.ndarray, labels: np.ndarray, seed: int,
                        config: HcMnistConfig, split: str) -> Dataset:
    """HC-MNIST on float images, the covariates column-stacked from the
    images and the confounder. `data.build_hcmnist` must match it bit for
    bit from the uint8 pixels."""
    rng = _stream(seed, split)
    n = len(images)
    u = (rng.uniform(size=n) < 0.5).astype(np.float64)
    phi = phi_float(images, labels, config)
    alpha, beta = _alpha_beta(phi, HCMNIST_GAMMA_STAR)
    p_treat = u / alpha + (1.0 - u) / beta
    a = (rng.uniform(size=n) < p_treat).astype(np.float64)
    lean = -2.0 * (2.0 * u - 1.0) * (1.0 + 0.5 * phi)
    m1 = phi + 1.0 - 2.0 * np.sin(2.0 * phi) + lean
    m0 = -phi - 1.0 + 2.0 * np.sin(2.0 * phi) + lean
    eps = rng.standard_normal(n)
    y1 = m1 + eps
    y0 = m0 + eps
    y = np.where(a == 1.0, y1, y0)
    return Dataset(x=np.column_stack([images, u]), a=a, y=y, y0=y0, y1=y1,
                   tau_oracle=m1 - m0, split=split)


# -- CSV tables cell by cell ---------------------------------------------------

# doubles whose shortest text is hardest to write or parse: signed zeros,
# the infinities and NaN, subnormals and the normal boundary, the largest
# double, and neighbours of 1e16 and 1e-4, where repr switches between
# positional and exponent notation
FLOAT_EDGES = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), -1e16,
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), -1e-4,
)
# doubles of every kind, with FLOAT_EDGES and the ranges around 1e16 and
# 1e-4 drawn often
EDGE_FLOATS = st.one_of(st.floats(), st.sampled_from(FLOAT_EDGES),
                        st.floats(1e15, 1e17), st.floats(1e-5, 1e-3))


def _cell_per_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table_per_cell(path: str | Path, columns: Mapping[str, Sequence]) -> None:
    """A table as `data.write_table` writes it, one cell and one
    `csv.writer` row at a time: each value formatted on its own and the
    quoting left to csv's excel dialect."""
    cells = [[_cell_per_value(v)
              for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
             for c in columns.values()]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))
