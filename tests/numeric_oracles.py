"""Numeric oracles the tests check the package against.

Finite-difference gradient checks for tape code, the total mass of a flow
density by quadrature, and the closed-form tilt coefficients of one
(Gamma, pi) pair. The package itself never calls these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import trapezoid
from scipy.stats import norm

from catebounds.autodiff import Tensor
from catebounds.flow import TAIL_BOUND, ConditionalFlow
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
    """Compare analytic gradients of the scalar `f()` with central differences."""
    loss = f()
    analytic = backward_gradients(loss, params)
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
