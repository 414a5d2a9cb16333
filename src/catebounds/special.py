"""The two special functions the pipeline needs, on numpy alone.

`expit` is the logistic link 1 / (1 + exp(-x)): the propensities, the
softplus and spline-derivative pullbacks and the generators' treatment
draws. `ndtri` is the standard normal quantile function, which places
stage 2's nodes Phi^-1((j - 1/2)/k).

`ndtri` transcribes Cephes' `ndtri.c` (Stephen L. Moshier) and returns
the compiled routine's bits: every polynomial is Horner's rule as separate
float64 multiplies and adds (no fused multiply-add), and the tail's two
logarithms go through `math.log`, the C library's, because numpy's
vectorized `log` may round differently. `expit` uses numpy's `exp`, which
is not the C library's either, so it can differ from a C `expit` in the
last few bits (by at most 4 ulp on float64 inputs).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expit", "ndtri"]


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise. Below
    x = -709 exp(-x) overflows to inf and the result is 0.0, without a
    warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


# Cephes ndtri.c. Each Q has a leading 1, which Cephes' p1evl leaves
# implicit: 1 * x is exact, so `_polevl` gives p1evl's bits. Central range
# |p - 1/2| <= 1/2 - exp(-2): x/sqrt(2 pi) = w + w w^2 P0(w^2) / Q0(w^2),
# w = p - 1/2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails, in z = 1/t with t = sqrt(-2 log p): P1/Q1 for t < 8, that is
# p > exp(-32); P2/Q2 for smaller p
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_SQRT_2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, highest power first, one rounding per operation."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(p):
    """Phi^-1(p) elementwise, bit for bit Cephes' `ndtri`: -inf at 0,
    +inf at 1, NaN outside [0, 1] and at NaN."""
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    out = np.full(flat.shape, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    inner = (flat > 0.0) & (flat < 1.0)
    upper = flat > 1.0 - _EXP_M2
    # reflect the upper tail: p -> 1 - p, and the sign at the end
    y = np.where(upper, 1.0 - flat, flat)

    mid = inner & (y > _EXP_M2)
    w = y[mid] - 0.5
    w2 = w * w
    x = w + w * (w2 * _polevl(w2, _P0) / _polevl(w2, _Q0))
    out[mid] = x * _SQRT_2PI

    tail = inner & ~mid
    t = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = t - _libm_log(t) / t
    z = 1.0 / t
    x1 = np.where(t < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out.reshape(p.shape) if p.ndim else out[0]
