"""Deferral policies and their metrics.

A point estimator induces the two-action policy 1{tau_hat > 0}. Interval
bounds induce a three-action policy: treat when the whole interval is
positive, don't treat when it is negative, defer otherwise. Policies are
scored against the sign of the oracle effect; the error rate counts only
non-deferred decisions, and the deferral rate is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import CateBounds
from .data import write_table

__all__ = [
    "Decision",
    "PolicyReport",
    "point_policy",
    "bounds_policy",
    "score_policy",
    "rpehe",
    "make_grid",
    "write_er_dr_curve_csv",
    "write_decision_grid_csv",
]


class Decision(Enum):
    TREAT = "treat"
    NO_TREAT = "no_treat"
    DEFER = "defer"


@dataclass(frozen=True)
class PolicyReport:
    """Scored policy: error rate over decided points, deferral share.

    error_rate is None when every point was deferred (total deferral earns
    no score, not a perfect one). delta_er = error_rate - baseline error
    rate when a baseline was supplied; negative means the policy improved.
    """

    error_rate: float | None
    deferral_rate: float
    n_decided: int
    delta_er: float | None = None


def point_policy(tau_hat: np.ndarray) -> list[Decision]:
    """Treat exactly when the point estimate is strictly positive."""
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    if not np.all(np.isfinite(tau_hat)):
        raise ValueError("point estimates must be finite")
    return [Decision.TREAT if t > 0.0 else Decision.NO_TREAT for t in tau_hat]


def bounds_policy(bounds: CateBounds) -> list[Decision]:
    """Treat when lower > 0, don't treat when upper < 0, defer otherwise."""
    lower = np.asarray(bounds.lower, dtype=np.float64)
    upper = np.asarray(bounds.upper, dtype=np.float64)
    if np.any(lower > upper):
        raise ValueError("need lower <= upper per point")
    out = []
    for lo, hi in zip(lower, upper):
        if lo > 0.0:
            out.append(Decision.TREAT)
        elif hi < 0.0:
            out.append(Decision.NO_TREAT)
        else:
            out.append(Decision.DEFER)
    return out


def score_policy(decisions: Sequence[Decision], tau_oracle: np.ndarray,
                 baseline_error_rate: float | None = None) -> PolicyReport:
    """Error rate against the oracle policy 1{tau_oracle > 0}.

    Mismatches are counted over non-deferred points only; the deferral rate
    is deferred / total.
    """
    tau_oracle = np.asarray(tau_oracle, dtype=np.float64)
    if len(decisions) != len(tau_oracle):
        raise ValueError("decisions and oracle effects must align")
    if len(decisions) == 0:
        raise ValueError("nothing to score")
    n = len(decisions)
    decided = [i for i, d in enumerate(decisions) if d is not Decision.DEFER]
    deferral_rate = (n - len(decided)) / n
    if not decided:
        return PolicyReport(error_rate=None, deferral_rate=1.0, n_decided=0)
    wrong = sum(
        1 for i in decided
        if (decisions[i] is Decision.TREAT) != bool(tau_oracle[i] > 0.0))
    error_rate = wrong / len(decided)
    delta = None if baseline_error_rate is None else error_rate - baseline_error_rate
    return PolicyReport(error_rate=error_rate, deferral_rate=deferral_rate,
                        n_decided=len(decided), delta_er=delta)


def rpehe(tau_hat: np.ndarray, tau_samples: np.ndarray) -> float:
    """Root mean squared error between estimated and sampled effects."""
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    tau_samples = np.asarray(tau_samples, dtype=np.float64)
    if tau_hat.shape != tau_samples.shape or tau_hat.ndim != 1:
        raise ValueError("need two aligned 1-D vectors")
    if len(tau_hat) == 0:
        raise ValueError("nothing to score")
    return float(np.sqrt(np.mean((tau_samples - tau_hat) ** 2)))


# the synthetic covariates' box that decision-boundary exports cover
GRID_X1_RANGE = (-2.0, 2.0)
GRID_X2_RANGE = (-3.0, 3.0)


def make_grid(resolution: int = 50) -> np.ndarray:
    """Row-major 2-D covariate lattice over GRID_X1_RANGE x GRID_X2_RANGE for
    decision-boundary exports."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    g1 = np.linspace(*GRID_X1_RANGE, resolution)
    g2 = np.linspace(*GRID_X2_RANGE, resolution)
    m1, m2 = np.meshgrid(g1, g2, indexing="ij")
    return np.column_stack([m1.ravel(), m2.ravel()])


def write_er_dr_curve_csv(path: str | Path, deltas: Sequence[float],
                          reports: Sequence[PolicyReport]) -> None:
    """One curve point per neighbourhood size delta."""
    if len(deltas) != len(reports):
        raise ValueError("deltas and reports must align")
    write_table(path, {
        "delta": deltas,
        "error_rate": [r.error_rate for r in reports],
        "deferral_rate": [r.deferral_rate for r in reports],
        "n_decided": [r.n_decided for r in reports],
    })


def write_decision_grid_csv(path: str | Path, x: np.ndarray,
                            tau_oracle: np.ndarray, tau_hat: np.ndarray,
                            decisions: Sequence[Decision]) -> None:
    """Lattice rows with oracle effect, estimate, and the policy's action."""
    x = np.asarray(x, dtype=np.float64)
    if not (len(x) == len(tau_oracle) == len(tau_hat) == len(decisions)):
        raise ValueError("grid columns must align")
    write_table(path, {"x1": x[:, 0], "x2": x[:, 1], "tau_oracle": tau_oracle,
                       "tau_hat": tau_hat,
                       "decision": [d.value for d in decisions]})
