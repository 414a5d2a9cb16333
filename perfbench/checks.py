"""Output checks, computed apart from the program.

Each check reads what one pipeline seed wrote and recomputes it from
independent oracles: the odds-ratio formula and a brute-force delta-ball
maximum for Gamma, properties every interval must have, numeric integration
of the extremal density tilts for the bounds, closed-form effects for the
policy scores, and a byte digest for determinism. A check raises
`CheckFailed` with the first discrepancy it finds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from catebounds.estimators import Stage0Model, representation
from catebounds.flow import ConditionalFlow

# relative slack on a delta-ball radius: a training point this close to the
# ball's edge may fall on either side, depending on the last bit of the
# standardisation
_RADIUS_SLACK = 1e-9
# Monte Carlo standard errors allowed between a sampled bound and quadrature
QUADRATURE_Z = 6.0
QUADRATURE_POINTS = 3
GAMMA_QUERY_ROWS = 2000
# points of the outcome grid the quadrature integrates over
QUADRATURE_GRID = 10_001
# sensitivity.write_gamma_csv writes each phi cell with repr() of a numpy
# scalar, which numpy 2 prints as `np.float64(...)`
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


class CheckFailed(AssertionError):
    """An output disagrees with its oracle."""


class KnownFault(CheckFailed):
    """An output shows a known fault of the program, named in CHANGES.md,
    and is otherwise right."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_table(path: Path) -> dict[str, list[str]]:
    """A CSV file as columns of strings, keyed by header name."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) > 1, f"{path}: no data rows")
    header, body = rows[0], rows[1:]
    _require(all(len(r) == len(header) for r in body), f"{path}: ragged rows")
    return {name: [r[j] for r in body] for j, name in enumerate(header)}


def floats(table: dict[str, list[str]], name: str) -> np.ndarray:
    return np.array([float(v) for v in table[name]])


def gamma_file(seed_dir: Path, delta: float) -> Path:
    return seed_dir / f"gamma_{delta!r}.csv"


def bounds_file(seed_dir: Path, delta: float) -> Path:
    return seed_dir / f"bounds_{delta!r}.csv"


# -- effect oracles ------------------------------------------------------------


def synthetic_oracle(x: np.ndarray) -> np.ndarray:
    """Closed-form effect of the synthetic generator: 2x1 + 1 - 4 sin(2x1) cos(x2)."""
    return 2.0 * x[:, 0] + 1.0 - 4.0 * np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])


def hcmnist_oracle(train_images: np.ndarray, train_labels: np.ndarray,
                   images: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """HC-MNIST effect from the raw pixels: the image summary phi is the
    class-standardised mean intensity, clipped to +-1.4 and mapped onto the
    class bin [-2 + 0.4c, -1.6 + 0.4c]; the effect is 2 phi + 2 - 4 sin(2 phi)."""
    clip = 1.4

    def intensity(img: np.ndarray) -> np.ndarray:
        return img.sum(axis=1, dtype=np.int64) / (255.0 * img.shape[1])

    it = intensity(train_images)
    means = np.array([it[train_labels == c].mean() for c in range(10)])
    stds = np.array([it[train_labels == c].std() for c in range(10)])
    z = np.clip((intensity(images) - means[labels]) / stds[labels], -clip, clip)
    phi = -2.0 + 0.4 * labels + (z + clip) * 0.4 / (2.0 * clip)
    return 2.0 * phi + 2.0 - 4.0 * np.sin(2.0 * phi)


# -- Gamma ---------------------------------------------------------------------


def representations(stage0_checkpoint: bytes, *xs: np.ndarray) -> list[np.ndarray]:
    """phi of each row block, from the stage-0 checkpoint the seed wrote."""
    model = Stage0Model.from_checkpoint(json.loads(stage0_checkpoint))
    return [representation(model, x) for x in xs]


def _ball_max(query: np.ndarray, z: np.ndarray, values: np.ndarray,
              radius: float) -> np.ndarray:
    """Per query row, the largest of `values` over the rows of `z` within
    `radius`, or 0 where none is."""
    out = np.empty(len(query))
    for lo in range(0, len(query), 128):
        d2 = np.sum((query[lo:lo + 128, None, :] - z[None, :, :]) ** 2, axis=2)
        out[lo:lo + 128] = np.where(d2 <= radius ** 2, values, 0.0).max(axis=1)
    return out


def check_gamma(seed_dir: Path, deltas, phi: np.ndarray, phi_test: np.ndarray,
                rng: np.random.Generator) -> None:
    """gamma_point from the odds ratio of pi1_x and pi1_phi; gamma_hat as the
    brute-force maximum of gamma_point over the delta-ball around each row's
    phi, standardised here, on all rows or a random subsample of
    GAMMA_QUERY_ROWS; and the test rows' Gamma of the bounds tables at least
    that maximum around their own phi. `phi` is the representation of the
    training rows, `phi_test` that of the test rows."""
    mean, std = phi.mean(axis=0), np.maximum(phi.std(axis=0), 1e-8)
    z, z_test = (phi - mean) / std, (phi_test - mean) / std
    n = len(z)
    rows = (np.arange(n) if n <= GAMMA_QUERY_ROWS
            else np.sort(rng.choice(n, size=GAMMA_QUERY_ROWS, replace=False)))
    for delta in deltas:
        path = gamma_file(seed_dir, delta)
        t = read_table(path)
        px, pp = floats(t, "pi1_x"), floats(t, "pi1_phi")
        gp, gh = floats(t, "gamma_point"), floats(t, "gamma_hat")
        _require(len(gp) == n, f"{path}: {len(gp)} rows for {n} training points")
        _require(bool(np.all((px > 0) & (px < 1) & (pp > 0) & (pp < 1))),
                 f"{path}: propensity outside (0, 1)")
        odds_ratio = (px / (1.0 - px)) / (pp / (1.0 - pp))
        expect = np.maximum(odds_ratio, 1.0 / odds_ratio)
        bad = np.flatnonzero(np.abs(gp - expect) > 1e-12 * expect)
        _require(bad.size == 0, f"{path}: gamma_point of row {bad[:1]} is "
                 f"{gp[bad[:1]]}, odds ratio gives {expect[bad[:1]]}")
        inner = _ball_max(z[rows], z, gp, delta * (1 - _RADIUS_SLACK))
        outer = _ball_max(z[rows], z, gp, delta * (1 + _RADIUS_SLACK))
        bad = np.flatnonzero((gh[rows] < inner) | (gh[rows] > outer))
        _require(bad.size == 0, f"{path}: gamma_hat of row {rows[bad[:1]]} is "
                 f"{gh[rows[bad[:1]]]}, the delta-ball maximum is {inner[bad[:1]]}")
        path = bounds_file(seed_dir, delta)
        gamma = floats(read_table(path), "gamma")
        _require(len(gamma) == len(z_test), f"{path}: {len(gamma)} rows for "
                 f"{len(z_test)} test points")
        inner = _ball_max(z_test, z, gp, delta * (1 - _RADIUS_SLACK))
        bad = np.flatnonzero(gamma < inner)
        _require(bad.size == 0, f"{path}: test Gamma of point {bad[:1]} is "
                 f"{gamma[bad[:1]]}, below the delta-ball maximum {inner[bad[:1]]}")


def check_gamma_csv(seed_dir: Path, deltas, phi: np.ndarray) -> None:
    """Every cell of each gamma table is a plain number, and its phi columns
    hold the representation of the training rows. A phi cell written as
    `np.float64(<number>)` is read as its number and, once every other cell
    and value is right, raises KnownFault."""
    wrapped = 0
    for delta in deltas:
        path = gamma_file(seed_dir, delta)
        t = read_table(path)
        cols = [c for c in t if c.startswith("phi")]
        _require(len(cols) == phi.shape[1], f"{path}: {len(cols)} phi columns "
                 f"for a {phi.shape[1]}-dimensional representation")
        values = {}
        for name, cells in t.items():
            column = []
            for i, cell in enumerate(cells):
                known = _NUMPY_REPR.fullmatch(cell) if name in cols else None
                if known:
                    wrapped += 1
                    cell = known.group(1)
                try:
                    column.append(float(cell))
                except ValueError:
                    raise CheckFailed(f"{path}: {name} of row {i} is "
                                      f"{t[name][i]!r}, not a number") from None
            values[name] = column
        got = np.column_stack([values[c] for c in cols])
        _require(bool(np.array_equal(got, phi)),
                 f"{path}: phi columns differ from the representation")
    if wrapped:
        raise KnownFault(f"{wrapped} phi cells of the gamma tables are written "
                         f"as np.float64(...), not as plain numbers")


# -- interval properties -------------------------------------------------------


def check_intervals(seed_dir: Path, deltas, n_train: int, n_test: int) -> None:
    """lower <= upper, Gamma >= 1, one row per point, and Gamma and interval
    width weakly increasing in delta for every point."""
    prev = None
    for delta in sorted(deltas):
        g = read_table(gamma_file(seed_dir, delta))
        b = read_table(bounds_file(seed_dir, delta))
        where = f"{seed_dir.name} delta={delta!r}"
        gp, gh = floats(g, "gamma_point"), floats(g, "gamma_hat")
        lower, upper = floats(b, "lower"), floats(b, "upper")
        gamma, tau = floats(b, "gamma"), floats(b, "tau_hat")
        _require(len(gp) == n_train and len(lower) == n_test,
                 f"{where}: {len(gp)} Gamma and {len(lower)} bounds rows for "
                 f"{n_train} training and {n_test} test points")
        _require(bool(np.all(gp >= 1.0) and np.all(gh >= gp)),
                 f"{where}: training Gamma below 1 or below its own point value")
        _require(bool(np.all(gamma >= 1.0)), f"{where}: test Gamma below 1")
        bad = np.flatnonzero(lower > upper)
        _require(bad.size == 0, f"{where}: lower > upper at point {bad[:1]}")
        cur = {"gh": gh, "gamma": gamma, "width": upper - lower, "tau": tau}
        if prev is not None:
            for key in ("gh", "gamma", "width"):
                bad = np.flatnonzero(cur[key] < prev[key])
                _require(bad.size == 0, f"{where}: {key} decreases with delta "
                         f"at point {bad[:1]}")
            _require(bool(np.array_equal(cur["tau"], prev["tau"])),
                     f"{where}: point estimates differ between deltas")
        prev = cur


# -- quadrature ----------------------------------------------------------------


class TiltQuadrature:
    """Extremal tilted means of one outcome density by numeric integration.

    A tilt weighs the density by w_low below its c-quantile q and by w_high
    above. Its mean is w_high E[Y] + (w_low - w_high) E[Y 1{Y <= q}], and the
    Monte Carlo variance of the k-sample estimator is the variance of the
    influence function w_high (y - E[Y]) + (w_low - w_high) ((y - q) 1{y <= q}
    + q c - E[Y 1{Y <= q}]), divided by k.
    """

    def __init__(self, y: np.ndarray, density: np.ndarray):
        self.y = y
        dy = np.diff(y)
        mass = np.concatenate([[0.0], np.cumsum(0.5 * dy * (density[1:] + density[:-1]))])
        self.p = density / mass[-1]
        self.cdf = mass / mass[-1]
        yp = y * self.p
        self.partial = np.concatenate([[0.0], np.cumsum(0.5 * dy * (yp[1:] + yp[:-1]))])
        self.mean = self.partial[-1]

    def tilt(self, c: float, w_low: float, w_high: float) -> tuple[float, float]:
        q = float(np.interp(c, self.cdf, self.y))
        low = float(np.interp(q, self.y, self.partial))
        value = w_high * self.mean + (w_low - w_high) * low
        influence = (w_high * (self.y - self.mean) + (w_low - w_high)
                     * (np.where(self.y <= q, self.y - q, 0.0) + q * c - low))
        return value, float(np.trapezoid(influence ** 2 * self.p, self.y))

    def bounds(self, gamma: float, pi: float) -> tuple[tuple, tuple]:
        """((mu_lower, var), (mu_upper, var)) at sensitivity gamma and
        propensity pi of the arm."""
        up = (1.0 - gamma) * pi + gamma                  # 1 / s_minus
        down = (1.0 - 1.0 / gamma) * pi + 1.0 / gamma    # 1 / s_plus
        return (self.tilt(1.0 / (1.0 + gamma), up, down),
                self.tilt(gamma / (1.0 + gamma), down, up))


@dataclass
class QuadratureReport:
    # per (point, delta): point, delta, csv lower and upper, quadrature lower
    # and upper, tolerance
    rows: list[tuple[int, float, float, float, float, float, float]]

    @property
    def worst(self) -> float:
        """Largest |csv - quadrature| as a share of its tolerance."""
        return max(max(abs(lo - qlo), abs(hi - qhi)) / tol
                   for _, _, lo, hi, qlo, qhi, tol in self.rows)


def check_quadrature(seed_dir: Path, phi: np.ndarray, deltas, k: int,
                     points: list[int]) -> QuadratureReport:
    """Rebuild the flow from its checkpoint, and compare each CSV bound at
    test rows `points`, whose representations are `phi`, with the quadrature
    of the extremal tilts, within QUADRATURE_Z Monte Carlo standard errors
    at k."""
    flow = ConditionalFlow.from_checkpoint(
        json.loads((seed_dir / "flow.json").read_text()))
    tables = {d: read_table(bounds_file(seed_dir, d)) for d in deltas}
    # the spline is the identity beyond 5 standardised units, so +-9 leaves
    # Gaussian tails of mass below 1e-18 outside the grid
    y = (np.linspace(-9.0, 9.0, QUADRATURE_GRID) * flow.y_scaler.std[0]
         + flow.y_scaler.mean[0])
    report = QuadratureReport(rows=[])
    for j, i in enumerate(points):
        arm = {a: TiltQuadrature(y, np.exp(flow.log_density(
                   y, np.full(QUADRATURE_GRID, float(a)),
                   np.tile(phi[j], (QUADRATURE_GRID, 1)))))
               for a in (0, 1)}
        for d in deltas:
            t = tables[d]
            gamma, pi1 = float(t["gamma"][i]), float(t["pi1_phi"][i])
            (m1_lo, v1_lo), (m1_hi, v1_hi) = arm[1].bounds(gamma, pi1)
            (m0_lo, v0_lo), (m0_hi, v0_hi) = arm[0].bounds(gamma, 1.0 - pi1)
            lower, upper = float(t["lower"][i]), float(t["upper"][i])
            q_lower, q_upper = m1_lo - m0_hi, m1_hi - m0_lo
            se = math.sqrt(max(v1_lo + v0_hi, v1_hi + v0_lo) / k)
            tol = QUADRATURE_Z * se + 1e-6 * (1.0 + abs(q_lower) + abs(q_upper))
            report.rows.append((i, d, lower, upper, q_lower, q_upper, tol))
            _require(abs(lower - q_lower) <= tol and abs(upper - q_upper) <= tol,
                     f"{seed_dir.name} point {i} delta={d!r}: bounds "
                     f"[{lower:.6g}, {upper:.6g}], quadrature "
                     f"[{q_lower:.6g}, {q_upper:.6g}], tolerance {tol:.3g}")
    return report


# -- policy scores -------------------------------------------------------------


def _decisions(lower: np.ndarray, upper: np.ndarray) -> list[str]:
    return ["treat" if lo > 0.0 else "no_treat" if hi < 0.0 else "defer"
            for lo, hi in zip(lower, upper)]


def _error_rate(treat: list[bool], oracle: np.ndarray) -> float | None:
    wrong = sum(1 for t, o in zip(treat, oracle) if t != bool(o > 0.0))
    return wrong / len(treat) if treat else None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_policy(out_dir: Path, seed: int, deltas, tau_oracle: np.ndarray) -> None:
    """Decisions recomputed from lower and upper; error, deferral and point
    error rates and the effect RMSE recomputed against the oracle effect and
    compared with results.json."""
    results = json.loads((out_dir / "results.json").read_text())
    records = [r for r in results["records"] if r["seed"] == seed]
    _require(len(records) == 1, f"results.json holds no record for seed {seed}")
    record = records[0]
    seed_dir = out_dir / f"seed_{seed}"
    tau_hat = floats(read_table(bounds_file(seed_dir, deltas[0])), "tau_hat")
    _require(len(tau_hat) == len(tau_oracle), "bounds rows do not match test rows")
    er_point = _error_rate([bool(t > 0.0) for t in tau_hat], tau_oracle)
    _require(_close(record["er_point_out"], er_point),
             f"er_point_out {record['er_point_out']!r}, recomputed {er_point!r}")
    rmse = float(np.sqrt(np.mean((tau_oracle - tau_hat) ** 2)))
    _require(math.isclose(record["rpehe_out"], rmse, rel_tol=1e-9),
             f"rpehe_out {record['rpehe_out']!r}, recomputed {rmse!r}")
    _require(len(record["per_delta"]) == len(deltas), "per-delta records missing")
    for d, got in zip(deltas, record["per_delta"]):
        t = read_table(bounds_file(seed_dir, d))
        expect = _decisions(floats(t, "lower"), floats(t, "upper"))
        bad = [i for i, (a, b) in enumerate(zip(t["decision"], expect)) if a != b]
        _require(not bad, f"delta={d!r}: decision of point {bad[:1]} is "
                 f"{t['decision'][bad[0]] if bad else ''}, bounds give "
                 f"{expect[bad[0]] if bad else ''}")
        decided = [i for i, e in enumerate(expect) if e != "defer"]
        er = _error_rate([expect[i] == "treat" for i in decided],
                         tau_oracle[decided])
        want = {"delta": d, "n_decided": len(decided),
                "dr_out": (len(expect) - len(decided)) / len(expect),
                "er_out": er,
                "delta_er_out": None if er is None else er - er_point}
        for key, value in want.items():
            _require(_close(got[key], value),
                     f"delta={d!r}: {key} {got[key]!r}, recomputed {value!r}")


# -- determinism ---------------------------------------------------------------


def digest(out_dir: Path) -> str:
    """sha256 over every file under out_dir, by relative path and bytes."""
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out_dir)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()
