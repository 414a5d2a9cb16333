"""Experiment orchestration: data loading, tuning, staged pipelines, results.

A run goes: load/generate one train/test pair -> (optionally) tune each
stage by randomized grid search with stratified 5-fold CV -> per seed, train
stage 0, the two propensity nets, and the flow -> build one sensitivity
field for every delta -> bound the CATE on the test split -> score the point
and interval policies -> persist per-point CSVs, checkpoints, and aggregate
tables. Everything downstream of the config is seed-deterministic, so a
re-run with the same config reproduces every emitted number.
"""

from __future__ import annotations

import itertools
import json
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import NonFiniteError, Tensor
from .bounds import cate_bounds, read_bounds_csv, write_bounds_csv
from .config import (_STAGES, DatasetSpec, ExperimentConfig, FlowParams,
                     PropensityParams, Stage0Params, _balancing_config,
                     _flow_config, _hidden_units, config_from_dict,
                     config_hash, config_to_dict)
from .data import (Dataset, HcMnistConfig, build_hcmnist, gen_synthetic,
                   load_ihdp_csv, parse_idx, read_table, synthetic_tau,
                   write_table)
from .estimators import (EstimatorConfig, EstimatorKind, Stage0Model,
                         bce_logits, build_stage0, predict_heads,
                         predict_point_cate, representation, train_stage0)
from .evaluation import (PolicyReport, bounds_policy, make_grid, point_policy,
                         rpehe, score_policy, write_decision_grid_csv,
                         write_er_dr_curve_csv)
from .flow import ConditionalFlow, FlowDivergenceError, train_cnf
from .nets import TrainRun, child_seeds
from .sensitivity import (PropensityModel, build_gamma_field, train_propensity,
                          write_gamma_csv)

__all__ = [
    "load_dataset",
    "grid_search_cv",
    "tune_config",
    "run_pipeline",
    "run_experiment",
    "emit_results",
    "RunRecord",
]

DATA_DIR_ENV = "RICB_DATA_DIR"

_LEARNING_RATES = (0.001, 0.005, 0.01)
_BATCH_SIZES = (32, 64, 128)
_WEIGHT_DECAYS = (0.0, 0.001, 0.01, 0.1)
_HIDDEN_MULTIPLIERS = (1.0, 1.5, 2.0)
_KNOT_COUNTS = (5, 10, 20)
_NOISE_LEVELS = (0.05, 0.1, 0.5)


def _resolve_data_dir(spec: DatasetSpec) -> Path:
    root = spec.path or os.environ.get(DATA_DIR_ENV)
    if root is None:
        raise ValueError(
            f"dataset kind '{spec.kind}' needs a data directory: set the "
            f"spec's path or the {DATA_DIR_ENV} environment variable")
    return Path(root)


def _find_idx(directory: Path, base: str) -> Path:
    for name in (base, base + ".gz"):
        p = directory / name
        if p.exists():
            return p
    raise FileNotFoundError(f"{base}[.gz] not found under {directory}")


def load_dataset(spec: DatasetSpec) -> tuple[Dataset, Dataset]:
    if spec.kind == "synthetic":
        return (gen_synthetic(spec.n_train, spec.seed, "train"),
                gen_synthetic(spec.n_test, spec.seed, "test"))
    directory = _resolve_data_dir(spec)
    if spec.kind == "ihdp":
        train, test = load_ihdp_csv(directory, spec.replicate)
    else:
        tr_images = parse_idx(_find_idx(directory, "train-images-idx3-ubyte"))
        tr_labels = parse_idx(_find_idx(directory, "train-labels-idx1-ubyte"))
        te_images = parse_idx(_find_idx(directory, "t10k-images-idx3-ubyte"))
        te_labels = parse_idx(_find_idx(directory, "t10k-labels-idx1-ubyte"))
        stats = HcMnistConfig.from_data(tr_images, tr_labels)  # train stats only
        train = build_hcmnist(tr_images, tr_labels, spec.seed, stats, "train")
        test = build_hcmnist(te_images, te_labels, spec.seed, stats, "test")
    # the spec's sizes enter config_hash and results.json, so they must be
    # the sizes of the files read
    for split, want in ((train, spec.n_train), (test, spec.n_test)):
        if split.n != want:
            raise ValueError(
                f"{spec.kind} {split.split} split has {split.n} rows but the "
                f"dataset spec asks for {want}")
    return train, test


def _estimator_config(config: ExperimentConfig, d_x: int, seed: int,
                      params: Stage0Params | None = None) -> EstimatorConfig:
    p = params or config.stage0
    r = config.r_multiplier
    return EstimatorConfig(
        kind=EstimatorKind(config.method), d_x=d_x, d_phi=config.d_phi,
        rep_hidden=_hidden_units(p.rep_multiplier, r, d_x),
        head_hidden=_hidden_units(p.head_multiplier, r, config.d_phi),
        balancing=_balancing_config(config), seed=seed)


# One builder per stage, shared by the pipeline and the tuner: each builds
# and trains its network from (config, params, training arrays, seed).


def _fit_stage0(config: ExperimentConfig, params: Stage0Params, x: np.ndarray,
                a: np.ndarray, y: np.ndarray, seed: int) -> Stage0Model:
    model = build_stage0(_estimator_config(config, x.shape[1], seed, params))
    return train_stage0(model, x, a, y, TrainRun.from_params(params))


def _fit_propensity(config: ExperimentConfig, params: PropensityParams,
                    inputs: np.ndarray, a: np.ndarray,
                    seed: int) -> PropensityModel:
    hidden = _hidden_units(params.hidden_multiplier, config.r_multiplier,
                           inputs.shape[1])
    return train_propensity(inputs, a, TrainRun.from_params(params),
                            hidden_units=hidden, seed=seed)


def _fit_flow(config: ExperimentConfig, params: FlowParams, y: np.ndarray,
              a: np.ndarray, phi: np.ndarray, seed: int) -> ConditionalFlow:
    return train_cnf(ConditionalFlow(_flow_config(config, params, seed)),
                     y, a, phi, TrainRun.from_params(params))


# ---------------------------------------------------------------------------
# hyperparameter search


# the params fields each stage's grid varies, and the values tried. The last
# axis varies fastest; the seeded draw picks candidates by position, so this
# order fixes which configs get tuned.
_PROP_AXES = {"learning_rate": _LEARNING_RATES, "batch_size": _BATCH_SIZES,
              "weight_decay": _WEIGHT_DECAYS,
              "hidden_multiplier": _HIDDEN_MULTIPLIERS}
_GRID_AXES = {
    "stage0": {"learning_rate": _LEARNING_RATES, "batch_size": _BATCH_SIZES,
               "weight_decay": _WEIGHT_DECAYS,
               "rep_multiplier": _HIDDEN_MULTIPLIERS,
               "head_multiplier": _HIDDEN_MULTIPLIERS},
    "prop_x": _PROP_AXES,
    "prop_phi": _PROP_AXES,
    "flow": {"learning_rate": _LEARNING_RATES, "batch_size": _BATCH_SIZES,
             "hidden_multiplier": _HIDDEN_MULTIPLIERS, "knots": _KNOT_COUNTS,
             "noise_y": _NOISE_LEVELS, "noise_context": _NOISE_LEVELS},
}
# cfr_isw's jointly trained propensity net gets its own optimizer settings
_ISW_AXES = {"prop_learning_rate": _LEARNING_RATES,
             "prop_weight_decay": _WEIGHT_DECAYS}


def _stage_grid(stage: str, config: ExperimentConfig) -> list:
    if stage not in _GRID_AXES:
        raise ValueError(f"unknown tuning stage: {stage}")
    axes = _GRID_AXES[stage]
    if stage == "stage0" and EstimatorKind(config.method) == EstimatorKind.CFR_ISW:
        axes = {**axes, **_ISW_AXES}
    base = getattr(config, stage)
    return [replace(base, **dict(zip(axes, values)))
            for values in itertools.product(*axes.values())]


def _sample_count(stage: str, config: ExperimentConfig) -> int:
    if config.n_grid is not None:
        return config.n_grid
    if stage == "flow":
        return 100
    if stage == "stage0" and EstimatorKind(config.method) == EstimatorKind.CFR_ISW:
        return 100
    return 50


def _stratified_folds(a: np.ndarray, n_folds: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """Round-robin folds per treatment class, so every fold sees both."""
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (0.0, 1.0):
        idx = np.flatnonzero(a == cls)
        if len(idx) < n_folds:
            raise ValueError(
                f"treatment class {int(cls)} has only {len(idx)} rows; "
                f"cannot stratify {n_folds} folds")
        idx = rng.permutation(idx)
        for f in range(n_folds):
            folds[f].extend(idx[f::n_folds].tolist())
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def _factual_mse(model: Stage0Model, phi: np.ndarray, a: np.ndarray,
                 y: np.ndarray) -> float:
    m0, m1 = predict_heads(model, phi)
    fitted = a * m1 + (1.0 - a) * m0
    return float(np.mean((y - fitted) ** 2))


def _prop_bce(prop: PropensityModel, inputs: np.ndarray, a: np.ndarray) -> float:
    p = prop.predict(inputs)
    return float(-np.mean(a * np.log(p) + (1.0 - a) * np.log(1.0 - p)))


def _candidate_score(stage: str, config: ExperimentConfig, params,
                     train: Dataset, phi: np.ndarray | None,
                     tr_idx: np.ndarray, va_idx: np.ndarray,
                     fit_seed: int) -> float:
    a_tr, a_va = train.a[tr_idx], train.a[va_idx]
    if stage == "stage0":
        model = _fit_stage0(config, params, train.x[tr_idx], a_tr,
                            train.y[tr_idx], fit_seed)
        phi_va = representation(model, train.x[va_idx])
        score = _factual_mse(model, phi_va, a_va, train.y[va_idx])
        if model.config.kind == EstimatorKind.CFR_ISW:
            logits = Tensor(model.nets["prop_phi"].predict(phi_va))
            score += float(bce_logits(logits, a_va).data)
        return score
    if stage in ("prop_x", "prop_phi"):
        inputs = train.x if stage == "prop_x" else phi
        prop = _fit_propensity(config, params, inputs[tr_idx], a_tr, fit_seed)
        return _prop_bce(prop, inputs[va_idx], a_va)
    if stage == "flow":
        flow = _fit_flow(config, params, train.y[tr_idx], a_tr, phi[tr_idx],
                         fit_seed)
        return float(flow.nll(train.y[va_idx], a_va, phi[va_idx]))
    raise ValueError(f"unknown tuning stage: {stage}")


def grid_search_cv(stage: str, config: ExperimentConfig, train: Dataset,
                   phi: np.ndarray | None = None):
    """Randomized grid search, stratified k-fold CV, minimum mean criterion.

    Candidates that diverge or go non-finite score +inf and drop out. Ties
    break toward the earlier sampled candidate.
    """
    grid = _stage_grid(stage, config)
    tag = zlib.crc32(stage.encode())
    rng = np.random.default_rng(np.random.SeedSequence((config.seeds[0], tag)))
    n = min(_sample_count(stage, config), len(grid))
    picked = rng.choice(len(grid), size=n, replace=False)
    folds = _stratified_folds(train.a, config.cv_folds, rng)
    all_idx = np.arange(train.n)
    fit_seed = int(np.random.SeedSequence(
        (config.seeds[0], tag, 1)).generate_state(1)[0])

    best_params, best_score = None, np.inf
    for gi in picked:
        params = grid[int(gi)]
        scores = []
        for va_idx in folds:
            tr_idx = np.setdiff1d(all_idx, va_idx, assume_unique=True)
            try:
                scores.append(_candidate_score(
                    stage, config, params, train, phi, tr_idx, va_idx,
                    fit_seed))
            except (FlowDivergenceError, NonFiniteError):
                scores.append(np.inf)
                break
        mean = float(np.mean(scores))
        if np.isfinite(mean) and mean < best_score:
            best_params, best_score = params, mean
    if best_params is None:
        raise RuntimeError(f"every sampled {stage} candidate diverged")
    return best_params


def tune_config(config: ExperimentConfig, train: Dataset) -> ExperimentConfig:
    """Resolve tuning mode 'grid' into concrete per-stage winners.

    Stages are tuned sequentially: the propensity-on-representation and flow
    searches condition on the representation of the stage-0 winner, fitted
    on the full training split as `train_seed` fits it for `seeds[0]`.
    """
    if config.tuning == "fixed":
        return config
    cfg = replace(config, stage0=grid_search_cv("stage0", config, train))
    model = _fit_stage0(cfg, cfg.stage0, train.x, train.a, train.y,
                        child_seeds(cfg.seeds[0], _STAGES)["stage0"])
    phi = representation(model, train.x)
    cfg = replace(cfg,
                  prop_x=grid_search_cv("prop_x", cfg, train),
                  prop_phi=grid_search_cv("prop_phi", cfg, train, phi),
                  flow=grid_search_cv("flow", cfg, train, phi))
    return replace(cfg, tuning="fixed")


# ---------------------------------------------------------------------------
# per-seed pipeline


@dataclass
class RunRecord:
    """One seed's scores; `per_delta` holds the interval policy's report at
    each of the config's deltas, in their order."""

    config_hash: str
    seed: int
    er_point_out: float | None
    rpehe_in: float
    rpehe_out: float
    per_delta: tuple[PolicyReport, ...]


def _seed_dir(config: ExperimentConfig, seed: int) -> Path:
    d = Path(config.out_dir) / f"seed_{seed}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _save_checkpoint(path: Path, model) -> None:
    """Write a model's record (`nets.checkpoint`) as JSON."""
    # json.dumps encodes in C; json.dump streams through the Python encoder
    path.write_text(json.dumps(model.to_checkpoint(), sort_keys=True))


def _load_checkpoint(path: Path, cls):
    """The `cls` model saved at `path` by `_save_checkpoint`."""
    return cls.from_checkpoint(json.loads(path.read_text()))


def _write_train_tau(path: Path, tau: np.ndarray) -> None:
    write_table(path, {"id": np.arange(len(tau)), "tau_hat": tau})


def _delta_file(delta: float) -> str:
    return f"bounds_{delta!r}.csv"


@contextmanager
def _stage(seed: int, stage: str):
    """Raises a `NonFiniteError` or `FlowDivergenceError` from a stage's fit
    again as the same type, with the pipeline seed and the stage before
    its message."""
    try:
        yield
    except (NonFiniteError, FlowDivergenceError) as err:
        raise type(err)(f"seed {seed}, stage {stage}: {err}") from err


def train_seed(config: ExperimentConfig, train: Dataset, seed: int) -> Stage0Model:
    """Stage 0 for one seed; saves the checkpoint under the seed directory."""
    with _stage(seed, "stage0"):
        model = _fit_stage0(config, config.stage0, train.x, train.a, train.y,
                            child_seeds(seed, _STAGES)["stage0"])
    _save_checkpoint(_seed_dir(config, seed) / "stage0.json", model)
    return model


def refute_seed(config: ExperimentConfig, train: Dataset, test: Dataset,
                seed: int, model: Stage0Model | None = None) -> None:
    """Stages 1-2 for one seed: propensities, flow, one sensitivity field for
    every delta, and test-split interval bounds. Loads the stage-0 checkpoint
    when no model is passed in; never modifies it."""
    sdir = _seed_dir(config, seed)
    seeds = child_seeds(seed, _STAGES)
    if model is None:
        path = sdir / "stage0.json"
        if not path.exists():
            raise FileNotFoundError(
                f"{path} missing; run the train step for seed {seed} first")
        model = _load_checkpoint(path, Stage0Model)
    phi_tr = representation(model, train.x)

    with _stage(seed, "prop_x"):
        prop_x = _fit_propensity(config, config.prop_x, train.x, train.a,
                                 seeds["prop_x"])
    with _stage(seed, "prop_phi"):
        prop_phi = _fit_propensity(config, config.prop_phi, phi_tr, train.a,
                                   seeds["prop_phi"])
    _save_checkpoint(sdir / "prop_x.json", prop_x)
    _save_checkpoint(sdir / "prop_phi.json", prop_phi)

    with _stage(seed, "flow"):
        flow = _fit_flow(config, config.flow, train.y, train.a, phi_tr,
                         seeds["flow"])
    _save_checkpoint(sdir / "flow.json", flow)

    pi1_x_tr = prop_x.predict(train.x)
    pi1_phi_tr = prop_phi.predict(phi_tr)
    _write_train_tau(sdir / "train_tau.csv", predict_point_cate(model, phi_tr))

    field = build_gamma_field(phi_tr, pi1_x_tr, pi1_phi_tr, config.deltas)
    write_gamma_csv([sdir / f"gamma_{delta!r}.csv" for delta in config.deltas],
                    phi_tr, pi1_x_tr, pi1_phi_tr, field.train_gamma_points,
                    field.train_gamma_hat)
    per_delta = cate_bounds(test.x, model, prop_x, prop_phi, field, flow, config.k)
    write_bounds_csv([sdir / _delta_file(delta) for delta in config.deltas],
                     per_delta, [[d.value for d in bounds_policy(bounds)]
                                 for bounds in per_delta])

    if config.grid_resolution > 0:
        _emit_decision_grid(config, sdir, model, prop_x, prop_phi, flow, field)


def _read_tau_csv(path: Path) -> np.ndarray:
    header, rows = read_table(path)
    j = header.index("tau_hat")
    return np.array([float(row[j]) for row in rows], dtype=np.float64)


def evaluate_seed(config: ExperimentConfig, train: Dataset, test: Dataset,
                  seed: int) -> RunRecord:
    """Score one seed's saved artifacts; writes the ER/DR curve."""
    if train.tau_oracle is None or test.tau_oracle is None:
        raise ValueError("policy scoring needs effect oracles on both splits")
    sdir = _seed_dir(config, seed)
    for required in [sdir / "train_tau.csv",
                     *(sdir / _delta_file(d) for d in config.deltas)]:
        if not required.exists():
            raise FileNotFoundError(
                f"{required} missing; run the refute step for seed {seed} first")
    tau_in = _read_tau_csv(sdir / "train_tau.csv")
    tables = [read_bounds_csv(sdir / _delta_file(d)) for d in config.deltas]
    # every delta's table holds the same point estimates
    tau_out = tables[0].point
    er_point = score_policy(point_policy(tau_out), test.tau_oracle).error_rate
    reports = tuple(score_policy(bounds_policy(b), test.tau_oracle,
                                 baseline_error_rate=er_point) for b in tables)
    write_er_dr_curve_csv(sdir / "curve.csv", config.deltas, reports)
    return RunRecord(
        config_hash=config_hash(config), seed=seed, er_point_out=er_point,
        rpehe_in=rpehe(tau_in, train.tau_oracle),
        rpehe_out=rpehe(tau_out, test.tau_oracle), per_delta=reports)


def run_pipeline(config: ExperimentConfig, train: Dataset, test: Dataset,
                 seed: int) -> RunRecord:
    """All three stages plus scoring for one seed, through the same writers
    the individual CLI verbs use."""
    model = train_seed(config, train, seed)
    refute_seed(config, train, test, seed, model=model)
    return evaluate_seed(config, train, test, seed)


def _emit_decision_grid(config, sdir, model, prop_x, prop_phi, flow,
                        field) -> None:
    """Bounds and decisions over a covariate grid, at the first delta."""
    grid = make_grid(resolution=config.grid_resolution)
    bounds = cate_bounds(grid, model, prop_x, prop_phi, field, flow, config.k)[0]
    write_decision_grid_csv(sdir / "decision_grid.csv", grid,
                            synthetic_tau(grid), bounds.point,
                            bounds_policy(bounds))


def _pipeline_worker(payload: tuple[dict, int]) -> "RunRecord":
    raw, seed = payload
    config = config_from_dict(raw)
    train, test = load_dataset(config.dataset)
    return run_pipeline(config, train, test, seed)


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """Tune (if asked), run every seed, and emit aggregate results."""
    train, test = load_dataset(config.dataset)
    resolved = tune_config(config, train)
    if resolved.jobs > 1:
        raw = config_to_dict(resolved)
        with ProcessPoolExecutor(max_workers=resolved.jobs) as pool:
            records = list(pool.map(_pipeline_worker,
                                    [(raw, s) for s in resolved.seeds]))
    else:
        records = [run_pipeline(resolved, train, test, s)
                   for s in resolved.seeds]
    records.sort(key=lambda r: r.seed)
    emit_results(resolved, records)
    return records


# ---------------------------------------------------------------------------
# results emission


def _mean_or_none(values: Sequence[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def _aggregate_rows(config: ExperimentConfig,
                    records: Sequence[RunRecord]) -> list[dict]:
    rpehe_in = float(np.mean([r.rpehe_in for r in records]))
    rpehe_out = float(np.mean([r.rpehe_out for r in records]))
    rows = [{
        "method": config.method, "d_phi": config.d_phi, "delta": "point",
        "er_out": _mean_or_none([r.er_point_out for r in records]),
        "delta_er_out": None, "dr_out": 0.0,
        "rpehe_in": rpehe_in, "rpehe_out": rpehe_out,
        "seeds": len(records),
    }]
    for di, delta in enumerate(config.deltas):
        cells = [r.per_delta[di] for r in records]
        rows.append({
            "method": config.method, "d_phi": config.d_phi, "delta": delta,
            "er_out": _mean_or_none([c.error_rate for c in cells]),
            "delta_er_out": _mean_or_none([c.delta_er for c in cells]),
            "dr_out": float(np.mean([c.deferral_rate for c in cells])),
            "rpehe_in": rpehe_in, "rpehe_out": rpehe_out,
            "seeds": len(records),
        })
    return rows


def emit_results(config: ExperimentConfig,
                 records: Sequence[RunRecord]) -> list[Path]:
    """Aggregate CSV + versioned JSON + a plain-text summary table."""
    if not records:
        raise ValueError("no records to emit")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = _aggregate_rows(config, records)

    csv_path = out / "aggregate.csv"
    header = ["method", "d_phi", "delta", "er_out", "delta_er_out", "dr_out",
              "rpehe_in", "rpehe_out", "seeds"]
    write_table(csv_path, {h: [row[h] for row in rows] for h in header})

    json_path = out / "results.json"
    payload = {
        "schema": "v1",
        "config_hash": config_hash(config),
        "config": config_to_dict(config),
        "records": [{
            "seed": r.seed, "method": config.method, "d_phi": config.d_phi,
            "er_point_out": r.er_point_out, "rpehe_in": r.rpehe_in,
            "rpehe_out": r.rpehe_out,
            "per_delta": [{"delta": delta, "er_out": d.error_rate,
                           "delta_er_out": d.delta_er,
                           "dr_out": d.deferral_rate, "n_decided": d.n_decided}
                          for delta, d in zip(config.deltas, r.per_delta)],
            "checkpoints": {name: f"seed_{r.seed}/{name}.json"
                            for name in _STAGES},
        } for r in records],
        "aggregate": rows,
    }
    with json_path.open("w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    table_path = out / "table.txt"
    widths = (12, 6, 10, 10, 14, 10, 10, 10)
    cols = ("method", "d_phi", "delta", "er_out", "delta_er_out", "dr_out",
            "rpehe_in", "rpehe_out")
    def fmt(row):
        cells = []
        for w, c in zip(widths, cols):
            v = row[c]
            if isinstance(v, float):
                v = f"{v:.4f}"
            cells.append(f"{'' if v is None else v:<{w}}")
        return "  ".join(cells).rstrip()
    text = [fmt({c: c for c in cols})] + [fmt(r) for r in rows]
    table_path.write_text("\n".join(text) + "\n")
    return [csv_path, json_path, table_path]
