"""The run config: which data, which estimator, and each stage's settings.

One `ExperimentConfig` sets every run of the pipeline. It is checked when it
is built, so a bad setting fails before anything trains, and `config_hash`
names the numbers a run emits. The runner imports the config from here; this
module imports none of the pipeline's stages beyond the settings they take.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field, replace

from .balancing import BalancingConfig, BalancingMetric
from .estimators import BNN_BALANCING, NEEDS_BALANCING, EstimatorKind
from .flow import FlowConfig
from .nets import TrainRun
from .sensitivity import DELTA_PRESETS

__all__ = [
    "DatasetSpec",
    "Stage0Params",
    "PropensityParams",
    "FlowParams",
    "ExperimentConfig",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
]

# the trained stages: each one's config section, seed name (in spawn order)
# and checkpoint name
_STAGES = ("stage0", "prop_x", "prop_phi", "flow")


@dataclass(frozen=True)
class DatasetSpec:
    """Which data to run on. `path` (or the RICB_DATA_DIR env var) points at
    the IHDP CSV directory / the MNIST IDX directory; synthetic needs none."""

    kind: str = "synthetic"
    n_train: int = 1000
    n_test: int = 1000
    seed: int = 0
    replicate: int = 1
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "ihdp", "hcmnist"):
            raise ValueError("dataset kind must be synthetic, ihdp, or hcmnist")
        if not (self.n_train >= 1 and self.n_test >= 1):  # NaN too
            raise ValueError("split sizes must be positive")


@dataclass(frozen=True)
class Stage0Params:
    # defaults sit on the tuning grid, picked by a synthetic-benchmark sweep
    learning_rate: float = 0.005
    batch_size: int = 128
    weight_decay: float = 0.0
    rep_multiplier: float = 1.5
    head_multiplier: float = 1.5
    prop_learning_rate: float | None = None
    prop_weight_decay: float | None = None
    n_iter: int = 5000


@dataclass(frozen=True)
class PropensityParams:
    learning_rate: float = 0.01
    batch_size: int = 64
    weight_decay: float = 0.0
    hidden_multiplier: float = 1.0
    n_iter: int = 5000


@dataclass(frozen=True)
class FlowParams:
    learning_rate: float = 0.005
    batch_size: int = 64
    hidden_multiplier: float = 1.0
    knots: int = 10
    noise_y: float = 0.1
    noise_context: float = 0.05
    n_iter: int = 5000


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    method: str = "tarnet"
    balancing_metric: str | None = None
    balancing_alpha: float = 0.0
    balancing_kernel: str = "linear"
    sinkhorn_epsilon: float = 0.1
    sinkhorn_iters: int = 10
    d_phi: int = 1
    deltas: tuple[float, ...] = DELTA_PRESETS
    k: int = 10_000
    tuning: str = "fixed"
    n_grid: int | None = None
    cv_folds: int = 5
    seeds: tuple[int, ...] = (0,)
    jobs: int = 1
    grid_resolution: int = 0
    out_dir: str = "results"

    stage0: Stage0Params = field(default_factory=Stage0Params)
    prop_x: PropensityParams = field(default_factory=PropensityParams)
    prop_phi: PropensityParams = field(default_factory=PropensityParams)
    flow: FlowParams = field(default_factory=FlowParams)

    def __post_init__(self) -> None:
        # before any check: deltas and seeds as tuples (JSON gives lists),
        # float settings as floats (0 and 0.0 are one config), int ones ints
        for name, kind in (("deltas", float), ("seeds", int)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            object.__setattr__(self, name, tuple(
                _number(f"{name}[{i}]", v, kind) for i, v in enumerate(values)))
        for name, value in _numbers(self).items():
            object.__setattr__(self, name, value)
        EstimatorKind(self.method)  # raises on unknown method
        if self.tuning not in ("fixed", "grid"):
            raise ValueError("tuning must be 'fixed' or 'grid'")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.n_grid is not None and self.n_grid < 1:
            raise ValueError(f"n_grid must be positive, got {self.n_grid}")
        if self.k < 1 or self.d_phi < 1:
            raise ValueError("k and d_phi must be positive")
        if not self.deltas or any(not d >= 0.0 for d in self.deltas):  # NaN too
            raise ValueError("deltas must be non-negative and non-empty")
        if len(set(self.deltas)) != len(self.deltas):
            raise ValueError(f"deltas must be distinct, got {self.deltas}")
        if self.cv_folds < 2:
            raise ValueError("cross-validation needs at least 2 folds")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if self.grid_resolution < 0 or self.grid_resolution == 1:
            raise ValueError("grid_resolution must be 0 (no grid) or at least "
                             f"2, got {self.grid_resolution}")
        if self.dataset.kind != "synthetic":
            _refuse_unused(self, "grid_resolution", f"{self.dataset.kind} data")
        # each section's numbers as above, then what its stage builds, so that
        # a bad setting fails here and not after earlier stages have trained;
        # an error names its section
        for section in ("dataset", *_STAGES):
            try:
                params = getattr(self, section)
                params = replace(params, **_numbers(params))
                object.__setattr__(self, section, params)
                if section == "dataset":
                    continue
                TrainRun.from_params(params)
                for name, value in dataclasses.asdict(params).items():
                    if name.endswith("multiplier") and not value > 0.0:
                        raise ValueError(f"{name} must be positive")
                # only cfr_isw trains a propensity subnet in stage 0
                if (section == "stage0" and EstimatorKind(self.method)
                        is not EstimatorKind.CFR_ISW):
                    _refuse_unused(params, "prop_", self.method)
                if section == "flow":
                    _flow_config(self, params, seed=0)
            except ValueError as err:
                raise ValueError(f"{section}: {err}") from None
        _balancing_config(self)

    @property
    def r_multiplier(self) -> int:
        # wider subnets on the low-dimensional synthetic benchmark
        return 2 if self.dataset.kind == "synthetic" else 1


_NUMERIC = {"float": float, "float | None": float, "int": int, "int | None": int}


def _refuse_unused(obj, prefix: str | tuple[str, ...], user: str) -> None:
    """Refuse each field of dataclass `obj` named with `prefix` that is off
    its default: `user` never reads it, yet it would enter config_hash."""
    for f in dataclasses.fields(obj):
        if f.name.startswith(prefix) and getattr(obj, f.name) != f.default:
            raise ValueError(f"{user} does not use {f.name}; leave it at its "
                             f"default {f.default!r}")


def _number(name: str, value, kind: type):
    """`value` as a `kind`, float or int. A bool, a non-number, and for an
    int a non-integer, raise ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def _numbers(obj) -> dict:
    """Each set float- or int-typed field of dataclass `obj`, by `_number`."""
    return {f.name: _number(f.name, getattr(obj, f.name), _NUMERIC[f.type])
            for f in dataclasses.fields(obj)
            if f.type in _NUMERIC and getattr(obj, f.name) is not None}


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(raw: dict) -> ExperimentConfig:
    def checked(cls, values, section: str | None) -> dict:
        if not isinstance(values, dict):
            where = "config" if section is None else f"{section}: section"
            raise ValueError(f"{where} must be a JSON object, got {values!r}")
        unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            what = "" if section is None else f"{section} "
            raise ValueError(f"unknown {what}config keys: {sorted(unknown)}")
        return dict(values)

    kwargs = checked(ExperimentConfig, raw, None)
    # the config's sections are its dataclass-valued fields
    for f in dataclasses.fields(ExperimentConfig):
        if dataclasses.is_dataclass(f.default_factory) and f.name in raw:
            kwargs[f.name] = f.default_factory(**checked(
                f.default_factory, raw[f.name], f.name))
    return ExperimentConfig(**kwargs)


def config_hash(config: ExperimentConfig) -> str:
    import hashlib

    payload = config_to_dict(config)
    # where results go and how many workers produced them cannot change any
    # emitted number, so they stay out of the identity
    payload.pop("out_dir", None)
    payload.pop("jobs", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# The builders the load-time checks share with the runner's stage fits.


def _hidden_units(multiplier: float, r: int, d: int) -> int:
    return max(1, int(round(multiplier * r * d)))


def _balancing_config(config: ExperimentConfig) -> BalancingConfig | None:
    # the knobs enter config_hash and results.json whatever the method, so
    # they are range-checked for every method, and a method or metric that
    # does not read them refuses any knob moved off its default
    metric = config.balancing_metric
    knobs = BalancingConfig(
        metric=BalancingMetric.MMD if metric is None else BalancingMetric(metric),
        alpha=config.balancing_alpha, kernel=config.balancing_kernel,
        sinkhorn_epsilon=config.sinkhorn_epsilon,
        sinkhorn_iters=config.sinkhorn_iters)
    kind = EstimatorKind(config.method)
    if kind in NEEDS_BALANCING and kind is not EstimatorKind.BNN:
        if metric is None:
            raise ValueError(f"{config.method} needs a balancing_metric")
        _refuse_unused(config, "sinkhorn_" if metric == "mmd"
                       else "balancing_kernel", f"{metric} balancing")
        return knobs
    _refuse_unused(config, ("balancing_", "sinkhorn_"), config.method)
    return BNN_BALANCING if kind is EstimatorKind.BNN else None


def _flow_config(config: ExperimentConfig, params: FlowParams,
                 seed: int) -> FlowConfig:
    hidden = _hidden_units(params.hidden_multiplier, config.r_multiplier,
                           config.d_phi)
    return FlowConfig(
        context_dim=1 + config.d_phi, hidden_units=hidden, knots=params.knots,
        noise_y=params.noise_y, noise_context=params.noise_context, seed=seed)
