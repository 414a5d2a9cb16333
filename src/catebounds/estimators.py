"""Representation-learning CATE estimators (stage 0 of the pipeline).

All estimators share one architecture family: a representation net
phi: R^d_x -> R^d_phi followed by outcome heads, trained on factual outcomes
with AdamW. Variants differ in heads, auxiliary nets, balancing penalties, and
loss re-weighting:

- tarnet: two outcome heads on a shared representation, plain factual MSE.
- bnn: a single outcome head with two outputs, MMD balancing with fixed
  alpha = 0.1.
- cfr: tarnet plus a balancing penalty (MMD or Wasserstein) scaled by alpha.
- inv_tarnet: tarnet plus a decoder head and a reconstruction loss.
- rcfr: cfr plus a trainable re-weighting net (softplus output, normalized to
  batch mean 1) entering the MSE and the balancing term.
- cfr_isw: cfr plus a jointly trained representation-propensity net (own
  optimizer settings); inverse-propensity-style weights, clamped to [0.1, 10],
  enter the factual MSE as constants.
- bwcfr: cfr plus a jointly trained covariate-propensity net; overlap weights
  pi(1-a | x) enter the factual MSE as constants.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import Tensor, slice_last, take_rows
from .balancing import BalancingConfig, BalancingMetric, balancing_penalty
from .nets import (AdamW, Mlp, MlpConfig, TrainRun, checkpoint, child_seeds,
                   fit, load_checkpoint, read_checkpoint)
from .special import expit

__all__ = [
    "EstimatorKind",
    "EstimatorConfig",
    "Stage0Model",
    "build_stage0",
    "stage0_loss",
    "bce_logits",
    "train_stage0",
    "predict_point_cate",
    "predict_heads",
    "representation",
    "PROPENSITY_CLIP",
    "ISW_WEIGHT_CLIP",
    "NEEDS_BALANCING",
    "BNN_BALANCING",
]

PROPENSITY_CLIP = (0.01, 0.99)
ISW_WEIGHT_CLIP = (0.1, 10.0)


class EstimatorKind(enum.Enum):
    TARNET = "tarnet"
    BNN = "bnn"
    CFR = "cfr"
    INV_TARNET = "inv_tarnet"
    RCFR = "rcfr"
    CFR_ISW = "cfr_isw"
    BWCFR = "bwcfr"


NEEDS_BALANCING = {EstimatorKind.BNN, EstimatorKind.CFR, EstimatorKind.RCFR,
                   EstimatorKind.CFR_ISW, EstimatorKind.BWCFR}
# bnn's balancing is fixed, not configured
BNN_BALANCING = BalancingConfig(metric=BalancingMetric.MMD, alpha=0.1)


@dataclass(frozen=True)
class EstimatorConfig:
    kind: EstimatorKind
    d_x: int
    d_phi: int
    rep_hidden: int
    head_hidden: int
    balancing: BalancingConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.d_x < 1 or self.d_phi < 1:
            raise ValueError("d_x and d_phi must be positive")
        if self.rep_hidden < 1 or self.head_hidden < 1:
            raise ValueError("hidden sizes must be positive")
        if self.kind in NEEDS_BALANCING and self.balancing is None:
            raise ValueError(f"{self.kind.value} requires a balancing config")
        if self.kind is EstimatorKind.BNN and self.balancing != BNN_BALANCING:
            raise ValueError("bnn uses MMD balancing with alpha fixed at 0.1")


# the names `build_stage0` seeds, in spawn order: every subnet any kind can
# have, then the minibatch shuffle. A seed depends on its name's position.
_SEEDED = ("phi", "head0", "head1", "snet", "decoder", "weight", "prop_phi",
           "prop_x", "shuffle")


def _subnet_sizes(c: EstimatorConfig) -> dict[str, tuple[int, int, int]]:
    """Each subnet of `c.kind`, by the name that seeds and saves it, with its
    (input, hidden, output) sizes."""
    head = (c.d_phi, c.head_hidden, 1)
    outcome = ({"snet": (c.d_phi, c.head_hidden, 2)}
               if c.kind is EstimatorKind.BNN else {"head0": head, "head1": head})
    extra = {EstimatorKind.INV_TARNET: {"decoder": (c.d_phi, c.rep_hidden, c.d_x)},
             EstimatorKind.RCFR: {"weight": head},
             EstimatorKind.CFR_ISW: {"prop_phi": head},
             EstimatorKind.BWCFR: {"prop_x": (c.d_x, c.rep_hidden, 1)}}
    return {"phi": (c.d_x, c.rep_hidden, c.d_phi), **outcome,
            **extra.get(c.kind, {})}


@dataclass
class Stage0Model:
    """The subnets of one stage-0 estimator, keyed as in `_subnet_sizes`."""

    config: EstimatorConfig
    nets: dict[str, Mlp]
    shuffle_seed: int
    loss_trace: list[float] = field(default_factory=list)

    def main_parameters(self) -> list[Tensor]:
        """Parameters driven by the factual loss (everything but cfr_isw's
        propensity net, which has its own optimizer settings)."""
        return [p for name, net in self.nets.items() if name != "prop_phi"
                for p in net.parameters()]

    def _head_outputs(self, rep: Tensor) -> tuple[Tensor, Tensor]:
        if self.config.kind is EstimatorKind.BNN:
            out = self.nets["snet"](rep)
            return slice_last(out, 0, 1), slice_last(out, 1, 2)
        return self.nets["head0"](rep), self.nets["head1"](rep)

    # -- serialization ---------------------------------------------------------

    def to_checkpoint(self) -> dict:
        cfg = self.config
        raw = dict(asdict(cfg), kind=cfg.kind.value)
        if cfg.balancing is not None:
            raw["balancing"]["metric"] = cfg.balancing.metric.value
        return checkpoint("stage0", raw, self.nets, {}, self.loss_trace)

    @staticmethod
    def from_checkpoint(payload: dict) -> "Stage0Model":
        raw = read_checkpoint(payload, "stage0",
                              [f.name for f in fields(EstimatorConfig)])
        b = raw["balancing"]
        model = build_stage0(EstimatorConfig(**dict(
            raw, kind=EstimatorKind(raw["kind"]),
            balancing=None if b is None else BalancingConfig(
                **dict(b, metric=BalancingMetric(b["metric"]))))))
        model.loss_trace = load_checkpoint(payload, model.nets, {})
        return model


def build_stage0(config: EstimatorConfig) -> Stage0Model:
    """Instantiate the subnetworks for `config.kind` under the seed protocol."""
    seeds = child_seeds(config.seed, _SEEDED)
    nets = {name: Mlp(MlpConfig(*sizes, seed=seeds[name]))
            for name, sizes in _subnet_sizes(config).items()}
    return Stage0Model(config, nets, shuffle_seed=seeds["shuffle"])


def bce_logits(logits: Tensor, a: np.ndarray) -> Tensor:
    """Numerically stable mean BCE: softplus(z) - a*z on raw logits."""
    a_col = Tensor(a.reshape(-1, 1))
    return (logits.softplus() - a_col * logits).mean()


def _isw_weights(logits: Tensor, a: np.ndarray) -> np.ndarray:
    p1 = np.clip(expit(logits.data[:, 0]), *PROPENSITY_CLIP)
    p_a = np.where(a == 1, p1, 1.0 - p1)
    p_not_a = 1.0 - p_a
    marg1 = float(np.clip(a.mean(), *PROPENSITY_CLIP))
    marg_a = np.where(a == 1, marg1, 1.0 - marg1)
    marg_not_a = 1.0 - marg_a
    w = 1.0 + (marg_not_a / marg_a) * (p_not_a / p_a)
    return np.clip(w, *ISW_WEIGHT_CLIP)


def _overlap_weights(logits: Tensor, a: np.ndarray) -> np.ndarray:
    p1 = np.clip(expit(logits.data[:, 0]), *PROPENSITY_CLIP)
    return np.where(a == 1, 1.0 - p1, p1)


def stage0_loss(model: Stage0Model, x: np.ndarray, a: np.ndarray,
                y: np.ndarray) -> tuple[Tensor, dict[str, float]]:
    """Training loss on one batch plus a breakdown of its parts.

    Returns (loss, parts); parts holds floats for mse / balancing /
    reconstruction / bce / mean_weight. A batch that happens to contain a
    single treatment group skips the balancing term for that step.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    kind = model.config.kind
    rep = model.nets["phi"](x)
    m0, m1 = model._head_outputs(rep)
    a_col = Tensor(a.reshape(-1, 1))
    pred = a_col * m1 + (1.0 - a_col) * m0
    sq = (pred - y.reshape(-1, 1)) ** 2

    # one propensity-subnet call gives the MSE weights (as constants) and BCE
    logits = None
    if kind is EstimatorKind.CFR_ISW:
        logits = model.nets["prop_phi"](rep.data)
    elif kind is EstimatorKind.BWCFR:
        logits = model.nets["prop_x"](x)

    parts: dict[str, float] = {}
    weights_t: Tensor | None = None
    if kind is EstimatorKind.RCFR:
        raw_w = model.nets["weight"](rep).softplus()
        weights_t = raw_w / raw_w.mean()
        parts["mean_weight"] = float(weights_t.data.mean())
        mse = (weights_t * sq).mean()
    elif logits is not None:
        weigh = _isw_weights if kind is EstimatorKind.CFR_ISW else _overlap_weights
        w = weigh(logits, a)
        parts["mean_weight"] = float(w.mean())
        mse = (Tensor(w.reshape(-1, 1)) * sq).mean()
    else:
        mse = sq.mean()
    parts["mse"] = float(mse.data)
    loss = mse

    bal = model.config.balancing
    if bal is not None and bal.alpha > 0.0:
        idx1 = np.flatnonzero(a == 1)
        idx0 = np.flatnonzero(a == 0)
        if len(idx1) > 0 and len(idx0) > 0:
            w1 = w0 = None
            if weights_t is not None:
                w1 = take_rows(weights_t, idx1)
                w0 = take_rows(weights_t, idx0)
            pen = balancing_penalty(bal, take_rows(rep, idx1), take_rows(rep, idx0),
                                    weights_treated=w1, weights_control=w0)
            parts["balancing"] = float(pen.data)
            loss = loss + bal.alpha * pen

    if kind is EstimatorKind.INV_TARNET:
        recon = model.nets["decoder"](rep)
        l_rec = ((recon - x) ** 2).mean()
        parts["reconstruction"] = float(l_rec.data)
        loss = loss + l_rec

    if logits is not None:
        bce = bce_logits(logits, a)
        parts["bce"] = float(bce.data)
        loss = loss + bce

    return loss, parts


def train_stage0(model: Stage0Model, x: np.ndarray, a: np.ndarray, y: np.ndarray,
                 run: TrainRun) -> Stage0Model:
    """Minibatch AdamW training of all stage-0 subnetworks."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[1] != model.config.d_x:
        raise ValueError(f"expected covariates of shape (n, {model.config.d_x})")
    if not (len(x) == len(a) == len(y)):
        raise ValueError("x, a, y must have equal length")
    if not np.all(np.isin(a, (0.0, 1.0))):
        raise ValueError("treatment must be binary")
    if a.min() == a.max():
        raise ValueError("dataset has a single treatment group")

    optimizers = [AdamW(model.main_parameters(), lr=run.learning_rate,
                        weight_decay=run.weight_decay)]
    if model.config.kind is EstimatorKind.CFR_ISW:
        optimizers.append(AdamW(
            model.nets["prop_phi"].parameters(),
            lr=(run.prop_learning_rate if run.prop_learning_rate is not None
                else run.learning_rate),
            weight_decay=(run.prop_weight_decay
                          if run.prop_weight_decay is not None
                          else run.weight_decay),
        ))
    model.loss_trace = list(fit(
        lambda idx: stage0_loss(model, x[idx], a[idx], y[idx])[0], optimizers,
        len(x), run, np.random.default_rng(model.shuffle_seed)))
    return model


def representation(model: Stage0Model, x: np.ndarray) -> np.ndarray:
    return model.nets["phi"].predict(np.asarray(x, dtype=np.float64))


def predict_heads(model: Stage0Model, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Potential-outcome head predictions (mu0_hat, mu1_hat), each (n,), from
    representations `phi` (as `representation` returns them)."""
    phi = np.asarray(phi, dtype=np.float64)
    if model.config.kind is EstimatorKind.BNN:
        out = model.nets["snet"].predict(phi)
        return out[:, 0], out[:, 1]
    return (model.nets["head0"].predict(phi)[:, 0],
            model.nets["head1"].predict(phi)[:, 0])


def predict_point_cate(model: Stage0Model, phi: np.ndarray) -> np.ndarray:
    """mu1_hat - mu0_hat at representations `phi`."""
    m0, m1 = predict_heads(model, phi)
    return m1 - m0
