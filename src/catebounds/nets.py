"""Fully connected building blocks: one-hidden-layer MLPs, optimizers,
standardizers, and the one record layout every saved model uses.

Every network in the pipeline is a single-hidden-layer ELU MLP.
Initialization is uniform He-style fan-in scaling with zero biases, drawn from
a dedicated `numpy` generator per network so that a seed fixes the run
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

import numpy as np

from .autodiff import NonFiniteError, Tensor, as_tensor

__all__ = [
    "MlpConfig",
    "Mlp",
    "forward_mlp",
    "AdamW",
    "SgdMomentum",
    "TrainRun",
    "MinibatchSampler",
    "fit",
    "Standardizer",
    "fit_standardizer",
    "checkpoint",
    "read_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_units: int
    output_dim: int
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be positive")


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Mlp:
    """One-hidden-layer perceptron with explicit parameter tensors."""

    def __init__(self, cfg: MlpConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.w1 = Tensor(_init_weight(rng, cfg.input_dim, cfg.hidden_units), requires_grad=True)
        self.b1 = Tensor(np.zeros(cfg.hidden_units), requires_grad=True)
        self.w2 = Tensor(_init_weight(rng, cfg.hidden_units, cfg.output_dim), requires_grad=True)
        self.b2 = Tensor(np.zeros(cfg.output_dim), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def __call__(self, x) -> Tensor:
        return forward_mlp(self.cfg, self.parameters(), x)

    def zero_output_layer(self) -> None:
        """Zero the output layer (used to start flows at the identity map)."""
        self.w2.data[:] = 0.0
        self.b2.data[:] = 0.0


def forward_mlp(cfg: MlpConfig, params: Sequence[Tensor], x) -> Tensor:
    """Forward pass `elu(x @ W1 + b1) @ W2 + b2`.

    `x` may be an ndarray or Tensor of shape (n, input_dim).
    """
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"expected input of shape (n, {cfg.input_dim}), got {x.shape}"
        )
    w1, b1, w2, b2 = params
    return (x @ w1 + b1).elu() @ w2 + b2


# AdamW's moment decay rates and denominator guard
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# SgdMomentum's heavy-ball coefficient
SGD_MOMENTUM = 0.9


class AdamW:
    """Adam with decoupled weight decay, at ADAM_BETAS and ADAM_EPS."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 weight_decay: float = 0.0):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0.0:
            raise ValueError("weight decay must be non-negative")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        b1, b2 = ADAM_BETAS
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteError("non-finite gradient in optimizer step")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1**self.t)
            v_hat = self.v[i] / (1.0 - b2**self.t)
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * p.data
            )


class SgdMomentum:
    """SGD with heavy-ball momentum SGD_MOMENTUM and optional L2 weight decay."""

    def __init__(self, params: Sequence[Tensor], lr: float, weight_decay: float = 0.0):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0.0:
            raise ValueError("weight decay must be non-negative")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteError("non-finite gradient in optimizer step")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.velocity[i] = SGD_MOMENTUM * self.velocity[i] + g
            p.data = p.data - self.lr * self.velocity[i]


@dataclass
class TrainRun:
    """Hyperparameters of one training run (loss traces live on the models)."""

    batch_size: int = 64
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    n_iter: int = 5000
    # separate optimizer settings for a jointly trained propensity subnet
    prop_learning_rate: float | None = None
    prop_weight_decay: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        if self.n_iter < 1:
            raise ValueError("n_iter must be positive")
        if self.prop_learning_rate is not None and self.prop_learning_rate <= 0.0:
            raise ValueError("prop_learning_rate must be positive")
        if self.prop_weight_decay is not None and self.prop_weight_decay < 0.0:
            raise ValueError("prop_weight_decay must be non-negative")


class MinibatchSampler:
    """Shuffled without-replacement minibatches, reshuffling every epoch."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError("empty dataset")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next_indices(self) -> np.ndarray:
        if self._pos + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        idx = self._order[self._pos : self._pos + self.batch_size]
        self._pos += self.batch_size
        return idx


def fit(batch_loss: Callable[[np.ndarray], Tensor], optimizers: Sequence,
        n: int, run: TrainRun, rng: np.random.Generator) -> Iterator[float]:
    """The minibatch loop every network trains through.

    Per step: draw a batch of row indices with :class:`MinibatchSampler`,
    zero every optimizer's gradients, backpropagate `batch_loss(indices)`,
    step every optimizer, and yield the step's loss.
    """
    sampler = MinibatchSampler(n, run.batch_size, rng)
    for _ in range(run.n_iter):
        idx = sampler.next_indices()
        for opt in optimizers:
            opt.zero_grad()
        loss = batch_loss(idx)
        loss.backward()
        for opt in optimizers:
            opt.step()
        yield float(loss.data)


class Standardizer(NamedTuple):
    """Per-column training mean and standard deviation."""

    mean: np.ndarray
    std: np.ndarray


def fit_standardizer(values: np.ndarray) -> Standardizer:
    """Column means and standard deviations of `values`, one row per
    observation (a 1-D array is one column). The deviations are floored at
    1e-8, so a constant column standardizes to zero."""
    v = np.atleast_2d(np.asarray(values, dtype=np.float64).T).T
    return Standardizer(v.mean(axis=0), np.maximum(v.std(axis=0), 1e-8))


# -- the model record ----------------------------------------------------------
#
# Every saved model is one JSON object: {"kind", "config", "nets": {name:
# [w1, b1, w2, b2]}, "arrays": {name: [...]}, "loss_trace"}. `kind` names the
# model class and `config` what rebuilds its networks; `arrays` holds its
# other fitted arrays (standardizers). Each array is written by one
# `tolist()`, so the record adds no pass over the floats.


def checkpoint(kind: str, config: dict, nets: dict[str, Mlp],
               arrays: dict[str, np.ndarray], loss_trace: Sequence[float]) -> dict:
    """The JSON-ready record of one model."""
    return {"kind": kind, "config": config,
            "nets": {name: [p.data.tolist() for p in net.parameters()]
                     for name, net in nets.items()},
            "arrays": {name: a.tolist() for name, a in arrays.items()},
            "loss_trace": list(loss_trace)}


_RECORD_KEYS = ("kind", "config", "nets", "arrays", "loss_trace")


def _check_keys(what: str, got, expected: Collection[str]) -> None:
    missing = sorted(set(expected) - set(got))
    unexpected = sorted(set(got) - set(expected))
    if missing or unexpected:
        raise ValueError(f"{what}: missing keys {missing}, "
                         f"unexpected keys {unexpected}")


def read_checkpoint(payload: dict, kind: str, config_keys: Collection[str]) -> dict:
    """The config of a record, after checking that it is a `kind` record
    with exactly the keys `checkpoint` writes and a config with exactly
    `config_keys`, the fields that rebuild the model."""
    got = payload.get("kind") if isinstance(payload, dict) else None
    if got != kind:
        raise ValueError(f"expected a {kind} checkpoint, got kind {got!r}")
    _check_keys(f"{kind} checkpoint", payload, _RECORD_KEYS)
    _check_keys(f"{kind} checkpoint config", payload["config"], config_keys)
    return payload["config"]


def load_checkpoint(payload: dict, nets: dict[str, Mlp],
                    arrays: dict[str, np.ndarray]) -> list[float]:
    """Fill a model built from its record's config: the parameters of `nets`
    and, in place, `arrays`, under the names `checkpoint` gave them. Each
    saved array must have the shape of the one it replaces. Returns the
    record's loss trace."""
    kind = payload["kind"]

    def loaded(what: str, saved: list, current: list) -> list[np.ndarray]:
        new = [np.asarray(a, dtype=np.float64) for a in saved]
        got, want = [a.shape for a in new], [c.shape for c in current]
        if got != want:
            raise ValueError(f"{kind} checkpoint: {what} has shapes {got}, "
                             f"expected {want}")
        return new

    for what, saved, expected in (("nets", payload["nets"], nets),
                                  ("arrays", payload["arrays"], arrays)):
        if set(saved) != set(expected):
            raise ValueError(f"{kind} checkpoint holds {what} {sorted(saved)}, "
                             f"expected {sorted(expected)}")
    for name, net in nets.items():
        params = net.parameters()
        new = loaded(f"net {name!r}", payload["nets"][name], [p.data for p in params])
        for p, a in zip(params, new):
            p.data = a
    for name, dst in arrays.items():
        dst[...] = loaded(f"array {name!r}", [payload["arrays"][name]], [dst])[0]
    return list(payload["loss_trace"])
