"""Fully connected building blocks: one-hidden-layer MLPs, optimizers,
standardizers, and the one record layout every saved model uses.

Every network in the pipeline is a single-hidden-layer ELU MLP.
Initialization is uniform He-style fan-in scaling with zero biases, drawn from
a dedicated `numpy` generator per network so that a seed fixes the run
bitwise.
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

import numpy as np

from .autodiff import (NonFiniteError, Tensor, _check_finite, _unbroadcast,
                       as_tensor)

__all__ = [
    "MlpConfig",
    "Mlp",
    "ROW_BLOCK",
    "UPDATE_BLOCK",
    "forward_mlp",
    "AdamW",
    "SgdMomentum",
    "TrainRun",
    "MinibatchSampler",
    "fit",
    "Standardizer",
    "fit_standardizer",
    "as_columns",
    "child_seeds",
    "encode_array",
    "decode_array",
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


# rows per network call outside training. Blocks start at row 0, so a row's
# output never depends on how a caller splits its rows into chunks.
ROW_BLOCK = 2048


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Mlp:
    """One-hidden-layer perceptron; its parameters are trainable only in `fit`."""

    def __init__(self, cfg: MlpConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.w1 = Tensor(_init_weight(rng, cfg.input_dim, cfg.hidden_units))
        self.b1 = Tensor(np.zeros(cfg.hidden_units))
        self.w2 = Tensor(_init_weight(rng, cfg.hidden_units, cfg.output_dim))
        self.b2 = Tensor(np.zeros(cfg.output_dim))

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def __call__(self, x) -> Tensor:
        return forward_mlp(self.cfg, self.parameters(), x)

    def predict(self, x, prepare: Callable | None = None) -> np.ndarray:
        """The network's outputs at the rows of `x`, without recording.

        The rows run through `forward_mlp` in blocks of ROW_BLOCK from row
        0, each block passed through `prepare` first (a standardizer's
        `apply`), so the temporaries are of one block's size, not of n.
        numpy multiplies a lone row by gemv, which rounds unlike the gemm of
        a larger block, so a block of one row runs beside its copy.
        """
        x = np.asarray(x)
        out = np.empty((len(x), self.cfg.output_dim))
        for lo in range(0, len(x), ROW_BLOCK):
            block = x[lo:lo + ROW_BLOCK]
            block = block if prepare is None else prepare(block)
            out[lo:lo + ROW_BLOCK] = forward_mlp(
                self.cfg, self.parameters(),
                np.repeat(block, 2, axis=0) if len(block) == 1 else block,
            ).data[:len(block)]
        return out

    def zero_output_layer(self) -> None:
        """Zero the output layer (used to start flows at the identity map)."""
        self.w2.data[:] = 0.0
        self.b2.data[:] = 0.0


def forward_mlp(cfg: MlpConfig, params: Sequence[Tensor], x) -> Tensor:
    """`elu(x @ W1 + b1) @ W2 + b2` as one tape op.

    `x` may be an ndarray or Tensor of shape (n, input_dim). The values and
    gradients are those of the composed ops, bit for bit: the backward makes
    their numpy calls in their order. The ELU runs in the pre-activation's
    buffer, and the backward reads its mask and derivative from the
    activation h alone (h > 0 iff the pre-activation is, and below 0 the
    derivative is h + 1). So training and inference run one path, and a
    forward holds h and one (n, hidden) mask beside its output. The
    pre-activation is checked for finiteness before the ELU, which would
    map -inf to -1; the output is checked as every op's. A weight's first
    adjoint is written by its matmul straight into the weight's slice of an
    optimizer's gradient buffer (`grad_out`), where it has one.
    """
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"expected input of shape (n, {cfg.input_dim}), got {x.shape}"
        )
    w1, b1, w2, b2 = params
    xd, w1d, w2d = x.data, w1.data, w2.data
    h = xd @ w1d
    # a -0.0 bias added as +0.0 leaves no pre-activation at -0.0, even where
    # a matmul returns -0.0 (one that sums from +0.0 never does): the ELU
    # below would keep it, and max(pre, expm1(min(pre, 0))) gives +0.0
    h += b1.data + 0.0
    _check_finite(h, "mlp")
    np.expm1(h, out=h, where=h < 0.0)
    out = h @ w2d
    out += b2.data

    def backward(g):
        if b2.requires_grad:
            b2._accumulate(_unbroadcast(g, b2.data.shape))
        if w2.requires_grad:
            _accumulate_matmul(w2, h.T, g)
        g_pre = (g @ w2d.T) * np.where(h > 0.0, 1.0, h + 1.0)
        if b1.requires_grad:
            b1._accumulate(_unbroadcast(g_pre, b1.data.shape))
        if x.requires_grad:
            x._accumulate(g_pre @ w1d.T)
        if w1.requires_grad:
            _accumulate_matmul(w1, xd.T, g_pre)

    return Tensor._result(out, (x, w1, b1, w2, b2), backward, "mlp")


def _accumulate_matmul(weight: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """Add `a @ b` to the gradient of `weight`. A first adjoint with a slice
    to go to (an optimizer's `grad_out`) is the matmul's own output there, so
    no weight-sized temporary is made; a later one is added in place."""
    if weight.grad is None and weight.grad_out is not None:
        weight.grad = np.matmul(a, b, out=weight.grad_out)
    else:
        weight._accumulate(a @ b)


# AdamW's moment decay rates and denominator guard
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# SgdMomentum's heavy-ball coefficient
SGD_MOMENTUM = 0.9
# elements per block of an optimizer update: a block of each of AdamW's six
# arrays (parameters, gradient, two moments, two scratch) is 1.5 MiB, so the
# update's passes over one block stay in a 2 MiB L2 cache
UPDATE_BLOCK = 32768


def _slices(flat: np.ndarray, params: Sequence[Tensor]) -> list[np.ndarray]:
    """Consecutive views of `flat`, one per parameter, in its shape."""
    views, offset = [], 0
    for p in params:
        views.append(flat[offset:offset + p.data.size].reshape(p.data.shape))
        offset += p.data.size
    return views


def _flatten(params: Sequence[Tensor]) -> np.ndarray:
    """One contiguous buffer holding the values of `params`; each parameter's
    `data` becomes a view of its slice, so an update in place moves it."""
    flat = np.concatenate([p.data for p in params], axis=None)
    for p, view in zip(params, _slices(flat, params)):
        p.data = view
    return flat


class _FlatOptimizer:
    """The parameters of an optimizer as one buffer, their gradients in a
    second and the optimizer's state in more of the same size beside them.

    A step checks once that every gradient is present and finite, then runs
    the subclass's `_update` over consecutive blocks of UPDATE_BLOCK elements
    of the buffers, each block with the same numpy calls in the same order.
    The update is elementwise, so the values are those of whole-buffer
    passes, while each pass over a block finds it still in cache. Scratch
    arrays are one block long; a vector shorter than a block is one block.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        if not lr > 0.0:  # NaN fails every range test
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.flat = _flatten(self.params)
        self.grad = np.empty_like(self.flat)
        # backpropagation writes each parameter's first adjoint into its
        # slice of the gradient buffer and adds the others there
        self._grad_slices = _slices(self.grad, self.params)
        for p, view in zip(self.params, self._grad_slices):
            p.grad_out = view

    def _block_views(self, state: Sequence[np.ndarray],
                     scratch: int) -> list[list[np.ndarray]]:
        """Per block: its views of the parameters, the gradient and each
        `state` buffer, then `scratch` arrays of its length, shared by every
        block."""
        size = self.flat.size
        block = min(UPDATE_BLOCK, size)
        spare = np.empty((scratch, block))
        return [[a[lo:lo + block] for a in (self.flat, self.grad, *state)]
                + [s[:min(block, size - lo)] for s in spare]
                for lo in range(0, size, block)]

    def _gather(self) -> None:
        """Check that every parameter has a gradient and that all are
        finite. A gradient that is not its slice (one set by hand) is copied
        in."""
        for i, (p, view) in enumerate(zip(self.params, self._grad_slices)):
            if p.grad is None:
                raise ValueError(f"optimizer step: parameter {i} (shape "
                                 f"{p.shape}) has no gradient")
            if p.grad is not view:
                np.copyto(view, p.grad)
        if not np.isfinite(self.grad).all():
            raise NonFiniteError("non-finite gradient in optimizer step")

    def step(self) -> None:
        """Check the gradients, then update every block in place; no
        parameter moves unless all gradients are finite."""
        self._gather()
        self._start_step()
        for block in self._blocks:
            self._update(*block)

    def _start_step(self) -> None:
        """Set what every block of this step shares."""


class AdamW(_FlatOptimizer):
    """Adam with decoupled weight decay, at ADAM_BETAS and ADAM_EPS. It keeps
    four parameter-sized buffers (parameters, gradient, m, v) and two scratch
    blocks."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 weight_decay: float = 0.0):
        if not weight_decay >= 0.0:
            raise ValueError("weight decay must be non-negative")
        super().__init__(params, lr)
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._blocks = self._block_views((self.m, self.v), scratch=2)

    def _start_step(self) -> None:
        b1, b2 = ADAM_BETAS
        self.t += 1
        self._corrections = (1.0 - b1**self.t, 1.0 - b2**self.t)

    def _update(self, p, g, m, v, s, u) -> None:
        """p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p), with m and v the
        moment estimates and m_hat, v_hat their bias corrections, each term
        rounded as written. The decay term is skipped at wd = 0, where it
        cannot change the sum: m starts at +0.0 and so is never -0.0, and
        neither is the term it is added to."""
        b1, b2 = ADAM_BETAS
        c1, c2 = self._corrections
        np.multiply(b1, m, out=m)
        np.multiply(1.0 - b1, g, out=s)
        m += s
        np.multiply(b2, v, out=v)
        np.multiply(1.0 - b2, g, out=s)
        s *= g
        v += s
        np.divide(m, c1, out=u)
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        u /= s
        if self.weight_decay:
            np.multiply(self.weight_decay, p, out=s)
            u += s
        u *= self.lr
        p -= u


class SgdMomentum(_FlatOptimizer):
    """SGD with heavy-ball momentum SGD_MOMENTUM."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        super().__init__(params, lr)
        self.velocity = np.zeros_like(self.flat)
        self._blocks = self._block_views((self.velocity,), scratch=1)

    def _update(self, p, g, v, s) -> None:
        """v = momentum * v + g; then p - lr * v."""
        np.multiply(SGD_MOMENTUM, v, out=v)
        v += g
        np.multiply(self.lr, v, out=s)
        p -= s


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
        if not self.batch_size >= 1:  # NaN fails every test
            raise ValueError("batch_size must be positive")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if not self.weight_decay >= 0.0:
            raise ValueError("weight_decay must be non-negative")
        if not self.n_iter >= 1:
            raise ValueError("n_iter must be positive")
        if self.prop_learning_rate is not None and not self.prop_learning_rate > 0.0:
            raise ValueError("prop_learning_rate must be positive")
        if self.prop_weight_decay is not None and not self.prop_weight_decay >= 0.0:
            raise ValueError("prop_weight_decay must be non-negative")

    @classmethod
    def from_params(cls, params) -> TrainRun:
        """The training run a stage's params dataclass sets: every TrainRun
        field it has (the flow's has no weight decay, so it keeps 0)."""
        values = asdict(params)
        return cls(**{f.name: values[f.name] for f in fields(cls)
                      if f.name in values})


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

    The optimizers' parameters require a gradient only while the loop runs:
    up to its end, a step that raises, or the consumer stopping early. Per
    step: draw a batch of row indices with :class:`MinibatchSampler`, zero
    the parameters' gradients, backpropagate `batch_loss(indices)`, step
    every optimizer, and yield the step's loss. A `NonFiniteError` raised in
    a step is raised again with the step's 1-based iteration appended to its
    message.
    """
    params = [p for opt in optimizers for p in opt.params]
    sampler = MinibatchSampler(n, run.batch_size, rng)
    for p in params:
        p.requires_grad = True
    try:
        for iteration in range(1, run.n_iter + 1):
            idx = sampler.next_indices()
            for p in params:
                p.zero_grad()
            try:
                loss = batch_loss(idx)
                loss.backward()
                for opt in optimizers:
                    opt.step()
            except NonFiniteError as err:
                raise NonFiniteError(
                    f"{err} at iteration {iteration}") from err
            yield float(loss.data)
    finally:
        for p in params:
            p.requires_grad = False


def child_seeds(seed: int, names: Sequence[str]) -> dict[str, int]:
    """One integer seed per name: `SeedSequence(seed)` spawns one child per
    name, in the order of `names`, and each child gives its first word."""
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: int(c.generate_state(1)[0]) for name, c in zip(names, children)}


def as_columns(values) -> np.ndarray:
    """`values` as a float64 matrix with one row per observation; a 1-D
    array is one column."""
    return np.atleast_2d(np.asarray(values, dtype=np.float64).T).T


class Standardizer(NamedTuple):
    """Per-column training mean and standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, values) -> np.ndarray:
        """`values` (rows of observations, or one 1-D column) standardized,
        in one new array."""
        out = as_columns(values) - self.mean
        out /= self.std
        return out

    def invert(self, values) -> np.ndarray:
        """The inverse of `apply`: standardized `values` back in original
        units. A one-column standardizer scales every column of `values`."""
        return as_columns(values) * self.std + self.mean


def _column_sums(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """The column sums of the row blocks stacked, added row after row: each
    block is summed onto the running total as the next rows of one matrix."""
    total = None
    for block in blocks:
        total = block.sum(axis=0) if total is None else np.concatenate(
            [total[None], block]).sum(axis=0)
    return total


def fit_standardizer(values: np.ndarray) -> Standardizer:
    """Column means and standard deviations of `values`, one row per
    observation (a 1-D array is one column). The deviations are floored at
    1e-8, so a constant column standardizes to zero.

    numpy sums axis 0 of a C-ordered matrix of two or more columns row after
    row, so on such a matrix the sums run over row blocks of ROW_BLOCK and
    give `v.mean(axis=0)` and `v.std(axis=0)` bit for bit, without a
    full-size deviation matrix. Other layouts (one column, which numpy sums
    pairwise) take numpy's own path.
    """
    v = as_columns(values)
    n = len(v)
    if v.shape[1] < 2 or not v.flags.c_contiguous:
        return Standardizer(v.mean(axis=0), np.maximum(v.std(axis=0), 1e-8))
    starts = range(0, n, ROW_BLOCK)
    mean = _column_sums(v[lo:lo + ROW_BLOCK] for lo in starts) / n
    var = _column_sums(np.square(v[lo:lo + ROW_BLOCK] - mean)
                       for lo in starts) / n
    return Standardizer(mean, np.maximum(np.sqrt(var), 1e-8))


# -- the model record ----------------------------------------------------------
#
# Every saved model is one JSON object: {"kind", "config", "nets": {name:
# [w1, b1, w2, b2]}, "arrays": {name: cell}, "loss_trace"}. `kind` names the
# model class and `config` what rebuilds its networks; `arrays` holds its
# other fitted arrays (standardizers). Each array is one cell {"shape": [...],
# "f8": base64 of its little-endian float64 bytes in C order}: one C-level
# pass over the bytes each way, and a float comes back bit for bit. The
# loss trace stays a plain list of numbers.


def encode_array(a: np.ndarray) -> dict:
    """The record cell of one array: its shape and the base64 text of its
    values as little-endian float64 in C order."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "f8": base64.b64encode(a).decode("ascii")}


def decode_array(cell, what: str) -> np.ndarray:
    """The writable float64 array of a cell written by `encode_array`. A
    malformed cell raises `ValueError` starting with `what`, the cell's
    name."""
    if not isinstance(cell, dict) or set(cell) != {"shape", "f8"}:
        raise ValueError(f"{what}: not a {{'shape', 'f8'}} array cell")
    shape = cell["shape"]
    if not isinstance(shape, list) or any(type(d) is not int or d < 0
                                          for d in shape):
        raise ValueError(f"{what}: shape {shape!r} is not a list of "
                         "non-negative ints")
    try:
        raw = base64.b64decode(cell["f8"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError(f"{what}: invalid base64 text") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{what}: {len(raw)} bytes, expected 8 per value "
                         f"of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def checkpoint(kind: str, config: dict, nets: dict[str, Mlp],
               arrays: dict[str, np.ndarray], loss_trace: Sequence[float]) -> dict:
    """The JSON-ready record of one model."""
    return {"kind": kind, "config": config,
            "nets": {name: [encode_array(p.data) for p in net.parameters()]
                     for name, net in nets.items()},
            "arrays": {name: encode_array(a) for name, a in arrays.items()},
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
        what = f"{kind} checkpoint: {what}"
        if not isinstance(saved, list):
            raise ValueError(f"{what} is not a list of array cells")
        new = [decode_array(cell, what) for cell in saved]
        got, want = [a.shape for a in new], [c.shape for c in current]
        if got != want:
            raise ValueError(f"{what} has shapes {got}, expected {want}")
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
            p.data[...] = a
    for name, dst in arrays.items():
        dst[...] = loaded(f"array {name!r}", [payload["arrays"][name]], [dst])[0]
    return list(payload["loss_trace"])
