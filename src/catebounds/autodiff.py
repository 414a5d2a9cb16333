"""Reverse-mode automatic differentiation over numpy float64 arrays.

A small tape: every operation returns a new :class:`Tensor` holding the result
and a closure that routes the incoming adjoint to the parents. Graphs are built
eagerly and freed by ordinary garbage collection once the loss goes out of
scope. Everything is float64 and single-threaded, so a fixed seed gives
bitwise-identical runs.

An op records its result iff a parent requires a gradient; network
parameters require one only while `nets.fit` trains them.

Non-finite values are never allowed to propagate silently: every op output is
checked and raises :class:`NonFiniteError` on the first NaN/inf. A fused op
also checks each intermediate that a later step of it could turn finite:
`nets.forward_mlp`, one op for a whole MLP, checks its pre-activation before
the ELU, which maps -inf to -1.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .special import expit

__all__ = [
    "NonFiniteError",
    "Tensor",
    "as_tensor",
    "slice_last",
    "take_rows",
]


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces NaN or infinity."""


# Overflow/invalid intermediates are converted into NonFiniteError by the
# output check; keep numpy quiet about them instead of double-reporting.
def _quiet():
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the autodiff graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "grad_out", "requires_grad", "_parents",
                 "_backward")

    def __init__(self, data, requires_grad: bool = False, *, _op: str = "tensor"):
        self.data = _check_finite(np.asarray(data, dtype=np.float64), _op)
        self.grad: np.ndarray | None = None
        # where the first adjoint is written, if not to a new array: an
        # optimizer's gradient buffer gives each parameter its slice
        self.grad_out: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents: tuple["Tensor", ...], backward, op: str) -> "Tensor":
        out = Tensor(data, _op=op)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None and self.grad_out is not None:
            np.copyto(self.grad_out, g)
            self.grad = self.grad_out
        elif self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    # -- backward pass --------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the recorded graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._result(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other):
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape))

        return Tensor._result(out_data, (self, other), backward, "sub")

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._result(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        with _quiet():
            out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return Tensor._result(out_data, (self, other), backward, "div")

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        with _quiet():
            out_data = self.data**exponent

        def backward(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._result(out_data, (self,), backward, "pow")

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul expects 2-D operands")
        out_data = a @ b

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ b.T)
            if other.requires_grad:
                other._accumulate(a.T @ g)

        return Tensor._result(out_data, (self, other), backward, "matmul")

    # -- elementwise functions ------------------------------------------------

    def exp(self):
        with _quiet():
            out_data = np.exp(self.data)

        def backward(g):
            self._accumulate(g * out_data)

        return Tensor._result(out_data, (self,), backward, "exp")

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(g):
            self._accumulate(g * (self.data > 0.0))

        return Tensor._result(out_data, (self,), backward, "relu")

    def softplus(self):
        out_data = np.logaddexp(0.0, self.data)

        def backward(g):
            self._accumulate(g * expit(self.data))

        return Tensor._result(out_data, (self,), backward, "softplus")

    # -- reductions and shape ops --------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._result(out_data, (self,), backward, "sum")

    def mean(self, axis: int | None = None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape: int):
        out_data = self.data.reshape(*shape)
        orig = self.data.shape

        def backward(g):
            self._accumulate(g.reshape(orig))

        return Tensor._result(out_data, (self,), backward, "reshape")


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def slice_last(t: Tensor, lo: int, hi: int) -> Tensor:
    """`t[..., lo:hi]`; backward zero-pads the complement."""
    out_data = t.data[..., lo:hi]

    def backward(g):
        full = np.zeros_like(t.data)
        full[..., lo:hi] = g
        t._accumulate(full)

    return Tensor._result(out_data, (t,), backward, "slice_last")


def take_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows `idx` from a 2-D tensor; backward scatter-adds."""
    idx = np.asarray(idx)
    out_data = t.data[idx]

    def backward(g):
        full = np.zeros_like(t.data)
        np.add.at(full, idx, g)
        t._accumulate(full)

    return Tensor._result(out_data, (t,), backward, "take_rows")
