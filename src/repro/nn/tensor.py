"""A small reverse-mode autodiff tensor on top of NumPy.

This is the computational substrate for every model in the repository
(LeNet, BranchyNet, the converting autoencoder, the compression
baselines).  Design points:

* **Vectorized hot paths.**  All heavy math is a single NumPy call per op
  (GEMM for dense/conv-via-im2col, ufuncs for activations); Python only
  orchestrates.  Gradients reuse buffers where safe (``+=`` accumulation).
* **Broadcasting-aware backward.**  Every binary op reduces its upstream
  gradient back to the operand's shape (`_unbroadcast`), so biases and
  scalar penalties "just work".
* **Explicit graph, no global tape.**  Each Tensor produced by an op holds
  its parents and a closure computing parent gradients; ``backward()``
  does a topological sweep.  ``no_grad()`` (in :mod:`repro.nn.autograd`)
  suppresses graph construction during inference, which matters for the
  latency benchmarks.

Only float32 is used by the library (matching the paper's Keras stack),
but the engine is dtype-agnostic.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.nn import autograd

Array = np.ndarray

__all__ = ["Tensor", "as_tensor"]


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: Array | float | int | Sequence,
        requires_grad: bool = False,
        dtype: np.dtype | type | None = None,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            raise TypeError("wrapping a Tensor in a Tensor is almost certainly a bug")
        was_ndarray = isinstance(data, (np.ndarray, np.generic))
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype == np.float64 and dtype is None and not was_ndarray:
            # Library-wide convention: Python floats/lists become float32
            # (the paper's stack); existing ndarrays keep their dtype so
            # float64 gradient checks stay float64 end-to-end.
            arr = arr.astype(np.float32)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad) and autograd.grad_enabled()
        self.grad: Array | None = None
        self._backward: Callable[[Array], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag}{label})"

    def numpy(self) -> Array:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self) -> float:
        raise ValueError(f"item() requires a single-element tensor, shape={self.shape}")

    def detach(self) -> "Tensor":
        """A view of the same data cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: Array,
        parents: Iterable["Tensor"],
        backward: Callable[[Array], None],
    ) -> "Tensor":
        """Create an op result node, attaching the graph only when needed."""
        parents = tuple(parents)
        needs = autograd.grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data)
        if needs:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: Array, fresh: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer, in place.

        ``fresh=True`` asserts the caller computed ``grad`` exclusively
        for this call (e.g. ``g * other.data``), letting us take
        ownership instead of copying.  The default copies on first
        accumulation: adopting a *shared* array (such as the upstream
        ``g`` an add-node forwards to both parents) aliases sibling
        ``.grad`` buffers, and later in-place ``+=`` accumulations then
        corrupt them.
        """
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            # _unbroadcast sums, producing an array only we hold.
            grad = _unbroadcast(grad, self.data.shape)
            fresh = True
        if self.grad is None:
            self.grad = grad if fresh else grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Array | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without an explicit gradient requires a scalar output, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Iterative topological order (post-order DFS) — recursion would
        # overflow on deep graphs (e.g. long training loops kept alive).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.dtype)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(-g, fresh=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.dtype)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(-g, fresh=True)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.dtype) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.dtype)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data, fresh=True)
            if other.requires_grad:
                other._accumulate(g * self.data, fresh=True)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.dtype)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data, fresh=True)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data * other.data), fresh=True)

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1), fresh=True)

        return Tensor._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.dtype)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g @ other.data.swapaxes(-1, -2), fresh=True)
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ g, fresh=True)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    def __getitem__(self, key) -> "Tensor":
        def backward(g: Array) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self._accumulate(full, fresh=True)

        return Tensor._make(self.data[key], (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: Array) -> None:
            if not self.requires_grad:
                return
            grad = g
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: Array) -> None:
            if not self.requires_grad:
                return
            expanded = out_data if keepdims or axis is None else np.expand_dims(out_data, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly between ties (matches numerical grad).
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            grad = g if keepdims or axis is None else np.expand_dims(g, axis)
            self._accumulate(mask * grad, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data, fresh=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data), fresh=True)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * mask, fresh=True)

        return Tensor._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic: never exponentiates a large positive.
        out_data = np.empty_like(self.data)
        pos = self.data >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-self.data[pos]))
        ez = np.exp(self.data[~pos])
        out_data[~pos] = ez / (1.0 + ez)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data * out_data), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data > low) & (self.data < high)

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g * mask, fresh=True)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def flatten_batch(self) -> "Tensor":
        """Collapse all but the leading (batch) axis."""
        return self.reshape(self.data.shape[0], -1)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = tuple(np.argsort(axes))

        def backward(g: Array) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)


def as_tensor(value, dtype: np.dtype | type | None = None) -> Tensor:
    """Coerce arrays/scalars to :class:`Tensor` (passthrough for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))
