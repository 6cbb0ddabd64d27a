"""Reverse-mode automatic differentiation over NumPy arrays.

This is the DNN-framework substrate the rest of Auto-HPCnet builds on
(autoencoder, surrogate models, NAS candidates).  It is a tape-less,
closure-based autograd: every operation returns a :class:`Tensor` holding a
``_backward`` closure and its parents; :meth:`Tensor.backward` runs a reverse
topological sweep.

Design notes (per the HPC-Python guides): all math is vectorized NumPy, the
hot paths avoid copies (gradients accumulate with ``+=`` into preallocated
buffers), and broadcasting is handled once in :func:`_unbroadcast` rather
than per-op.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "batch_invariant",
    "is_batch_invariant",
    "tensor",
    "zeros",
    "ones",
]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_state = threading.local()


def is_grad_enabled() -> bool:
    """True unless we are inside a :func:`no_grad` block."""
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (used by inference and checkpointing)."""
    previous = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


def is_batch_invariant() -> bool:
    """True inside a :func:`batch_invariant` block."""
    return getattr(_state, "batch_invariant", False)


@contextlib.contextmanager
def batch_invariant():
    """Make 2-D matmuls independent of batch size, bit-for-bit.

    BLAS ``gemm`` picks different K-blocking (and hence floating-point
    summation order) for different output shapes, so the rows of
    ``X[(B, F)] @ W`` differ in the last ulp from ``X[i] @ W``.  Inside
    this context 2-D×2-D products route through :func:`invariant_matmul`,
    which computes each row as a product of its own, making every row's
    result independent of how many other rows share the batch.  The
    serving path uses this so dynamically batched inference is
    bit-identical to per-request inference; training stays on BLAS
    ``gemm`` for speed.
    """
    previous = is_batch_invariant()
    _state.batch_invariant = True
    try:
        yield
    finally:
        _state.batch_invariant = previous


def invariant_matmul(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``a @ b`` for 2-D operands, each row computed as a product of its own.

    ``a`` is stacked as ``(B, 1, F)``, so matmul runs one ``(1, F) @ (F, K)``
    product per row: a row's summation order depends on that row and ``b``
    only, never on ``B`` or on the row's offset in its buffer
    (``tests/nn/test_invariant_matmul.py`` checks this bit for bit).  The
    BLAS loop does depend on the operands' strides (a strided row, a
    padded or Fortran-ordered ``b`` change the last ulp), so both are made
    C-contiguous first, which costs nothing when they already are, as the
    plan's operands always are.  With ``out`` (shape ``(B, K)``) the
    product is written there, as the compiled plan does; without it a
    fresh ``(B, K)`` array is returned.
    """
    stacked = np.ascontiguousarray(a)[:, None]
    b = np.ascontiguousarray(b)
    if out is None:
        return np.matmul(stacked, b)[:, 0]
    np.matmul(stacked, b, out[:, None])
    return out


def _matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward product honoring the batch-invariant mode for 2-D operands."""
    if a.ndim == 2 and b.ndim == 2 and is_batch_invariant():
        return invariant_matmul(a, b)
    return a @ b


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum over leading dims added by broadcasting
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over dims that were 1 in the original shape
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an optional gradient and autograd history."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        *,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[], None]] = None
        self._parents: tuple["Tensor", ...] = ()
        self.name = name

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _wrap(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[["Tensor"], None],
    ) -> "Tensor":
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=track)
        if track:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = lambda: backward(out)
        return out

    # -- basic properties ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (a view; do not mutate during training)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- arithmetic ops --------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        data = self.data + other.data

        def backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return self._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: "Tensor") -> None:
            self._accumulate(-out.grad)

        return self._from_op(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        data = self.data * other.data

        def backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return self._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        data = self.data / other.data

        def backward(out: "Tensor") -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / other.data**2, other.shape)
                )

        return self._from_op(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data**exponent

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1.0))

        return self._from_op(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        data = _matmul_data(self.data, other.data)
        self_2d = self.data.ndim == 2
        other_2d = other.data.ndim == 2

        def backward(out: "Tensor") -> None:
            g = out.grad
            if self.requires_grad:
                if self_2d and other_2d:
                    self._accumulate(g @ other.data.T)
                elif self_2d:          # (m,k) @ (k,) -> (m,)
                    self._accumulate(np.outer(g, other.data))
                elif other_2d:         # (k,) @ (k,n) -> (n,)
                    self._accumulate(other.data @ g)
                else:                  # (k,) @ (k,) -> scalar
                    self._accumulate(g * other.data)
            if other.requires_grad:
                if self_2d and other_2d:
                    other._accumulate(self.data.T @ g)
                elif self_2d:
                    other._accumulate(self.data.T @ g)
                elif other_2d:
                    other._accumulate(np.outer(self.data, g))
                else:
                    other._accumulate(g * self.data)

        return self._from_op(data, (self, other), backward)

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape
        data = self.data.reshape(*shape)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad.reshape(original))

        return self._from_op(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad.T)

        return self._from_op(self.data.T, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(out: "Tensor") -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, key, out.grad)
            self._accumulate(grad)

        return self._from_op(data, (self,), backward)

    def transpose_axes(self, *axes: int) -> "Tensor":
        """General axis permutation (``.T`` only reverses all axes)."""
        if len(axes) != self.ndim:
            raise ValueError(f"expected {self.ndim} axes, got {len(axes)}")
        inverse = np.argsort(axes)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad.transpose(inverse))

        return self._from_op(self.data.transpose(axes), (self,), backward)

    # -- reductions --------------------------------------------------------------

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum along ``axis``; gradient flows to the argmax positions."""
        data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = data if keepdims else np.expand_dims(data, axis)
        mask = self.data == expanded
        # split ties evenly so the gradient stays well-defined
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(out: "Tensor") -> None:
            grad = out.grad if keepdims else np.expand_dims(out.grad, axis)
            self._accumulate(mask * grad / counts)

        return self._from_op(data, (self,), backward)

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: "Tensor") -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape))

        return self._from_op(data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities ------------------------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * mask)

        return self._from_op(self.data * mask, (self,), backward)

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        scale = np.where(self.data > 0, 1.0, slope)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * scale)

        return self._from_op(self.data * scale, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * (1.0 - data**2))

        return self._from_op(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * data * (1.0 - data))

        return self._from_op(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * data)

        return self._from_op(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad / self.data)

        return self._from_op(np.log(self.data), (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * sign)

        return self._from_op(np.abs(self.data), (self,), backward)

    def clip_min(self, low: float) -> "Tensor":
        mask = self.data >= low

        def backward(out: "Tensor") -> None:
            self._accumulate(out.grad * mask)

        return self._from_op(np.maximum(self.data, low), (self,), backward)

    # -- backward pass ----------------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float64))

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out: Tensor) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(int(lo), int(hi))
                t._accumulate(out.grad[tuple(slicer)])

    return Tensor._from_op(data, tuple(tensors), backward)
