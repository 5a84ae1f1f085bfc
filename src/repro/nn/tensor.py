"""Reverse-mode automatic differentiation over numpy arrays.

The paper implements its policy networks with PyTorch and Deep Graph Library.
Neither is available in this offline environment, so this module provides the
minimal-yet-complete autograd substrate the rest of the library is built on:
a :class:`Tensor` wrapping a ``numpy.ndarray`` that records the operations
applied to it and can back-propagate gradients through them.

Only the operations needed by the GCN/GAT/FCNN policy networks and the PPO
losses are implemented, but each one supports full broadcasting and is
verified against finite differences in ``tests/nn/test_tensor_autograd.py``.

Example
-------
>>> import numpy as np
>>> from repro.nn.tensor import Tensor
>>> w = Tensor(np.ones((2, 2)), requires_grad=True)
>>> x = Tensor(np.array([[1.0, 2.0]]))
>>> y = (x @ w).sum()
>>> y.backward()
>>> w.grad
array([[1., 1.],
       [2., 2.]])
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]


class _GradState(threading.local):
    """Per-thread autograd switch (single attribute for cheap hot-path reads).

    Thread-local so ``inference_mode()`` in e.g. a serving thread cannot
    silently disable gradient recording for a concurrently training thread;
    the class attribute is the per-thread default until first written.
    """

    enabled: bool = True


_GRAD = _GradState()


def is_grad_enabled() -> bool:
    """Whether tensor operations currently record the autograd graph."""
    return _GRAD.enabled


def set_grad_enabled(enabled: bool) -> bool:
    """Set the global autograd switch; returns the previous value."""
    previous = _GRAD.enabled
    _GRAD.enabled = bool(enabled)
    return previous


@contextmanager
def inference_mode() -> Iterator[None]:
    """Disable autograd graph recording inside the ``with`` block.

    Under inference mode every tensor operation returns a plain
    :class:`Tensor` — no parent tracking, no backward closure, no
    ``requires_grad`` propagation — so a forward pass is ordinary numpy math
    plus a thin wrapper.  This is the deployment / rollout action-selection
    fast path: results are bitwise identical to the grad-recording path
    (the forward arithmetic is unchanged), only the graph bookkeeping is
    skipped.  Nesting is safe; the previous state is restored on exit.
    """
    previous = _GRAD.enabled
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the corresponding gradient must be summed over
    the broadcast axes so that it matches the operand's original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were of size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph.

    Parameters
    ----------
    data:
        Array data.  Always stored as ``float64`` for numerical robustness of
        the small networks used in this project.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Iterable["Tensor"] = (),
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple[Tensor, ...] = tuple(_parents)
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection helpers
    # ------------------------------------------------------------------
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
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a graph-free tensor holding a *copy* of the data.

        The copy means a detached tensor can be mutated (or handed to
        checkpoint / inference buffers) without aliasing back into the
        autograd graph's forward values.  Use :meth:`numpy` when a zero-copy
        read-only view is wanted instead.
        """
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ensure(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make_result(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if not _GRAD.enabled:
            return Tensor(data)
        requires = any(p.requires_grad for p in parents)
        result = Tensor(data, requires_grad=requires, _parents=parents)
        if requires:
            result._backward = backward
        return result

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make_result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_result(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data - other.data
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return self._make_result(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._make_result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data**2))

        return self._make_result(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data**exponent
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data @ other.data
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            # Transpose only the matrix axes so batched (stacked) matmuls
            # back-propagate correctly; leading broadcast axes are summed
            # away by _accumulate/_unbroadcast.  1-D operands keep the plain
            # 2-D formulas (``.T`` is a no-op for them, matching numpy's
            # vector matmul semantics as used in this codebase).
            if self.requires_grad:
                if other.data.ndim >= 2:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
                else:
                    self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                if self.data.ndim >= 2:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)
                else:
                    other._accumulate(self.data.T @ grad)

        return self._make_result(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(
        self, axis: Optional[Union[int, tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad, dtype=np.float64)
            if axis is None:
                expanded = np.broadcast_to(grad, self.data.shape)
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                expanded = np.broadcast_to(grad, self.data.shape)
            self._accumulate(expanded)

        return self._make_result(out_data, (self,), backward)

    def mean(
        self, axis: Optional[Union[int, tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, int):
            count = self.data.shape[axis]
        else:
            count = int(np.prod([self.data.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not _GRAD.enabled:
            return Tensor(out_data)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make_result(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return self._make_result(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Exchange two axes (the batch-safe generalization of ``.T``)."""
        out_data = np.swapaxes(self.data, axis1, axis2)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, axis1, axis2))

        return self._make_result(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make_result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make_result(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make_result(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        out_data = self.data * scale
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * scale)

        return self._make_result(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_result(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        if not _GRAD.enabled:
            return Tensor(out_data)
        pass_through = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * pass_through)

        return self._make_result(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return self._make_result(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # ------------------------------------------------------------------
    # Softmax-style reductions (numerically stable, done as primitives)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            # d softmax_i / d x_j = s_i (delta_ij - s_j)
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return self._make_result(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        if not _GRAD.enabled:
            return Tensor(out_data)
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return self._make_result(out_data, (self,), backward)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not _GRAD.enabled:
            return Tensor(out_data)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad, dtype=np.float64)
            if axis is None:
                mask = (self.data == out_data).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * grad)
            else:
                expanded_out = out_data if keepdims else np.expand_dims(out_data, axis=axis)
                expanded_grad = grad if keepdims else np.expand_dims(grad, axis=axis)
                mask = (self.data == expanded_out).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                self._accumulate(mask * expanded_grad)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1.0 which requires this tensor to
            be a scalar (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        ordering: list[Tensor] = []
        _topological_order(self, set(), ordering)

        self._accumulate(grad)
        for node in reversed(ordering):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _topological_order(node: Tensor, visited: set[int], ordering: list[Tensor]) -> None:
    """Append ``node``'s graph to ``ordering``, parents before children.

    A module-level function rather than a closure: a nested recursive
    closure references itself, and that cycle would keep the whole graph
    (data and gradients) alive until the cyclic garbage collector runs.
    """
    if id(node) in visited:
        return
    visited.add(id(node))
    for parent in node._parents:
        _topological_order(parent, visited, ordering)
    ordering.append(node)


# ----------------------------------------------------------------------
# Free functions operating on tensors
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _GRAD.enabled:
        return Tensor(out_data)
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, boundaries, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(piece)

    requires = any(t.requires_grad for t in tensors)
    result = Tensor(out_data, requires_grad=requires, _parents=tuple(tensors))
    if requires:
        result._backward = backward
    return result


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not _GRAD.enabled:
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    requires = any(t.requires_grad for t in tensors)
    result = Tensor(out_data, requires_grad=requires, _parents=tuple(tensors))
    if requires:
        result._backward = backward
    return result


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)
    if not _GRAD.enabled:
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * condition)
        b._accumulate(grad * ~condition)

    requires = a.requires_grad or b.requires_grad
    result = Tensor(out_data, requires_grad=requires, _parents=(a, b))
    if requires:
        result._backward = backward
    return result


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum with gradient routed to the smaller operand."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    return where(a.data <= b.data, a, b)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum with gradient routed to the larger operand."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    return where(a.data >= b.data, a, b)
