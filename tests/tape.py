"""Dense float64 tensors with reverse-mode automatic differentiation: the oracle.

The learners compute every gradient in closed form, repeating this tape's
operations; ``tape_oracle`` builds their losses on it, and the tests require
the very bytes it gives. The graph is a lightweight tape: every non-leaf
Tensor carries a closure that scatters its output gradient to its parents.
``backward`` walks the tape once in reverse topological order and then frees
it; a second backward through the same graph raises ``GraphConsumedError``
until a fresh forward pass rebuilds it. All values are float64.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "GraphConsumedError", "minimum"]


class GraphConsumedError(RuntimeError):
    """Backward was called on a graph that has already been consumed."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed node in the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._consumed = False

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate_fresh(-g)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate_fresh(_unbroadcast(-g, other.data.shape))

        return Tensor._from_op(data, (self, other), backward)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate_fresh(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __pow__(self, power: float) -> "Tensor":
        data = self.data ** power

        def backward(g: np.ndarray) -> None:
            self._accumulate_fresh(g * power * self.data ** (power - 1))

        return Tensor._from_op(data, (self,), backward)

    # -- elementwise functions ---------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate_fresh(g * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is zero outside (low, high)."""
        mask = (self.data > low) & (self.data < high)

        def backward(g: np.ndarray) -> None:
            self._accumulate_fresh(g * mask)

        return Tensor._from_op(np.clip(self.data, low, high), (self,), backward)

    # -- reductions / shape ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return self._reduction(self.data.sum(axis=axis, keepdims=keepdims), axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.mean(axis=axis, keepdims=keepdims)
        return self._reduction(data, axis, keepdims, self.data.size // np.size(data))

    def _reduction(self, data, axis, keepdims: bool, count: int = 1) -> "Tensor":
        """A sum (count 1) or a mean over ``count`` values; the gradient spreads evenly."""

        def backward(g: np.ndarray) -> None:
            g_arr = np.asarray(g) / count
            if axis is not None and not keepdims:
                g_arr = np.expand_dims(g_arr, axis)
            self._accumulate_fresh(np.broadcast_to(g_arr, self.data.shape).copy())

        return Tensor._from_op(data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        old_shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(old_shape))

        return Tensor._from_op(self.data.reshape(*shape), (self,), backward)

    # -- the backward sweep ------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        """Accumulate a gradient we do NOT own (copied on first write)."""
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def _accumulate_fresh(self, g: np.ndarray) -> None:
        """Accumulate a freshly allocated gradient (adopted without copy)."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self, output_grad=None) -> None:
        """Reverse-mode sweep from this tensor.

        ``output_grad`` defaults to ones (scalar loss convention). The graph is
        freed afterwards; call ``forward`` again before another backward.
        """
        if self._consumed:
            raise GraphConsumedError(
                "graph already consumed by a previous backward; run forward again")
        if not self.requires_grad:
            raise RuntimeError("backward on a tensor that does not require grad")
        if output_grad is None:
            output_grad = np.ones_like(self.data)
        else:
            output_grad = np.asarray(output_grad, dtype=np.float64)
            if output_grad.shape != self.data.shape:
                raise ValueError(
                    f"output_grad shape {output_grad.shape} != output shape {self.data.shape}")

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
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(output_grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                # Free the tape; flag interior nodes so reuse is an error.
                node._parents = ()
                node._backward = None
                node._consumed = True
                if node is not self:
                    node.grad = None


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum; the smaller branch receives the gradient."""
    mask = a.data <= b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_fresh(_unbroadcast(g * mask, a.data.shape))
        if b.requires_grad:
            b._accumulate_fresh(_unbroadcast(g * ~mask, b.data.shape))

    return Tensor._from_op(np.where(mask, a.data, b.data), (a, b), backward)

