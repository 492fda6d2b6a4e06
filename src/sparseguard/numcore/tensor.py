"""Reverse-mode autodiff core: float64 arrays recorded on an explicit tape.

Ops (see ops.py) append nodes to the innermost active Tape in execution
order; Tape.backward walks them in exact reverse, which is a reverse
topological order by construction. Everything is float64 and every produced
array is checked finite; NaN/Inf anywhere is an error, not a warning.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


class GraphError(RuntimeError):
    """Tape misuse: backward twice, backward with nothing recorded, or a
    non-scalar loss node."""


_stack: list = []


def active_tape():
    """The innermost recording tape, or None."""
    return _stack[-1] if _stack else None


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


class Tensor:
    """A float64 array plus the gradient slot filled by Tape.backward."""

    __slots__ = ("data", "grad")

    def __init__(self, data, check: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if check:
            check_finite(arr, "tensor data")
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)})"


class Parameter(Tensor):
    """Trainable tensor. The gradient buffer persists across steps and is
    zeroed by the tape at the start of every backward pass. An optional 0/1
    mask (same shape) gates optimizer updates; gradients stay dense."""

    __slots__ = ("mask",)

    def __init__(self, data, mask: np.ndarray | None = None):
        super().__init__(data)
        if mask is not None and mask.shape != self.data.shape:
            raise ValueError("mask shape must match parameter shape")
        self.mask = mask
        self.grad = np.zeros_like(self.data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of one forward pass, consumable by one backward pass."""

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        _stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _stack.pop()
        assert popped is self, "tape contexts must nest"
        return False

    def record(self, out: Tensor, parents: tuple, backward_fn) -> None:
        self._nodes.append((out, parents, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and accumulate adjoints into every node
        reachable backwards from the recorded ops. Parameter gradients are
        reset first so each backward pass accumulates from zero."""
        if self._consumed:
            raise GraphError("tape already consumed by a previous backward")
        if not self._nodes:
            raise GraphError("backward called before any forward op was recorded")
        if loss.data.size != 1:
            raise GraphError("loss must be a scalar node")
        self._consumed = True

        seen = set()
        for _, parents, _ in self._nodes:
            for p in parents:
                if id(p) in seen:
                    continue
                seen.add(id(p))
                if isinstance(p, Parameter):
                    p.grad[...] = 0.0
                else:
                    p.grad = None

        loss.grad = np.ones_like(loss.data)
        for out, parents, fn in reversed(self._nodes):
            g = out.grad
            if g is None:
                continue
            for parent, pg in zip(parents, fn(g)):
                if pg is None:
                    continue
                check_finite(pg, "gradient")
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg
