"""Reverse-mode autodiff core: float64 arrays recorded on an explicit tape.

Ops (see ops.py) append nodes to the innermost active Tape in execution
order; Tape.backward walks them in exact reverse, which is a reverse
topological order by construction, and sets `grad` on each Parameter it
reaches. Everything is float64, and NaN/Inf is an error, not a warning.
Finite checks run on each data leaf and op output when its Tensor is built,
on each Parameter gradient once per backward pass (not on the intermediate
adjoints; see Tape.backward), and on each optimizer update before any
parameter moves.

`needs_grad` says whether a tensor's adjoint can reach a Parameter: False
for data, True for every Parameter, and for a recorded op output True if and
only if some parent needs one. The weighted ops skip input adjoints nobody
reads.
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
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


class Tensor:
    """A float64 array; a node or leaf of the recorded graph."""

    __slots__ = ("data", "needs_grad")

    def __init__(self, data):
        self.data = check_finite(np.asarray(data, dtype=np.float64), "tensor data")
        self.needs_grad = False

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)})"


class Parameter(Tensor):
    """Trainable tensor. `grad` holds d(loss)/d(parameter) from the last
    backward pass until an optimizer step consumes it (None otherwise). An
    optional 0/1 mask (same shape) sets the sparse topology by one rule: a
    weight whose mask entry is 0 holds ±0. The initializer, prune/grow and
    the optimizers keep it, and checkpoint loading checks it; no op reads the
    mask, so gradients stay dense, pruned positions included."""

    __slots__ = ("mask", "grad")

    def __init__(self, data, mask: np.ndarray | None = None):
        super().__init__(data)
        if mask is not None and mask.shape != self.data.shape:
            raise ValueError("mask shape must match parameter shape")
        self.mask = mask
        self.grad = None
        self.needs_grad = True


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
        out.needs_grad = any(p.needs_grad for p in parents)
        self._nodes.append((out, parents, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and propagate adjoints through the
        recorded ops in reverse. Each Parameter reached gets `grad` set to its
        summed adjoint; no other tensor keeps one.

        Finite checks: each Parameter's summed adjoint is checked once, after
        the walk, and `grad` is set only if every one is finite (otherwise
        NonFiniteError, and no gradient of this pass is set). Intermediate
        adjoints are not checked: every backward closure carries NaN and ±inf
        through (products, sums, `einsum`, scatters), so a non-finite adjoint
        either reaches a Parameter's gradient or reaches nothing that is
        read. Forward outputs, by contrast, stay checked per op (`Tensor`):
        `relu` maps -inf to 0, `sigmoid` saturates ±inf and `maxpool2` drops a
        -inf that is not its window's maximum, so a check deferred past them
        would let an overflow pass silently."""
        if self._consumed:
            raise GraphError("tape already consumed by a previous backward")
        if not self._nodes:
            raise GraphError("backward called before any forward op was recorded")
        if loss.data.size != 1:
            raise GraphError("loss must be a scalar node")
        self._consumed = True

        adjoints = {id(loss): np.ones_like(loss.data)}
        reached = {}
        for out, parents, fn in reversed(self._nodes):
            g = adjoints.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in zip(parents, fn(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in adjoints:
                    pg = adjoints[key] + pg
                adjoints[key] = pg
                if isinstance(parent, Parameter):
                    reached[key] = parent
        for key in reached:
            check_finite(adjoints[key], "gradient")
        for key, parameter in reached.items():
            parameter.grad = adjoints[key]
