"""Reverse-mode autodiff core: float64 arrays recorded on an explicit tape.

Ops (see ops.py) append nodes to the innermost active Tape in execution
order; Tape.backward walks them in exact reverse, which is a reverse
topological order by construction, and sets `grad` on each Parameter it
reaches, with an array that Parameter alone holds (see Tape.backward).
Everything is float64, and NaN/Inf is an error, not a warning.
Finite checks run on each data leaf and op output when its Tensor is built,
on each Parameter gradient once per backward pass (not on the intermediate
adjoints; see Tape.backward), and on each optimizer update before any
parameter moves.

`needs_grad` says whether a tensor's adjoint can reach a Parameter: False
for data, True for every Parameter, and for a recorded op output True if and
only if some parent needs one. The weighted ops skip input adjoints nobody
reads.

The tape refers to tensors by `key`, not by reference, so it keeps no
activation alive: what outlives the forward pass is only what the backward
closures captured.
"""

from __future__ import annotations

import itertools

import numpy as np


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


class GraphError(RuntimeError):
    """Tape misuse: backward twice, backward with nothing recorded, or a
    non-scalar loss node."""


_stack: list = []
_keys = itertools.count()


def active_tape():
    """The innermost recording tape, or None."""
    return _stack[-1] if _stack else None


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


class Tensor:
    """A float64 array; a node or leaf of the recorded graph.

    `key` names the tensor on a tape. It is drawn from a process-wide
    counter, so no two tensors share one, a copy included; `id()` could not
    serve, because a freed tensor's id can be reused by a later tensor on
    the same tape."""

    __slots__ = ("data", "needs_grad", "key")

    def __init__(self, data):
        self.data = check_finite(np.asarray(data, dtype=np.float64), "tensor data")
        self.needs_grad = False
        self.key = next(_keys)

    def __setstate__(self, state):
        # a (deep) copy or an unpickled tensor is a new node: fresh key
        for name, value in state[1].items():
            setattr(self, name, value)
        self.key = next(_keys)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)})"


class Parameter(Tensor):
    """Trainable tensor. `grad` holds d(loss)/d(parameter) from the last
    backward pass until an optimizer step consumes it (None otherwise). An
    optional mask (same shape) sets the sparse topology by one rule: a
    weight whose mask entry is 0 holds ±0. The initializer, prune/grow and
    the optimizers keep it, and checkpoint loading checks it; no op reads the
    mask, so gradients stay dense, pruned positions included.

    The mask is stored as a bool array, one byte per entry: a float64 value
    times a bool has the bits of the same value times 1.0 or 0.0. A bool
    mask is kept as given; any other mask must hold only 0 and 1 and is
    stored as a bool copy."""

    __slots__ = ("mask", "grad")

    def __init__(self, data, mask: np.ndarray | None = None):
        super().__init__(data)
        if mask is not None:
            mask = np.asarray(mask)
            if mask.shape != self.data.shape:
                raise ValueError("mask shape must match parameter shape")
            if mask.dtype != bool:
                if not np.all((mask == 0) | (mask == 1)):
                    raise ValueError(f"mask of the parameter of shape "
                                     f"{self.data.shape} must hold only 0 "
                                     f"and 1")
                mask = mask.astype(bool)
        self.mask = mask
        self.grad = None
        self.needs_grad = True


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of one forward pass, consumable by one backward pass.

    A node is `(out key, parent keys, closure)`, except that a `Parameter`
    parent is kept as the object itself, so that backward can set its
    `grad`. The tape holds no other tensor: an activation lives only as long
    as the forward code or a closure holds it, and each op's closure captures
    only what its backward reads."""

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
        self._nodes.append((out.key, tuple(
            p if isinstance(p, Parameter) else p.key for p in parents),
            backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and propagate adjoints through the
        recorded ops in reverse. Each Parameter reached gets `grad` set to its
        summed adjoint; no other tensor keeps one.

        Ownership: each `grad` set here is an array that owns its memory
        and that no other Parameter's `grad` is or views, so an optimizer
        may overwrite it. An adjoint is copied only when it is a view
        (`reshape`'s, `concat`'s split, a conv weight gradient's reshape)
        or was already handed to another Parameter in this pass (`add`
        hands one `g` to both parents).

        Each node is popped off the tape as the walk reaches it, so the tape
        releases the buffers its backward closure holds during the walk, and
        a consumed tape holds nothing. A second call still raises
        GraphError.

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

        adjoints = {loss.key: np.ones_like(loss.data)}
        reached = {}
        nodes = self._nodes
        while nodes:
            out, parents, fn = nodes.pop()
            g = adjoints.pop(out, None)
            if g is None:
                continue
            for parent, pg in zip(parents, fn(g)):
                if pg is None:
                    continue
                if isinstance(parent, Parameter):
                    key = parent.key
                    reached[key] = parent
                else:
                    key = parent
                if key in adjoints:
                    pg = adjoints[key] + pg
                adjoints[key] = pg
        for key in reached:
            check_finite(adjoints[key], "gradient")
        handed = set()
        for key, parameter in reached.items():
            g = adjoints[key]
            if g.base is not None or id(g) in handed:
                g = g.copy()
            handed.add(id(g))
            parameter.grad = g
