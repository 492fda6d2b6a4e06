"""Reverse-mode autodiff core: float64 arrays recorded on an explicit tape.

Ops (see ops.py) append nodes to the innermost active Tape in execution
order; Tape.backward walks them in exact reverse, a reverse topological
order by construction. NaN/Inf is an error, not a warning: each data leaf
and op output is checked when its Tensor is built, each flat gradient once
per backward pass, and each optimizer update before any parameter moves.

Storage: a model keeps its parameters in one float64 array, its `store`, in
`params()` order; each `Parameter.data` is a view of its slice (writers
assign into it, never rebind it), and each `grad` a view of one flat
gradient per store and backward pass.

`needs_grad` says whether a tensor's adjoint can reach a Parameter: False
for data, True for a Parameter, and for an op output True if and only if
some parent needs one; the weighted ops skip input adjoints nobody reads.
The tape refers to tensors by `key`, not by reference, so it keeps no
activation alive beyond what the backward closures captured.
"""

from __future__ import annotations

import copy
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
    """Trainable tensor: `data` is `store[offset:offset + data.size]` in
    `data`'s shape; `grad` holds d(loss)/d(parameter) from the last backward
    pass until an optimizer step consumes it (else None). An optional mask
    of the same shape sets the sparse topology: a weight whose mask entry is
    0 holds ±0 (no op reads the mask, so gradients stay dense). A bool mask
    is kept as given; any other must hold only 0 and 1 and is stored as a
    bool copy (a float64 times a bool has the bits of value times 1 or 0)."""

    __slots__ = ("mask", "grad", "store", "offset")

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
        share_storage([self])

    def slot(self, flat: np.ndarray) -> np.ndarray:
        """This Parameter's view of an array laid out like its store."""
        return flat[self.offset:][:self.data.size].reshape(self.data.shape)

    def __deepcopy__(self, memo):
        # the store's first copy goes into `memo`, for its other Parameters
        new = copy.copy(self)
        for name in ("store", "mask", "grad"):
            setattr(new, name, copy.deepcopy(getattr(self, name), memo))
        new.data = self.slot(new.store)
        return new


def share_storage(params) -> np.ndarray:
    """Move `params`, values kept, into one new array, and return it."""
    store = np.concatenate([np.empty(0)] + [p.data.ravel() for p in params])
    offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
    for p, offset in zip(params, offsets):
        p.store, p.offset = store, offset
        p.data = p.slot(store)
    return store


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
        """Seed d(loss)/d(loss) = 1 and propagate adjoints in reverse,
        popping each node as the walk reaches it (a consumed tape holds
        nothing; a second call raises GraphError). Each store reached gets
        one fresh flat gradient: a Parameter's first adjoint is copied into
        its slice, later ones are added in arrival order, and `grad` is that
        slice; no unreached slice is read. After the walk each flat gradient
        (each reached slice, if the store was reached in part) is checked
        finite once, and no `grad` is set unless all pass. Intermediate
        adjoints are not checked: closures carry NaN and ±inf through to a
        gradient or to nothing read, while `relu`, `sigmoid` and `maxpool2`
        can drop an overflow, so forward outputs stay checked per op."""
        if self._consumed:
            raise GraphError("tape already consumed by a previous backward")
        if not self._nodes:
            raise GraphError("backward called before any forward op was recorded")
        if loss.data.size != 1:
            raise GraphError("loss must be a scalar node")
        self._consumed = True

        adjoints = {loss.key: np.ones_like(loss.data)}
        slots = {}   # Parameter -> its view of its store's flat gradient
        flats = {}   # id(store) -> the store's flat gradient of this pass
        nodes = self._nodes
        while nodes:
            out, parents, fn = nodes.pop()
            g = adjoints.pop(out, None)
            if g is None:
                continue
            for parent, pg in zip(parents, fn(g)):
                if pg is None:
                    continue
                if not isinstance(parent, Parameter):
                    if parent in adjoints:
                        pg = adjoints[parent] + pg
                    adjoints[parent] = pg
                elif parent in slots:
                    np.add(slots[parent], pg, out=slots[parent])
                else:
                    key = id(parent.store)
                    if key not in flats:
                        flats[key] = np.empty(parent.store.size)
                    slots[parent] = parent.slot(flats[key])
                    slots[parent][...] = pg
        for key, flat in flats.items():
            views = [v for p, v in slots.items() if id(p.store) == key]
            whole = sum(v.size for v in views) == flat.size
            for part in [flat] if whole else views:
                check_finite(part, "gradient")
        for parameter, slot in slots.items():
            parameter.grad = slot
