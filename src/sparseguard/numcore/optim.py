"""Optimizers: plain SGD and Adam, each one step of one whole model.

`params` is every Parameter of one model in `params()` order, so they tile
its store and their gradients tile one flat gradient (see tensor.py). A
step builds its update in that gradient with whole-array ops, multiplies
each masked slice by its bool mask (mask-0 weights stay ±0, the rule of
`Parameter`), checks the update finite once and subtracts it from the store
in place. Each step consumes `grad` (None afterwards).
"""

from __future__ import annotations

import numpy as np

from .tensor import check_finite

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _flat_gradient(params, step: str) -> np.ndarray:
    # a step moves the whole store by the flat gradient that the gradients
    # view (a lone Parameter's, set by hand, is its own), so part of a model,
    # two models or two passes' gradients would move weights wrongly
    if any(p.grad is None for p in params):
        raise TypeError(f"{step} needs a gradient for every parameter")
    grad = params[0].grad
    flat = grad.reshape(-1) if grad.base is None else grad.base
    if (sum(p.data.size for p in params) != params[0].store.size
            or any(p.grad.base is not flat for p in params[1:])):
        raise ValueError(f"{step} takes every parameter of one model, with "
                         f"the gradients of one backward pass")
    return flat


def _descend(params, update: np.ndarray, what: str) -> None:
    for p in params:
        if p.mask is not None:
            np.multiply(p.grad, p.mask, out=p.grad)
        p.grad = None  # consumed, even by a step that fails its check
    check_finite(update, what)
    params[0].store -= update


def sgd_step(params, learning_rate: float) -> None:
    """Plain SGD, no momentum: value <- value - lr * gradient, with the
    bits of the out-of-place product per parameter."""
    update = _flat_gradient(params, "sgd_step")
    np.multiply(update, learning_rate, out=update)
    _descend(params, update, "sgd update")


class AdamState:
    """First/second moments, each one flat array laid out like the store,
    so a deep copy of (model, state) stays consistent."""

    def __init__(self, params):
        self.m = np.zeros(params[0].store.size)
        self.v = np.zeros_like(self.m)
        self.t = 0


def adam_step(params, state: AdamState, learning_rate: float) -> None:
    """Textbook bias-corrected update, as 13 in-place ufuncs over the flat
    moments, one scratch array and the flat gradient, which ends up holding
    the update; it has the bits of the per-parameter update."""
    g = _flat_gradient(params, "adam_step")
    m, v = state.m, state.v
    scratch = np.empty_like(m)
    # first, so a gradient of another size fails before the state changes
    np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    state.t += 1
    np.multiply(m, ADAM_BETA1, out=m)
    np.add(m, scratch, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    np.multiply(scratch, g, out=scratch)
    np.add(v, scratch, out=v)
    np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=scratch)
    np.multiply(scratch, learning_rate, out=scratch)
    np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=g)
    np.sqrt(g, out=g)
    np.add(g, ADAM_EPS, out=g)
    np.divide(scratch, g, out=g)
    _descend(params, g, "adam update")
