"""Optimizers: plain SGD and Adam.

Both steppers honor parameter masks: the update is multiplied by the bool
mask, so mask-inactive weights stay exactly ±0 however many steps run (the
rule of `Parameter`).
Each step consumes `grad` (None afterwards), so a step with no backward pass
before it fails.
"""

from __future__ import annotations

import numpy as np

from .tensor import check_finite

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sgd_step(params, learning_rate: float) -> None:
    """Plain SGD, no momentum: value <- value - lr * gradient."""
    for p in params:
        update = learning_rate * p.grad
        if p.mask is not None:
            update = update * p.mask
        check_finite(update, "sgd update")
        p.data -= update
        p.grad = None


class AdamState:
    """First/second moments of every parameter, each held as one flat array
    laid out in parameter-list order, so a deep copy of (model, state) stays
    consistent."""

    def __init__(self, params):
        size = sum(p.data.size for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0


def adam_step(params, state: AdamState, learning_rate: float) -> None:
    """Textbook bias-corrected update, run as whole-buffer in-place ops over
    all parameters at once; the update is checked finite before any
    parameter moves."""
    if any(p.grad is None for p in params):
        raise TypeError("adam_step needs a gradient for every parameter")
    if sum(p.data.size for p in params) != state.m.size:
        raise ValueError("parameters do not match the Adam state's size")
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    # the gathered gradient doubles as scratch once the moments are updated
    g = np.concatenate([p.grad.reshape(-1) for p in params])
    step = np.empty_like(g)
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    np.add(m, step, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    np.multiply(step, g, out=step)
    np.add(v, step, out=v)
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=step)
    np.multiply(step, learning_rate, out=step)
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=g)
    np.sqrt(g, out=g)
    np.add(g, ADAM_EPS, out=g)
    np.divide(step, g, out=step)
    segments, start = [], 0
    for p in params:
        seg = step[start:start + p.data.size].reshape(p.data.shape)
        start += p.data.size
        if p.mask is not None:
            np.multiply(seg, p.mask, out=seg)
        segments.append(seg)
    check_finite(step, "adam update")
    for p, seg in zip(params, segments):
        p.data -= seg
        p.grad = None
