"""Optimizers: plain SGD and Adam.

Both steppers honor parameter masks: the update is multiplied by the bool
mask, so mask-inactive weights stay exactly ±0 however many steps run (the
rule of `Parameter`).
Each step consumes `grad` (None afterwards), so a step with no backward pass
before it fails. Both write into `grad`, which `Tape.backward` hands each
parameter as an array of its own; a caller that still reads a gradient
array after a step must keep a copy.
"""

from __future__ import annotations

import numpy as np

from .tensor import check_finite

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sgd_step(params, learning_rate: float) -> None:
    """Plain SGD, no momentum: value <- value - lr * gradient.

    The update is written into the gradient it consumes, first scaled by
    the rate, then gated by the mask; this has the bits of the out-of-place
    product. Each parameter's update is checked finite before that
    parameter moves."""
    if any(p.grad is None for p in params):
        raise TypeError("sgd_step needs a gradient for every parameter")
    for p in params:
        update = p.grad
        np.multiply(update, learning_rate, out=update)
        if p.mask is not None:
            np.multiply(update, p.mask, out=update)
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
    """Textbook bias-corrected update, run one parameter at a time with
    in-place ops on that parameter's views of the flat moments, so no
    gathered copy of all gradients is made. Every parameter's update is
    written to one flat buffer and checked finite before any parameter
    moves. Each gradient serves as scratch space once its moments are
    updated."""
    if any(p.grad is None for p in params):
        raise TypeError("adam_step needs a gradient for every parameter")
    if sum(p.data.size for p in params) != state.m.size:
        raise ValueError("parameters do not match the Adam state's size")
    if any(p.grad.shape != p.data.shape for p in params):
        raise ValueError("every gradient must have its parameter's shape")
    state.t += 1
    t = state.t
    step = np.empty_like(state.m)
    segments, start = [], 0
    for p in params:
        g, shape = p.grad, p.data.shape
        stop = start + g.size
        m = state.m[start:stop].reshape(shape)
        v = state.v[start:stop].reshape(shape)
        seg = step[start:stop].reshape(shape)
        start = stop
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=seg)
        np.add(m, seg, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, 1.0 - ADAM_BETA2, out=seg)
        np.multiply(seg, g, out=seg)
        np.add(v, seg, out=v)
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=seg)
        np.multiply(seg, learning_rate, out=seg)
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=g)
        np.sqrt(g, out=g)
        np.add(g, ADAM_EPS, out=g)
        np.divide(seg, g, out=seg)
        if p.mask is not None:
            np.multiply(seg, p.mask, out=seg)
        segments.append(seg)
    check_finite(step, "adam update")
    for p, seg in zip(params, segments):
        p.data -= seg
        p.grad = None
