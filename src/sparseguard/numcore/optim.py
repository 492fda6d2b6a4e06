"""Optimizers: plain SGD and Adam.

Both steppers honor parameter masks: the update is gated so mask-inactive
weights stay exactly 0 no matter how many steps run. Each step consumes
`grad` (None afterwards), so a step with no backward pass before it fails.
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
    """First/second moment buffers aligned with the parameter list by index,
    so a deep copy of (model, state) stays consistent."""

    def __init__(self, params):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(params, state: AdamState, learning_rate: float) -> None:
    """Textbook bias-corrected update; moments updated in place."""
    state.t += 1
    t = state.t
    for i, p in enumerate(params):
        g = p.grad
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2 ** t)
        update = learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if p.mask is not None:
            update = update * p.mask
        check_finite(update, "adam update")
        p.data -= update
        p.grad = None
