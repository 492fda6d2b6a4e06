"""Optimizers and the multi-step learning-rate schedule.

Both steppers honor parameter masks: the update is gated so mask-inactive
weights stay exactly 0 no matter how many steps run. Gradients are zeroed
after each step.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        p.grad[...] = 0.0


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
        p.grad[...] = 0.0


@dataclass
class LrSchedule:
    """Multi-step decay: rate(e) = base_rate * decay_factor^(#milestones <= e)."""

    base_rate: float
    milestones: tuple
    decay_factor: float

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError("milestones must be strictly increasing")


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    passed = sum(1 for m in schedule.milestones if m <= epoch)
    return schedule.base_rate * schedule.decay_factor ** passed
