"""Task-side losses and scores: the two entropy regularized losses, task
accuracy, and the accuracy-to-attackability score used to rank candidate
topologies. The losses take the entropy weight `beta` and the score the
exponent `lam` as plain numbers; `RunConfig` checks both."""

from __future__ import annotations

import numpy as np

from .models import posteriors
from .numcore import Tensor, ops

VARIANTS = ("none", "re1", "re2")


def loss_re1(probabilities: Tensor, labels, beta: float) -> Tensor:
    """Cross-entropy minus beta times the mean per-row entropy of the batch."""
    ce = ops.cross_entropy(probabilities, labels)
    ent = ops.row_entropy_mean(probabilities)
    return ops.add(ce, ops.scale(ent, -beta))


def loss_re2(probabilities: Tensor, labels, beta: float) -> Tensor:
    """Cross-entropy minus beta times the mean entropy over misclassified
    rows; with no misclassified rows the entropy term is 0."""
    ce = ops.cross_entropy(probabilities, labels)
    preds = probabilities.data.argmax(axis=1)
    wrong = np.flatnonzero(preds != np.asarray(labels))
    ent = ops.row_entropy_mean(probabilities, rows=wrong)
    return ops.add(ce, ops.scale(ent, -beta))


def training_loss(probabilities: Tensor, labels, variant: str,
                  beta: float) -> Tensor:
    """The loss `variant` names: plain cross-entropy, re1 or re2."""
    if variant == "re1":
        return loss_re1(probabilities, labels, beta)
    if variant == "re2":
        return loss_re2(probabilities, labels, beta)
    if variant == "none":
        return ops.cross_entropy(probabilities, labels)
    raise ValueError(f"variant must be one of {VARIANTS}")


def task_accuracy(model, dataset) -> float:
    """Fraction of a `LabeledSet`'s rows whose argmax posterior matches the
    label; argmax ties break to the lowest class index."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    preds = posteriors(model, dataset.x).argmax(axis=1)
    return float(np.mean(preds == dataset.y))


def tm_score(task_acc: float, mia_acc: float, lam: float) -> float:
    """task_acc^lam / mia_acc."""
    if mia_acc <= 0.0:
        raise ValueError("mia_acc must be positive to form the score")
    return task_acc ** lam / mia_acc
