"""Task-side losses and scores: prediction entropy, the two entropy
regularized losses, task accuracy, and the accuracy-to-attackability score
used to rank candidate topologies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import posteriors
from .numcore import Tensor, ops

VARIANTS = ("none", "re1", "re2")


@dataclass
class EntropyConfig:
    beta: float = 0.1
    variant: str = "none"

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass
class ScorePair:
    task_acc: float
    mia_acc: float
    lam: float = 1.0


def entropy(probability_row: np.ndarray) -> float:
    """-sum p_i ln(max(p_i, 1e-12)) of one distribution row, natural log."""
    p = np.asarray(probability_row, dtype=np.float64)
    if p.ndim != 1 or p.min() < 0 or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("entropy expects one probability row summing to 1")
    return float(-(p * np.log(np.clip(p, ops.CLAMP, 1.0))).sum())


def loss_re1(probabilities: Tensor, labels, config: EntropyConfig) -> Tensor:
    """Cross-entropy minus beta times the mean per-row entropy of the batch."""
    ce = ops.cross_entropy(probabilities, labels)
    ent = ops.row_entropy_mean(probabilities)
    return ops.add(ce, ops.scale(ent, -config.beta))


def loss_re2(probabilities: Tensor, labels, config: EntropyConfig) -> Tensor:
    """Cross-entropy minus beta times the mean entropy over misclassified
    rows; with no misclassified rows the entropy term is 0."""
    ce = ops.cross_entropy(probabilities, labels)
    preds = probabilities.data.argmax(axis=1)
    wrong = np.flatnonzero(preds != np.asarray(labels))
    ent = ops.row_entropy_mean(probabilities, rows=wrong)
    return ops.add(ce, ops.scale(ent, -config.beta))


def training_loss(probabilities: Tensor, labels, config: EntropyConfig) -> Tensor:
    if config.variant == "re1":
        return loss_re1(probabilities, labels, config)
    if config.variant == "re2":
        return loss_re2(probabilities, labels, config)
    return ops.cross_entropy(probabilities, labels)


def _unpack(dataset):
    if isinstance(dataset, tuple):
        return dataset
    return dataset.x, dataset.y


def task_accuracy(model, dataset) -> float:
    """Fraction of rows whose argmax posterior matches the label; argmax ties
    break to the lowest class index."""
    x, y = _unpack(dataset)
    if len(x) == 0:
        raise ValueError("dataset is empty")
    preds = posteriors(model, x).argmax(axis=1)
    return float(np.mean(preds == np.asarray(y)))


def tm_score(pair: ScorePair) -> float:
    """task_acc^lambda / mia_acc."""
    if pair.mia_acc <= 0.0:
        raise ValueError("mia_acc must be positive to form the score")
    return pair.task_acc ** pair.lam / pair.mia_acc
