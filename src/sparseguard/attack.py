"""Membership-inference simulation: splits, attack features, training, scoring.

The lifecycle mirrors how the framework stress-tests a compressed model: split
the target's data into halves the adversary does and does not know, turn model
behavior on those halves into attack examples, train a binary attacker on
balanced member/non-member batches, and score membership accuracy and log
gain on the held-out halves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet
from .models import posteriors
from .numcore import Tape
from .numcore import ops
from .numcore.optim import adam_step

HALF_BATCH = 64
CLAMP = 1e-12
MODES = ("blackbox", "whitebox")


@dataclass
class AttackSplits:
    """Four-way partition: halves known to the attacker vs held out."""

    known_train: LabeledSet
    known_test: LabeledSet
    unknown_train: LabeledSet
    unknown_test: LabeledSet


@dataclass
class AttackExamples:
    """Batched attack examples: one feature row and membership flag each."""

    features: np.ndarray
    membership: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.membership = np.asarray(self.membership, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2d matrix")
        if self.membership.shape != (self.features.shape[0],):
            raise ValueError("membership must align with feature rows")
        bad = set(np.unique(self.membership)) - {0, 1}
        if bad:
            raise ValueError(f"membership flags must be 0/1, got {sorted(bad)}")

    def __len__(self) -> int:
        return self.features.shape[0]


def split_for_attack(train_set: LabeledSet, test_set: LabeledSet,
                     rng: np.random.Generator) -> AttackSplits:
    """Random 50/50 partition of each split; the known half is the attacker's."""
    halves = []
    for ds in (train_set, test_set):
        n = len(ds)
        k = n // 2
        if k == 0:
            raise ValueError("each split needs at least 2 rows to halve")
        perm = rng.permutation(n)
        known, unknown = perm[:k], perm[k:]
        halves.append((LabeledSet(ds.x[known], ds.y[known]),
                       LabeledSet(ds.x[unknown], ds.y[unknown])))
    (known_train, unknown_train), (known_test, unknown_test) = halves
    return AttackSplits(known_train, known_test, unknown_train, unknown_test)


def _onehot(y: np.ndarray, classes: int) -> np.ndarray:
    return np.eye(classes, dtype=np.float64)[y]


def _feature_rows(target, ds: LabeledSet, mode: str) -> np.ndarray:
    c = target.spec.classes
    labels = _onehot(ds.y, c)
    if mode == "blackbox":
        probs = posteriors(target, ds.x)
        return np.concatenate([probs, labels], axis=1)
    probs, hidden = target.penultimate(ds.x)
    rows = np.arange(len(ds))
    loss = -np.log(np.clip(probs[rows, ds.y], CLAMP, 1.0))[:, None]
    # per-example gradient of that example's cross-entropy at the last layer
    dz = probs - labels
    grad_w = np.einsum("nc,nh->nch", dz, hidden).reshape(len(ds), -1)
    return np.concatenate([probs, labels, loss, grad_w, dz], axis=1)


def extract_examples(target, splits: AttackSplits,
                     mode: str) -> tuple[AttackExamples, AttackExamples]:
    """Build the attack-train and attack-eval example sets for one target.

    Attack-train pairs the known halves (train rows are members); attack-eval
    pairs the unknown halves. White-box features append the per-example loss
    and the analytic last-layer gradient of that single example's loss.
    """
    if mode not in MODES:
        raise ValueError(f"unknown attack mode: {mode!r}")
    out = []
    for members, nonmembers in ((splits.known_train, splits.known_test),
                                (splits.unknown_train, splits.unknown_test)):
        feats = np.concatenate([_feature_rows(target, members, mode),
                                _feature_rows(target, nonmembers, mode)], axis=0)
        flags = np.concatenate([np.ones(len(members), dtype=np.int64),
                                np.zeros(len(nonmembers), dtype=np.int64)])
        out.append(AttackExamples(feats, flags))
    return out[0], out[1]


def _class_stream(idx: np.ndarray, need: int,
                  rng: np.random.Generator) -> np.ndarray:
    # each pass is a fresh permutation: without replacement until exhausted,
    # then the class is reshuffled and recycled
    parts, got = [], 0
    while got < need:
        perm = rng.permutation(idx)
        take = min(need - got, len(perm))
        parts.append(perm[:take])
        got += take
    return np.concatenate(parts)


def train_attacker(attacker, examples: AttackExamples, epochs: int,
                   rng: np.random.Generator, *, learning_rate: float,
                   batch_hook=None):
    """Train the attacker on balanced 64+64 member/non-member batches."""
    members = np.flatnonzero(examples.membership == 1)
    nonmembers = np.flatnonzero(examples.membership == 0)
    if len(members) == 0 or len(nonmembers) == 0:
        raise ValueError("attacker training needs both membership classes")
    params = attacker.params()
    longer = max(len(members), len(nonmembers))
    batches = max(1, longer // HALF_BATCH)
    need = batches * HALF_BATCH
    for _ in range(epochs):
        member_stream = _class_stream(members, need, rng)
        nonmember_stream = _class_stream(nonmembers, need, rng)
        for b in range(batches):
            sel = slice(b * HALF_BATCH, (b + 1) * HALF_BATCH)
            rows = np.concatenate([member_stream[sel], nonmember_stream[sel]])
            feats = examples.features[rows]
            targets = examples.membership[rows].astype(np.float64)
            if batch_hook is not None:
                batch_hook(feats, targets)
            with Tape() as tape:
                out = attacker(feats)
                loss = ops.binary_cross_entropy(out, targets)
            tape.backward(loss)
            adam_step(params, attacker.opt_state, learning_rate)
    return attacker


def finetune_attacker(attacker, candidate, splits: AttackSplits, epochs: int,
                      rng: np.random.Generator, *, learning_rate: float):
    """Copy the attacker and adapt the copy to one candidate model.

    The parent attacker (trained against the candidates' shared parent model)
    is left untouched so every candidate starts from the same state.
    """
    tuned = copy.deepcopy(attacker)
    if epochs == 0:
        return tuned
    attack_train, _ = extract_examples(candidate, splits, tuned.spec.mode)
    return train_attacker(tuned, attack_train, epochs=epochs, rng=rng,
                          learning_rate=learning_rate)


def attack_outputs(attacker, features: np.ndarray) -> np.ndarray:
    """Attacker membership probabilities, computed without recording a graph."""
    return posteriors(attacker, features)


def balanced_accuracy(outputs: np.ndarray, membership: np.ndarray) -> float:
    """Mean of per-class accuracies under the (output >= 0.5) decision rule."""
    preds = np.asarray(outputs) >= 0.5
    membership = np.asarray(membership)
    member_rows = membership == 1
    nonmember_rows = membership == 0
    if not member_rows.any() or not nonmember_rows.any():
        raise ValueError("balanced accuracy needs both membership classes")
    acc_member = float(preds[member_rows].mean())
    acc_nonmember = float((~preds[nonmember_rows]).mean())
    return 0.5 * (acc_member + acc_nonmember)


def log_gain(outputs: np.ndarray, membership: np.ndarray) -> float:
    """Sum of log-likelihoods the attacker assigns to true membership."""
    outputs = np.asarray(outputs, dtype=np.float64)
    membership = np.asarray(membership)
    member_terms = np.log(np.clip(outputs[membership == 1], CLAMP, 1.0))
    nonmember_terms = np.log(np.clip(1.0 - outputs[membership == 0], CLAMP, 1.0))
    return float(member_terms.sum() + nonmember_terms.sum())


def _eval_examples(attacker, target, splits: AttackSplits) -> AttackExamples:
    _, attack_eval = extract_examples(target, splits, attacker.spec.mode)
    return attack_eval


def mia_accuracy(attacker, target, splits: AttackSplits) -> float:
    """Balanced membership accuracy on the held-out (unknown) halves."""
    ev = _eval_examples(attacker, target, splits)
    return balanced_accuracy(attack_outputs(attacker, ev.features),
                             ev.membership)


def mia_gain(attacker, target, splits: AttackSplits) -> float:
    """Log-gain diagnostic on the held-out halves; 0 is a perfect attacker."""
    ev = _eval_examples(attacker, target, splits)
    return log_gain(attack_outputs(attacker, ev.features), ev.membership)
