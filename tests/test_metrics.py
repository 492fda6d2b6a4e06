"""Loss and score tests: frozen arithmetic oracles, finite differences for
the regularized losses, and known-good TM-score rows."""

import numpy as np
import pytest

from sparseguard.data import LabeledSet
from sparseguard.metrics import (
    loss_re1,
    loss_re2,
    task_accuracy,
    tm_score,
    training_loss,
)
from sparseguard.numcore import Tape, Tensor, ops
from sparseguard.numcore.layers import Linear, Sequential

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def entropy(row: np.ndarray) -> float:
    """The entropy `row_entropy_mean` gives a one-row batch."""
    return float(ops.row_entropy_mean(Tensor(row[None, :])).data)


def test_entropy_frozen_values():
    assert entropy(np.array([0.25] * 4)) == pytest.approx(LN4, abs=1e-12)
    assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-10)
    assert entropy(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(LN2, abs=1e-12)


def test_entropy_bounds_and_uniform_maximum():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = int(rng.integers(2, 9))
        row = rng.dirichlet(np.ones(c))
        h = entropy(row)
        assert 0.0 <= h <= np.log(c) + 1e-12
        assert h <= entropy(np.full(c, 1.0 / c)) + 1e-12


def test_loss_re1_beta_zero_is_cross_entropy():
    rng = np.random.default_rng(1)
    p = Tensor(rng.dirichlet(np.ones(5), size=6))
    labels = rng.integers(0, 5, size=6)
    assert float(loss_re1(p, labels, 0.0).data) == pytest.approx(
        float(ops.cross_entropy(p, labels).data), abs=1e-15)


def test_loss_re1_uniform_batch_value():
    p = Tensor(np.full((3, 4), 0.25))
    labels = np.array([0, 1, 2])
    assert float(loss_re1(p, labels, 0.1).data) == pytest.approx(0.9 * LN4, abs=1e-12)


def test_loss_re1_never_exceeds_cross_entropy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = Tensor(rng.dirichlet(np.ones(4), size=8))
        labels = rng.integers(0, 4, size=8)
        assert float(loss_re1(p, labels, 0.1).data) <= float(
            ops.cross_entropy(p, labels).data) + 1e-12


def test_loss_re2_all_correct_equals_cross_entropy():
    p = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
    labels = np.array([0, 1])
    assert float(loss_re2(p, labels, 0.1).data) == pytest.approx(
        float(ops.cross_entropy(p, labels).data), abs=1e-15)


def test_loss_re2_single_misclassified_uniform_row():
    p = Tensor(np.array([[0.7, 0.1, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]]))
    labels = np.array([0, 1])  # row 1 argmax ties to class 0: misclassified
    ce = float(ops.cross_entropy(p, labels).data)
    assert float(loss_re2(p, labels, 0.1).data) == pytest.approx(
        ce - 0.1 * LN4, abs=1e-12)


def test_training_loss_dispatch():
    p = Tensor(np.array([[0.6, 0.4]]))
    labels = np.array([0])
    ce = float(ops.cross_entropy(p, labels).data)
    assert float(training_loss(p, labels, "none", 0.1).data) \
        == pytest.approx(ce)
    assert float(training_loss(p, labels, "re1", 0.1).data) < ce


def fd_loss_err(variant, seed):
    rng = np.random.default_rng(seed)
    net = Sequential([Linear(6, 10, rng, 0.8), ops.relu, Linear(10, 4, rng, 0.8), ops.softmax])
    x = Tensor(rng.normal(size=(7, 6)))
    labels = rng.integers(0, 4, size=7)

    def loss_fn():
        return training_loss(net(x), labels, variant, 0.1)

    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    grads = [p.grad.copy() for p in net.params()]
    worst = 0.0
    h = 1e-5
    for p, g in zip(net.params(), grads):
        flat, gflat = p.data.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(loss_fn().data)
            flat[i] = keep - h
            down = float(loss_fn().data)
            flat[i] = keep
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6))
    return worst


def test_fd_loss_re1():
    assert fd_loss_err("re1", 31) < 1e-4


def test_fd_loss_re2():
    assert fd_loss_err("re2", 32) < 1e-4


def test_training_loss_rejects_unknown_variant():
    p = Tensor(np.array([[0.6, 0.4]]))
    with pytest.raises(ValueError, match="variant must be one of"):
        training_loss(p, np.array([0]), "re3", 0.1)


# ------------------------------------------------------------ task accuracy


class ConstantModel:
    def __init__(self, row):
        self.row = np.asarray(row, dtype=np.float64)

    def __call__(self, x):
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        return Tensor(np.tile(self.row, (data.shape[0], 1)))


def test_task_accuracy_constant_predictor():
    x = np.zeros((40, 3))
    y = np.repeat(np.arange(4), 10)
    model = ConstantModel([0.7, 0.1, 0.1, 0.1])
    assert task_accuracy(model, LabeledSet(x, y)) == pytest.approx(0.25)


def test_task_accuracy_oracle_and_worst_case():
    y = np.array([0, 1, 1, 0])
    onehot = np.eye(2)[y]
    rows = LabeledSet(np.zeros((4, 2)), y)
    assert task_accuracy(ConstantModel([1.0, 0.0]), rows) == 0.5
    perfect = 1.0 - 0.0

    class Oracle:
        def __call__(self, x):
            return Tensor(onehot)

    assert task_accuracy(Oracle(), rows) == perfect
    flipped = np.eye(2)[1 - y]

    class Wrong:
        def __call__(self, x):
            return Tensor(flipped)

    assert task_accuracy(Wrong(), rows) == 0.0


# ---------------------------------------------------------------- tm_score


def test_tm_score_paper_examples():
    assert tm_score(0.6991, 0.5154, 1.0) == pytest.approx(1.3564, abs=5e-5)
    assert abs(round(tm_score(0.6991, 0.5154, 1.0), 2) - 1.35) <= 0.01 + 1e-9
    assert tm_score(0.8741, 0.5834, 1.0) == pytest.approx(1.4983, abs=5e-5)
    assert round(tm_score(0.8741, 0.5834, 1.0), 2) == pytest.approx(1.50)
    assert tm_score(0.5, 0.5, 1.0) == pytest.approx(1.0)


def test_tm_score_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        task, mia = rng.uniform(0.1, 1.0, size=2)
        base = tm_score(task, mia, 1.0)
        assert tm_score(min(task + 0.05, 1.0), mia, 1.0) >= base
        assert tm_score(task, mia + 0.05, 1.0) < base


def test_tm_score_rejects_zero_mia():
    with pytest.raises(ValueError):
        tm_score(0.9, 0.0, 1.0)


def test_tm_score_lambda_exponent():
    assert tm_score(0.81, 0.5, 0.5) == pytest.approx(0.9 / 0.5)
