"""Membership-inference lifecycle tests: splits, features, training, scoring."""

import copy

import numpy as np
import pytest

from sparseguard.attack import (
    AttackExamples,
    balanced_accuracy,
    extract_examples,
    finetune_attacker,
    log_gain,
    mia_accuracy,
    mia_gain,
    split_for_attack,
    train_attacker,
)
from sparseguard.data import LabeledSet, load_dataset
from sparseguard.models import (
    Attacker,
    AttackerSpec,
    TargetSpec,
    build_target,
    last_layer_gradient_length,
)
from sparseguard.numcore import Tape, Tensor
from sparseguard.numcore import ops
from sparseguard.numcore.optim import sgd_step


def toy_sets(n_train=40, n_test=20, dim=3, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda n: LabeledSet(rng.normal(size=(n, dim)),
                              rng.integers(0, classes, size=n))
    return mk(n_train), mk(n_test)


def small_target(classes=3, dim=4, hidden=(12, 8), omega=0.6, seed=0):
    spec = TargetSpec(kind="mlp", input_shape=(dim,), classes=classes,
                      hidden=hidden)
    return build_target(spec, omega, np.random.default_rng(seed))


class StubAttacker:
    """Fixed-output attacker for scoring arithmetic tests."""

    def __init__(self, value, mode="blackbox"):
        self.value = value
        self.spec = type("S", (), {"mode": mode})()

    def __call__(self, features):
        f = features.data if isinstance(features, Tensor) else np.asarray(features)
        return Tensor(np.full(f.shape[0], self.value))

    def params(self):
        return []


class UniformTarget:
    """Outputs uniform posteriors regardless of input."""

    def __init__(self, classes):
        self.spec = type("S", (), {"classes": classes})()

    def __call__(self, x):
        d = x.data if isinstance(x, Tensor) else np.asarray(x)
        n = d.shape[0]
        c = self.spec.classes
        return Tensor(np.full((n, c), 1.0 / c))


class LookupTarget:
    """Maximally overfit target: confident one-hot on memorized rows."""

    def __init__(self, train_set, classes):
        self.table = {row.tobytes(): int(lbl)
                      for row, lbl in zip(train_set.x, train_set.y)}
        self.spec = type("S", (), {"classes": classes})()

    def __call__(self, x):
        d = x.data if isinstance(x, Tensor) else np.asarray(x)
        c = self.spec.classes
        out = np.full((d.shape[0], c), 1.0 / c)
        for i, row in enumerate(d):
            lbl = self.table.get(row.tobytes())
            if lbl is not None:
                out[i] = (1.0 - 0.97) / (c - 1)
                out[i, lbl] = 0.97
        return Tensor(out)


# ---------------------------------------------------------------- splits

def test_split_sizes_paper_row():
    train, test = toy_sets(1000, 200)
    s = split_for_attack(train, test, np.random.default_rng(0))
    assert (len(s.known_train), len(s.known_test),
            len(s.unknown_train), len(s.unknown_test)) == (500, 100, 500, 100)


def test_split_partition_invariants_many_seeds():
    train, test = toy_sets(37, 11)
    for seed in range(100):
        s = split_for_attack(train, test, np.random.default_rng(seed))
        assert len(s.known_train) == 18 and len(s.unknown_train) == 19
        assert len(s.known_test) == 5 and len(s.unknown_test) == 6
        for whole, a, b in ((train, s.known_train, s.unknown_train),
                            (test, s.known_test, s.unknown_test)):
            rebuilt = np.concatenate([a.x, b.x], axis=0)
            assert (np.sort(rebuilt.ravel()).tobytes()
                    == np.sort(whole.x.ravel()).tobytes())
            keys_a = {r.tobytes() for r in a.x}
            keys_b = {r.tobytes() for r in b.x}
            assert not keys_a & keys_b


def test_split_deterministic():
    train, test = toy_sets()
    a = split_for_attack(train, test, np.random.default_rng(9))
    b = split_for_attack(train, test, np.random.default_rng(9))
    assert a.known_train.x.tobytes() == b.known_train.x.tobytes()
    assert a.unknown_test.y.tobytes() == b.unknown_test.y.tobytes()


def test_split_rejects_empty_slice():
    train, test = toy_sets(1, 10)
    with pytest.raises(ValueError):
        split_for_attack(train, test, np.random.default_rng(0))


# ---------------------------------------------------------------- features

def test_blackbox_feature_length_and_labels():
    target = small_target(classes=4, dim=3)
    train, test = toy_sets(20, 10, dim=3, classes=4, seed=1)
    splits = split_for_attack(train, test, np.random.default_rng(1))
    at, ae = extract_examples(target, splits, "blackbox")
    assert at.features.shape == (15, 8)
    assert ae.features.shape == (15, 8)
    # members first (known_train), then non-members (known_test)
    assert at.membership.tolist() == [1] * 10 + [0] * 5
    np.testing.assert_allclose(at.features[:, :4].sum(axis=1), 1.0, atol=1e-6)
    onehot = at.features[:10, 4:]
    np.testing.assert_array_equal(onehot.argmax(axis=1), splits.known_train.y)
    np.testing.assert_allclose(onehot.sum(axis=1), 1.0)


def test_whitebox_feature_length_spec_case():
    target = small_target(classes=4, dim=5, hidden=(20, 16), omega=0.8)
    assert last_layer_gradient_length(target) == 68
    train, test = toy_sets(12, 8, dim=5, classes=4, seed=2)
    splits = split_for_attack(train, test, np.random.default_rng(2))
    at, _ = extract_examples(target, splits, "whitebox")
    assert at.features.shape[1] == 4 + 4 + 1 + 68


def test_whitebox_loss_and_gradient_match_autodiff():
    target = small_target(classes=3, dim=4, hidden=(10, 6), omega=0.9, seed=3)
    train, test = toy_sets(12, 8, dim=4, classes=3, seed=3)
    splits = split_for_attack(train, test, np.random.default_rng(3))
    at, _ = extract_examples(target, splits, "whitebox")
    c = 3
    head = target.last_weight_layer()
    for k in (0, 7, 9):
        ds = (splits.known_train if k < len(splits.known_train)
              else splits.known_test)
        j = k if k < len(splits.known_train) else k - len(splits.known_train)
        x = ds.x[j:j + 1]
        y = ds.y[j:j + 1]
        with Tape() as tape:
            out = target(x)
            loss = ops.cross_entropy(out, y)
        tape.backward(loss)
        row = at.features[k]
        assert abs(row[2 * c] - loss.data) < 1e-9
        grad = row[2 * c + 1:]
        expected = np.concatenate([head.w.grad.ravel(), head.b.grad.ravel()])
        np.testing.assert_allclose(grad, expected, atol=1e-9)


def test_extract_rejects_unknown_mode():
    target = small_target()
    train, test = toy_sets(dim=4, classes=3)
    splits = split_for_attack(train, test, np.random.default_rng(0))
    with pytest.raises(ValueError, match="mode"):
        extract_examples(target, splits, "graybox")


# ---------------------------------------------------------------- training

def separable_examples(n_per_class=200, classes=2, seed=0, gap=1.5):
    rng = np.random.default_rng(seed)
    f = 2 * classes
    members = rng.normal(gap, 1.0, size=(n_per_class, f))
    nonmembers = rng.normal(-gap, 1.0, size=(n_per_class, f))
    feats = np.concatenate([members, nonmembers], axis=0)
    mem = np.concatenate([np.ones(n_per_class), np.zeros(n_per_class)])
    return AttackExamples(feats, mem.astype(np.int64))


def test_train_attacker_rejects_single_class():
    ex = AttackExamples(np.zeros((10, 4)), np.ones(10, dtype=np.int64))
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=2),
                        np.random.default_rng(0))
    with pytest.raises(ValueError):
        train_attacker(attacker, ex, epochs=1, rng=np.random.default_rng(0))


def test_balanced_batches_exact_composition():
    ex = separable_examples(n_per_class=150)
    # unbalance the classes: drop some non-members
    keep = np.concatenate([np.arange(150), 150 + np.arange(70)])
    ex = AttackExamples(ex.features[keep], ex.membership[keep])
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=2),
                        np.random.default_rng(0))
    seen = []

    def hook(feats, targets):
        seen.append((feats.shape[0], int(targets.sum())))

    train_attacker(attacker, ex, epochs=3, rng=np.random.default_rng(0),
                   batch_hook=hook)
    # longer class has 150 rows -> floor(150/64) = 2 batches per epoch
    assert len(seen) == 6
    assert all(total == 128 and members == 64 for total, members in seen)


def test_tiny_classes_still_yield_full_batches():
    ex = separable_examples(n_per_class=20)
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=2),
                        np.random.default_rng(0))
    seen = []
    train_attacker(attacker, ex, epochs=2, rng=np.random.default_rng(0),
                   batch_hook=lambda f, t: seen.append((len(t), int(t.sum()))))
    assert seen == [(128, 64), (128, 64)]


def test_attacker_learns_separable_features():
    ex = separable_examples(n_per_class=200, seed=4)
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=2),
                        np.random.default_rng(4))
    train_attacker(attacker, ex, epochs=15, rng=np.random.default_rng(4))
    out = attacker(ex.features).data
    assert balanced_accuracy(out, ex.membership) > 0.95


def test_train_attacker_deterministic():
    ex = separable_examples(n_per_class=100, seed=5)
    outs = []
    for _ in range(2):
        attacker = Attacker(
            AttackerSpec(mode="blackbox", classes=2), np.random.default_rng(5))
        train_attacker(attacker, ex, epochs=3, rng=np.random.default_rng(5))
        outs.append(attacker(ex.features[:10]).data.tobytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- fine-tuning

def trained_setup(seed=0):
    train, test = load_dataset({"kind": "blobs", "classes": 3, "n_train": 300,
                                "n_test": 140, "dim": 4, "seed": seed,
                                "cluster_std": 1.5})
    target = small_target(classes=3, dim=4, seed=seed)
    splits = split_for_attack(train, test, np.random.default_rng(seed))
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=3),
                        np.random.default_rng(seed))
    at, _ = extract_examples(target, splits, "blackbox")
    train_attacker(attacker, at, epochs=10, rng=np.random.default_rng(seed))
    return target, splits, attacker


def test_finetune_zero_epochs_is_identity():
    target, splits, attacker = trained_setup()
    tuned = finetune_attacker(attacker, target, splits, epochs=0,
                              learning_rate=0.001)
    assert tuned is not attacker
    for a, b in zip(attacker.params(), tuned.params()):
        assert a.data.tobytes() == b.data.tobytes()


def test_finetune_preserves_parent():
    target, splits, attacker = trained_setup(seed=1)
    before = [p.data.copy() for p in attacker.params()]
    tuned = finetune_attacker(attacker, target, splits, epochs=2,
                              rng=np.random.default_rng(1), learning_rate=0.001)
    for p, snap in zip(attacker.params(), before):
        assert p.data.tobytes() == snap.tobytes()
    changed = any(p.data.tobytes() != snap.tobytes()
                  for p, snap in zip(tuned.params(), before))
    assert changed


def test_four_finetunes_are_distinct_instances():
    target, splits, attacker = trained_setup(seed=2)
    copies = [finetune_attacker(attacker, target, splits, epochs=1,
                                rng=np.random.default_rng(k), learning_rate=0.001)
              for k in range(4)]
    ids = {id(c) for c in copies} | {id(attacker)}
    assert len(ids) == 5


def test_finetune_on_parent_model_is_stable():
    target, splits, attacker = trained_setup(seed=3)
    before = mia_accuracy(attacker, target, splits)
    tuned = finetune_attacker(attacker, target, splits, epochs=5,
                              rng=np.random.default_rng(3), learning_rate=0.001)
    after = mia_accuracy(tuned, target, splits)
    assert abs(after - before) < 0.02


def test_finetune_trains_at_the_given_learning_rate():
    target, splits, attacker = trained_setup(seed=4)
    reference = copy.deepcopy(attacker)
    at, _ = extract_examples(target, splits, "blackbox")
    train_attacker(reference, at, epochs=2, rng=np.random.default_rng(4),
                   learning_rate=0.01)
    tuned = finetune_attacker(attacker, target, splits, epochs=2,
                              rng=np.random.default_rng(4), learning_rate=0.01)
    slow = finetune_attacker(attacker, target, splits, epochs=2,
                             rng=np.random.default_rng(4), learning_rate=0.001)
    for a, b in zip(reference.params(), tuned.params()):
        assert a.data.tobytes() == b.data.tobytes()
    assert any(a.data.tobytes() != b.data.tobytes()
               for a, b in zip(tuned.params(), slow.params()))


# ---------------------------------------------------------------- scoring

def test_balanced_accuracy_oracle_and_flip():
    mem = np.array([1, 1, 1, 0, 0], dtype=np.int64)
    oracle = np.array([0.9, 0.8, 0.99, 0.1, 0.2])
    assert balanced_accuracy(oracle, mem) == 1.0
    assert balanced_accuracy(1.0 - oracle, mem) == 0.0


def test_balanced_accuracy_weights_classes_equally():
    mem = np.array([1] * 8 + [0] * 2, dtype=np.int64)
    out = np.array([0.9] * 8 + [0.9, 0.1])
    # members all right (1.0), non-members half right (0.5)
    assert balanced_accuracy(out, mem) == pytest.approx(0.75)


def test_constant_half_attacker_scores_half():
    target = small_target(classes=3, dim=4)
    train, test = toy_sets(30, 10, dim=4, classes=3)
    splits = split_for_attack(train, test, np.random.default_rng(0))
    stub = StubAttacker(0.5)
    assert mia_accuracy(stub, target, splits) == pytest.approx(0.5)


def test_mia_gain_constant_half():
    target = small_target(classes=3, dim=4)
    train, test = toy_sets(30, 10, dim=4, classes=3)
    splits = split_for_attack(train, test, np.random.default_rng(0))
    stub = StubAttacker(0.5)
    n_eval = len(splits.unknown_train) + len(splits.unknown_test)
    assert abs(mia_gain(stub, target, splits) - n_eval * np.log(0.5)) < 1e-9


def test_log_gain_perfect_and_clamped():
    mem = np.array([1, 0], dtype=np.int64)
    assert log_gain(np.array([1.0, 0.0]), mem) == 0.0
    tiny = log_gain(np.array([1e-12, 1.0 - 1e-12]), mem)
    assert tiny == pytest.approx(2 * np.log(1e-12), rel=1e-9)
    floor = log_gain(np.array([0.0, 0.5]), mem)
    assert floor == pytest.approx(np.log(1e-12) + np.log(0.5), rel=1e-9)


def test_gain_never_positive():
    rng = np.random.default_rng(6)
    for _ in range(50):
        out = rng.uniform(0, 1, size=20)
        mem = rng.integers(0, 2, size=20).astype(np.int64)
        if mem.sum() in (0, 20):
            continue
        assert log_gain(out, mem) <= 0.0


# -------------------------------------------------------- end-to-end signal

def test_overfit_lookup_target_is_attackable():
    train, test = load_dataset({"kind": "blobs", "classes": 4, "n_train": 500,
                                "n_test": 200, "dim": 4, "seed": 7})
    splits = split_for_attack(train, test, np.random.default_rng(7))
    target = LookupTarget(train, classes=4)
    at, _ = extract_examples(target, splits, "blackbox")
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=4),
                        np.random.default_rng(7))
    train_attacker(attacker, at, epochs=30, rng=np.random.default_rng(7))
    assert mia_accuracy(attacker, target, splits) > 0.60


def test_uniform_target_is_not_attackable():
    train, test = load_dataset({"kind": "blobs", "classes": 4, "n_train": 500,
                                "n_test": 200, "dim": 4, "seed": 8})
    splits = split_for_attack(train, test, np.random.default_rng(8))
    target = UniformTarget(classes=4)
    at, _ = extract_examples(target, splits, "blackbox")
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=4),
                        np.random.default_rng(8))
    train_attacker(attacker, at, epochs=30, rng=np.random.default_rng(8))
    assert abs(mia_accuracy(attacker, target, splits) - 0.5) <= 0.03


def fit_target(target, train_set, epochs, lr=0.1, batch=64, seed=0):
    rng = np.random.default_rng(seed)
    n = len(train_set)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n - batch + 1, batch):
            rows = perm[start:start + batch]
            with Tape() as tape:
                out = target(train_set.x[rows])
                loss = ops.cross_entropy(out, train_set.y[rows])
            tape.backward(loss)
            sgd_step(target.params(), lr)
    return target


def test_overfitting_signal_is_monotone():
    budgets = (1, 20, 200)
    accs = {b: [] for b in budgets}
    for seed in range(5):
        train, test = load_dataset({"kind": "blobs", "classes": 4,
                                    "n_train": 500, "n_test": 200, "dim": 6,
                                    "seed": 100 + seed, "center_spread": 1.0,
                                    "cluster_std": 2.0})
        splits = split_for_attack(train, test, np.random.default_rng(seed))
        for budget in budgets:
            spec = TargetSpec(kind="mlp", input_shape=(6,), classes=4,
                              hidden=(128,))
            target = build_target(spec, 1.0, np.random.default_rng(seed))
            fit_target(target, train, budget, seed=seed)
            at, _ = extract_examples(target, splits, "blackbox")
            attacker = Attacker(
                AttackerSpec(mode="blackbox", classes=4),
                np.random.default_rng(seed))
            train_attacker(attacker, at, epochs=40,
                           rng=np.random.default_rng(seed))
            accs[budget].append(mia_accuracy(attacker, target, splits))
    medians = [float(np.median(accs[b])) for b in budgets]
    assert medians[0] <= medians[1] <= medians[2]
