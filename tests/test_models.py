"""Constructor tests for sparse targets and both attacker architectures."""

import numpy as np
import pytest

from sparseguard.attack import attack_outputs
from sparseguard.metrics import task_accuracy
from sparseguard.models import (
    Attacker,
    AttackerSpec,
    TargetSpec,
    build_attacker,
    build_target,
    last_layer_gradient_length,
    posteriors,
)
from sparseguard.numcore import Tape, Tensor, ops
from sparseguard.numcore.layers import Sequential, Weighted
from sparseguard.sparse import active_count, sparsity

MLP_SPEC = TargetSpec(kind="mlp", input_shape=(64,), hidden=(32, 16), classes=4)


def test_build_target_dense_weight_count():
    model = build_target(MLP_SPEC, 1.0, np.random.default_rng(0))
    assert active_count(model) == 64 * 32 + 32 * 16 + 16 * 4  # 2624
    assert sparsity(model) == 1.0


def test_build_target_sparse_count_after_trim():
    model = build_target(MLP_SPEC, 0.1, np.random.default_rng(0))
    assert active_count(model) in (262, 263)


def test_build_target_determinism():
    a = build_target(MLP_SPEC, 0.2, np.random.default_rng(9))
    b = build_target(MLP_SPEC, 0.2, np.random.default_rng(9))
    for la, lb in zip(a.masked_layers(), b.masked_layers()):
        assert np.array_equal(la.w.data, lb.w.data)
        assert np.array_equal(la.mask, lb.mask)


def test_target_forward_is_distribution():
    model = build_target(MLP_SPEC, 0.3, np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(7, 64))
    p = posteriors(model, x)
    assert p.shape == (7, 4)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_chunked_inference_matches_one_forward_pass():
    rng = np.random.default_rng(12)
    model = build_target(MLP_SPEC, 0.3, rng)
    x = rng.normal(size=(2500, 64))  # three 1024-row chunks, the last short
    y = rng.integers(0, 4, size=2500)
    whole = model(x).data
    assert np.array_equal(posteriors(model, x), whole)
    assert task_accuracy(model, (x, y)) == float(
        np.mean(whole.argmax(axis=1) == y))
    attacker = build_attacker("blackbox", model, rng)
    features = np.concatenate([whole, np.eye(4)[y]], axis=1)
    assert np.array_equal(attack_outputs(attacker, features),
                          attacker(features).data)


def test_cnn_target_shapes_and_masks():
    spec = TargetSpec(kind="cnn", input_shape=(1, 8, 8), classes=3)
    model = build_target(spec, 0.5, np.random.default_rng(3))
    # conv banks 16x1x3x3 and 32x16x3x3 plus head 3x(32*2*2)
    expected = 16 * 1 * 9 + 32 * 16 * 9 + 3 * 32 * 2 * 2
    layers = model.masked_layers()
    assert sum(l.w.data.size for l in layers) == expected
    x = np.random.default_rng(4).normal(size=(2, 64))
    p = posteriors(model, x)
    assert p.shape == (2, 3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("channels, side", [((2,), 4), ((2, 3, 2), 8)],
                         ids=["one stage", "three stages"])
def test_cnn_target_of_any_stage_count_runs(channels, side):
    spec = TargetSpec(kind="cnn", input_shape=(1, side, side), classes=3,
                      channels=channels)
    model = build_target(spec, 0.5, np.random.default_rng(5))
    # each stage's max-pool halves both sides
    flat = channels[-1] * (side // 2 ** len(channels)) ** 2
    assert model.last_weight_layer().w.data.size == flat * 3
    p = posteriors(model, np.random.default_rng(6).normal(size=(5, side ** 2)))
    assert p.shape == (5, 3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("spec", [
    MLP_SPEC, TargetSpec(kind="cnn", input_shape=(1, 8, 8), classes=3)],
    ids=["mlp", "cnn"])
def test_penultimate_matches_forward_pass(spec):
    rng = np.random.default_rng(15)
    model = build_target(spec, 0.5, rng)
    assert isinstance(model, Sequential)
    assert [id(p) for p in model.params()] == [
        id(p) for layer in model.layers if isinstance(layer, Weighted)
        for p in layer.params()]
    x = rng.normal(size=(9, spec.input_width))
    probs, hidden = model.penultimate(x)
    assert np.array_equal(probs, posteriors(model, x))
    head = model.layers.index(model.last_weight_layer())
    t = Tensor(x)
    for layer in model.layers[:head]:
        t = layer(t)
    assert np.array_equal(hidden, t.data)


def test_last_layer_gradient_length():
    spec = TargetSpec(kind="mlp", input_shape=(8,), hidden=(16,), classes=4)
    model = build_target(spec, 1.0, np.random.default_rng(0))
    assert last_layer_gradient_length(model) == 16 * 4 + 4  # 68


# ----------------------------------------------------------------- attackers


def test_blackbox_attacker_shapes():
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=10),
                        np.random.default_rng(0))
    assert attacker.feature_length == 20
    assert attacker.prob.layers[0].w.data.shape[1] == 10
    assert attacker.label.layers[0].w.data.shape[1] == 10
    assert attacker.fusion.layers[0].w.data.shape[1] == 128
    feats = np.random.default_rng(1).normal(size=(5, 20))
    out = attacker(feats)
    assert out.data.shape == (5,)
    assert np.all((out.data > 0.0) & (out.data < 1.0))


def test_fresh_attacker_outputs_near_half():
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=4),
                        np.random.default_rng(2))
    feats = np.random.default_rng(3).normal(size=(100, 8))
    out = attacker(feats).data
    assert np.all(np.abs(out - 0.5) < 0.05)


def test_attacker_zero_input_exactly_half():
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=4),
                        np.random.default_rng(4))
    out = attacker(np.zeros((3, 8))).data
    np.testing.assert_allclose(out, 0.5, atol=1e-15)


def test_attacker_build_is_pure():
    a = Attacker(AttackerSpec(mode="blackbox", classes=6),
                 np.random.default_rng(7))
    b = Attacker(AttackerSpec(mode="blackbox", classes=6),
                 np.random.default_rng(7))
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.data, pb.data)


def test_whitebox_fusion_width_and_feature_length():
    spec = AttackerSpec(mode="whitebox", classes=4, grad_len=100)
    attacker = Attacker(spec, np.random.default_rng(5))
    assert attacker.fusion.layers[0].w.data.shape[1] == 4 * 64
    assert attacker.feature_length == 4 + 4 + 1 + 100
    feats = np.random.default_rng(6).normal(size=(3, 109))
    out = attacker(feats)
    assert out.data.shape == (3,)


def test_whitebox_sorts_posteriors_descending():
    spec = AttackerSpec(mode="whitebox", classes=3, grad_len=10)
    attacker = Attacker(spec, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    rest = rng.normal(size=(1, 3 + 1 + 10))
    base = np.concatenate([[[0.1, 0.7, 0.2]], rest], axis=1)
    perm = np.concatenate([[[0.7, 0.2, 0.1]], rest], axis=1)
    assert np.array_equal(attacker(base).data, attacker(perm).data)


def test_blackbox_keeps_posteriors_unsorted():
    attacker = Attacker(AttackerSpec(mode="blackbox", classes=3),
                        np.random.default_rng(10))
    label = np.array([[1.0, 0.0, 0.0]])
    a = attacker(np.concatenate([[[0.1, 0.7, 0.2]], label], axis=1)).data
    b = attacker(np.concatenate([[[0.7, 0.2, 0.1]], label], axis=1)).data
    assert not np.array_equal(a, b)


def test_build_attacker_sizes_for_the_target():
    model = build_target(MLP_SPEC, 0.3, np.random.default_rng(13))
    black = build_attacker("blackbox", model, np.random.default_rng(14))
    white = build_attacker("whitebox", model, np.random.default_rng(14))
    assert (black.spec.mode, black.spec.classes) == ("blackbox", 4)
    assert (white.spec.mode, white.spec.classes) == ("whitebox", 4)
    assert white.spec.grad_len == last_layer_gradient_length(model)
    with pytest.raises(ValueError, match="attacker mode"):
        build_attacker("greybox", model, np.random.default_rng(14))


def test_whitebox_rejects_short_gradient():
    with pytest.raises(ValueError):
        Attacker(AttackerSpec(mode="whitebox", classes=4, grad_len=4),
                 np.random.default_rng(0))


def test_gradient_reaches_every_stream():
    spec = AttackerSpec(mode="whitebox", classes=4, grad_len=68)
    attacker = Attacker(spec, np.random.default_rng(11))
    streams = {
        "prob": attacker.prob,
        "loss": attacker.loss_stream,
        "grad": attacker.grad_stream,
        "label": attacker.label,
        "fusion": attacker.fusion,
    }
    rng = np.random.default_rng(12)
    for trial in range(10):
        feats = rng.normal(size=(8, attacker.feature_length))
        targets = rng.integers(0, 2, size=8).astype(np.float64)
        with Tape() as tape:
            loss = ops.binary_cross_entropy(attacker(feats), targets)
        tape.backward(loss)
        for name, stream in streams.items():
            got = max(np.abs(p.grad).max() for p in stream.params())
            assert got > 0.0, f"stream {name} got no gradient on trial {trial}"
