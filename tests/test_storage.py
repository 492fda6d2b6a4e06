"""The storage rule: a model holds its parameters in one array, every
Parameter's data is a view of its slice of it, and each backward pass gives
the model one flat gradient whose slices are the gradients it sets."""

import copy

import numpy as np
import pytest

from sparseguard.checkpoint import load_checkpoint, save_checkpoint
from sparseguard.models import MODES, TargetSpec, build_attacker, build_target
from sparseguard.numcore import Tape, Tensor, ops
from sparseguard.numcore.layers import Conv2d, Linear, Sequential
from sparseguard.numcore.optim import AdamState, adam_step, sgd_step
from sparseguard.sparse import StrategyPair, sparse_update

TARGETS = {
    "mlp": TargetSpec(kind="mlp", input_shape=(4,), classes=3, hidden=(16, 12)),
    "cnn": TargetSpec(kind="cnn", input_shape=(1, 4, 4), classes=3,
                      channels=(2, 4), kernel=3),
}


def _at(array, offset):
    return array.ctypes.data + array.itemsize * offset


def assert_tiles_one_array(model) -> np.ndarray:
    """The model's parameters tile its one array in `params()` order, with
    no gap and no overlap, and writing the array moves them."""
    params = model.params()
    store = params[0].store
    assert store.ndim == 1 and store.dtype == np.float64 and store.base is None
    offset = 0
    for p in params:
        assert p.store is store and p.offset == offset
        assert p.data.base is store and _at(p.data, 0) == _at(store, offset)
        assert p.data.flags.c_contiguous
        offset += p.data.size
    assert offset == store.size
    before = store.copy()
    store[...] = np.arange(store.size)
    for p in params:
        assert np.array_equal(p.data.reshape(-1),
                              np.arange(p.offset, p.offset + p.data.size))
    store[...] = before
    return store


def assert_one_flat_gradient(model, loss_fn) -> np.ndarray:
    """One backward pass sets every gradient as the parameter's slice of
    one fresh flat gradient laid out like the store."""
    with Tape() as tape:
        loss = loss_fn(model)
    tape.backward(loss)
    params = model.params()
    store = params[0].store
    flat = params[0].grad.base
    assert flat.shape == store.shape and not np.shares_memory(flat, store)
    for p in params:
        assert p.grad.base is flat and p.grad.shape == p.data.shape
        assert _at(p.grad, 0) == _at(flat, p.offset)
    return flat


def _copy_is_its_own(original, copied):
    store = assert_tiles_one_array(copied)
    assert not np.shares_memory(store, original.params()[0].store)
    assert store.tobytes() == original.params()[0].store.tobytes()


def _target_loss(spec, rng):
    x = rng.normal(size=(6, spec.input_width))
    y = rng.integers(0, spec.classes, size=6)
    return lambda model: ops.cross_entropy(model(x), y)


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_a_target_keeps_its_parameters_in_one_array(kind, tmp_path):
    spec = TARGETS[kind]
    rng = np.random.default_rng(3)
    model = build_target(spec, 0.5, rng)
    assert_tiles_one_array(model)
    _copy_is_its_own(model, copy.deepcopy(model))
    loss_fn = _target_loss(spec, rng)
    assert_one_flat_gradient(model, loss_fn)
    sgd_step(model.params(), 0.1)
    assert_tiles_one_array(model)

    update = sparse_update(model, StrategyPair("magnitude", "random"), 0.2,
                           0.0, {}, rng)
    updated = update.apply(model)
    store = assert_tiles_one_array(updated)
    assert not np.shares_memory(store, model.params()[0].store)
    assert_one_flat_gradient(updated, loss_fn)

    save_checkpoint(tmp_path / "model.bin", updated, iteration=1, seed=0,
                    dataset={"kind": "blobs"}, attacker_mode="blackbox")
    loaded = load_checkpoint(tmp_path / "model.bin").model
    assert assert_tiles_one_array(loaded).tobytes() == store.tobytes()
    assert_one_flat_gradient(loaded, loss_fn)


@pytest.mark.parametrize("mode", MODES)
def test_an_attacker_keeps_its_parameters_in_one_array(mode):
    rng = np.random.default_rng(4)
    target = build_target(TARGETS["mlp" if mode == "blackbox" else "cnn"],
                          0.5, rng)
    attacker = build_attacker(mode, target, rng)
    store = assert_tiles_one_array(attacker)
    assert attacker.opt_state.m.shape == store.shape
    _copy_is_its_own(attacker, copy.deepcopy(attacker))

    features = rng.uniform(0.05, 1.0, size=(8, attacker.feature_length))
    flags = np.tile([1.0, 0.0], 4)
    loss_fn = lambda m: ops.binary_cross_entropy(m(features), flags)
    assert_one_flat_gradient(attacker, loss_fn)
    before = store.copy()
    adam_step(attacker.params(), attacker.opt_state, 0.01)
    assert assert_tiles_one_array(attacker) is store  # stepped in place
    assert not np.array_equal(store, before)


@pytest.mark.parametrize("build", [
    lambda rng: Linear(3, 4, rng, 0.5, masked=True),
    lambda rng: Conv2d(2, 3, 3, rng, 0.5),
    lambda rng: Sequential([Linear(3, 5, rng, 0.5), ops.relu,
                            Linear(5, 2, rng, 0.5)]),
], ids=["linear", "conv2d", "sequential"])
def test_a_standalone_layer_or_stack_keeps_its_parameters_in_one_array(build):
    layer = build(np.random.default_rng(5))
    assert_tiles_one_array(layer)
    _copy_is_its_own(layer, copy.deepcopy(layer))


def test_a_stack_takes_its_layers_into_its_array():
    rng = np.random.default_rng(6)
    first, second = Linear(3, 5, rng, 0.5), Linear(5, 2, rng, 0.5)
    values = [p.data.copy() for p in first.params() + second.params()]
    net = Sequential([first, ops.relu, second])
    store = assert_tiles_one_array(net)
    assert first.w.store is store and second.b.store is store
    assert all(np.array_equal(p.data, v)
               for p, v in zip(net.params(), values))


def _stepped(params, optimizer):
    if optimizer == "sgd":
        sgd_step(params, 0.1)
    else:
        adam_step(params, AdamState(params), 0.01)


def _backward(net, rng):
    x = rng.normal(size=(4, 3))
    with Tape() as tape:
        loss = ops.cross_entropy(ops.softmax(net(x)), np.array([0, 1, 0, 1]))
    tape.backward(loss)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("which", ["part of a model", "two models",
                                   "two passes"])
def test_a_step_refuses_what_is_not_one_model_and_one_pass(optimizer, which):
    # a step moves the whole store by the whole flat gradient, so anything
    # else would move a weight by a gradient that is not its own
    rng = np.random.default_rng(7)
    nets = [Sequential([Linear(3, 4, rng, 0.5), ops.relu,
                        Linear(4, 2, rng, 0.5)]) for _ in range(2)]
    net = nets[0]
    _backward(net, rng)
    params = net.params()
    if which == "part of a model":
        params = params[:2]
    elif which == "two models":
        _backward(nets[1], rng)
        params = params + nets[1].params()
    else:
        with Tape() as tape:  # a second pass that reaches only the head
            loss = ops.tsum(net.layers[2](Tensor(rng.normal(size=(2, 4)))))
        tape.backward(loss)
    stores = [n.params()[0].store.copy() for n in nets]
    with pytest.raises(ValueError, match="one model"):
        _stepped(params, optimizer)
    assert all(np.array_equal(n.params()[0].store, s)
               for n, s in zip(nets, stores))
