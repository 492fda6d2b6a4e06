"""Autodiff engine tests: hand-derived oracles plus central finite differences.

The finite-difference harness is the ground truth for every layer and loss:
h = 1e-5 central differences on float64, relative error < 1e-4.
"""

import numpy as np
import pytest

from sparseguard.numcore import (
    GraphError,
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    ops,
)
from sparseguard.numcore.layers import Conv1d, Conv2d, Linear, Sequential
from sparseguard.numcore.optim import AdamState, adam_step, sgd_step

LN4 = 1.3862943611198906


def fd_max_rel_err(loss_fn, params, h=1e-5):
    """Max relative error between tape gradients and central differences.

    loss_fn() must rebuild the whole forward pass from current parameter
    values. Masked parameters are compared at active positions only: the tape
    reports dense pre-mask gradients by contract, while finite differences
    can only see what passes the mask.
    """
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    grads = []
    for p in params:
        g = p.grad.copy()
        if p.mask is not None:
            g = g * p.mask
        grads.append(g)

    def value():
        return float(loss_fn().data)

    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = value()
            flat[i] = keep - h
            down = value()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-6)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


# --------------------------------------------------------------- primitives


def test_softmax_symmetry_and_arithmetic():
    out = ops.softmax(Tensor([[0.0, 0.0], [np.log(3.0), 0.0]]))
    np.testing.assert_allclose(out.data[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(out.data[1], [0.75, 0.25], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ops.softmax(Tensor(rng.normal(0, 5, (50, 7))))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_cross_entropy_frozen_values():
    perfect = ops.cross_entropy(Tensor([[1.0, 0.0]]), np.array([0]))
    assert float(perfect.data) == 0.0
    uniform = ops.cross_entropy(Tensor([[0.25] * 4]), np.array([2]))
    assert float(uniform.data) == pytest.approx(LN4, abs=1e-12)
    quarter = ops.cross_entropy(Tensor([[0.75, 0.25]]), np.array([1]))
    assert float(quarter.data) == pytest.approx(LN4, abs=1e-12)


def test_cross_entropy_rejects_non_distribution():
    with pytest.raises(ValueError):
        ops.cross_entropy(Tensor([[0.9, 0.3]]), np.array([0]))


def test_cross_entropy_gradient_zero_at_confident_correct():
    # softmax saturated on the true class is the stationary point of CE:
    # d loss / d logits == p - onehot == ~0.
    w = Parameter(np.array([[60.0, -60.0]]))
    with Tape() as tape:
        loss = ops.cross_entropy(ops.softmax(w), np.array([0]))
    tape.backward(loss)
    assert np.linalg.norm(w.grad) < 1e-12


def test_square_via_mul_accumulates_both_paths():
    w = Parameter(np.array([3.0]))
    with Tape() as tape:
        loss = ops.tsum(ops.mul(w, w))
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, [6.0], atol=1e-12)


def test_parameter_grad_resets_between_tapes():
    w = Parameter(np.array([3.0]))
    for _ in range(2):
        with Tape() as tape:
            loss = ops.tsum(ops.mul(w, w))
        tape.backward(loss)
    np.testing.assert_allclose(w.grad, [6.0], atol=1e-12)


def test_tape_consumed_twice_raises():
    w = Parameter(np.array([1.0]))
    with Tape() as tape:
        loss = ops.tsum(ops.mul(w, w))
    tape.backward(loss)
    with pytest.raises(GraphError):
        tape.backward(loss)


def test_backward_on_empty_tape_raises():
    with pytest.raises(GraphError):
        Tape().backward(Tensor(np.float64(1.0)))


def test_non_finite_input_raises():
    with pytest.raises(NonFiniteError):
        ops.relu(Tensor(np.array([[1.0, np.inf]]), check=False))


def test_zero_mask_linear_returns_bias():
    rng = np.random.default_rng(3)
    layer = Linear(4, 3, rng, weight_scale=1.0, masked=True)
    layer.mask[...] = 0.0
    layer.w.data[...] = rng.normal(size=layer.w.data.shape)  # mask must win
    layer.b.data[...] = [1.0, -2.0, 0.5]
    out = layer(Tensor(rng.normal(size=(5, 4))))
    np.testing.assert_allclose(out.data, np.tile([1.0, -2.0, 0.5], (5, 1)), atol=1e-12)


def test_masked_linear_gradient_is_dense():
    # inactive positions must still carry gradient signal (growth contract),
    # while finite differences through the mask see exactly zero there.
    rng = np.random.default_rng(4)
    layer = Linear(5, 4, rng, weight_scale=0.7, masked=True)
    layer.mask[...] = (rng.random(layer.mask.shape) < 0.5).astype(np.float64)
    layer.mask[0, 0] = 0.0
    layer.w.data *= layer.mask
    x = Tensor(rng.normal(size=(6, 5)))
    labels = np.array([0, 1, 2, 3, 0, 1])
    with Tape() as tape:
        loss = ops.cross_entropy(ops.softmax(layer(x)), labels)
    tape.backward(loss)
    inactive = layer.mask == 0.0
    assert np.abs(layer.w.grad[inactive]).max() > 0.0

    def loss_fn():
        return ops.cross_entropy(ops.softmax(layer(x)), labels)

    keep = layer.w.data[0, 0]
    h = 1e-5
    layer.w.data[0, 0] = keep + h
    up = float(loss_fn().data)
    layer.w.data[0, 0] = keep - h
    down = float(loss_fn().data)
    layer.w.data[0, 0] = keep
    assert abs(up - down) / (2 * h) < 1e-12


# --------------------------------------------------------------- optimizers


def test_sgd_step_frozen_value():
    p = Parameter(np.array([1.0]))
    p.grad = np.array([0.5])
    sgd_step([p], 0.1)
    np.testing.assert_allclose(p.data, [0.95], atol=1e-15)
    assert p.grad is None


def test_sgd_zero_lr_is_identity():
    p = Parameter(np.array([1.0, -2.0]))
    p.grad = np.array([3.0, 4.0])
    sgd_step([p], 0.0)
    np.testing.assert_allclose(p.data, [1.0, -2.0])


def test_sgd_respects_mask():
    mask = np.array([1.0, 0.0])
    p = Parameter(np.array([0.5, 0.0]), mask=mask)
    p.grad = np.array([1.0, 7.0])
    sgd_step([p], 0.1)
    np.testing.assert_allclose(p.data, [0.4, 0.0])
    assert p.data[1] == 0.0


def test_adam_first_step():
    p = Parameter(np.array([0.0]))
    state = AdamState([p])
    p.grad = np.array([1.0])
    adam_step([p], state, 0.001)
    assert abs(float(p.data[0]) + 0.001) < 1e-6


def test_adam_two_steps_hand_recurrence():
    # m-hat and v-hat are exactly 1 on both steps for constant unit gradient,
    # so each step moves by lr/(1 + eps): w2 = -2*0.001/(1+1e-8).
    p = Parameter(np.array([0.0]))
    state = AdamState([p])
    for _ in range(2):
        p.grad = np.array([1.0])
        adam_step([p], state, 0.001)
    assert -0.002 <= float(p.data[0]) <= -0.0019


def test_adam_zero_gradient_is_identity():
    p = Parameter(np.array([5.0]))
    state = AdamState([p])
    p.grad = np.array([0.0])
    adam_step([p], state, 0.001)
    np.testing.assert_allclose(p.data, [5.0])


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_step_consumes_the_gradient(optimizer):
    w = Parameter(np.array([3.0]))
    state = AdamState([w])

    def step():
        if optimizer == "sgd":
            sgd_step([w], 0.1)
        else:
            adam_step([w], state, 0.001)

    with Tape() as tape:
        loss = ops.tsum(ops.mul(w, w))
    tape.backward(loss)
    step()
    assert w.grad is None
    with pytest.raises(TypeError):
        step()  # no backward since the last step: nothing to consume


def test_masked_weight_closure_many_steps():
    rng = np.random.default_rng(11)
    layer = Linear(6, 5, rng, weight_scale=0.5, masked=True)
    layer.mask[...] = (rng.random(layer.mask.shape) < 0.4).astype(np.float64)
    layer.w.data *= layer.mask
    x = Tensor(rng.normal(size=(8, 6)))
    labels = rng.integers(0, 5, size=8)
    for _ in range(25):
        with Tape() as tape:
            loss = ops.cross_entropy(ops.softmax(layer(x)), labels)
        tape.backward(loss)
        sgd_step(layer.params(), 0.05)
    assert np.all(layer.w.data[layer.mask == 0.0] == 0.0)


def test_training_step_determinism_bitwise():
    def run():
        rng = np.random.default_rng(7)
        net = Sequential(
            [Linear(5, 8, rng, 0.5), ops.relu, Linear(8, 3, rng, 0.5), ops.softmax]
        )
        x = Tensor(np.random.default_rng(8).normal(size=(4, 5)))
        labels = np.array([0, 1, 2, 0])
        for _ in range(3):
            with Tape() as tape:
                loss = ops.cross_entropy(net(x), labels)
            tape.backward(loss)
            sgd_step(net.params(), 0.1)
        return [p.data.tobytes() for p in net.params()]

    assert run() == run()


# ------------------------------------------------------- finite differences


def test_fd_mlp_cross_entropy():
    rng = np.random.default_rng(21)
    net = Sequential([Linear(5, 7, rng, 0.6), ops.relu, Linear(7, 3, rng, 0.6), ops.softmax])
    x = Tensor(rng.normal(size=(4, 5)))
    labels = np.array([0, 2, 1, 2])
    err = fd_max_rel_err(lambda: ops.cross_entropy(net(x), labels), net.params())
    assert err < 1e-4


def test_fd_masked_mlp():
    rng = np.random.default_rng(22)
    net = Sequential(
        [Linear(6, 9, rng, 0.6, masked=True), ops.relu, Linear(9, 4, rng, 0.6, masked=True), ops.softmax]
    )
    for layer in (net.layers[0], net.layers[2]):
        layer.mask[...] = (rng.random(layer.mask.shape) < 0.5).astype(np.float64)
        layer.w.data *= layer.mask
    x = Tensor(rng.normal(size=(5, 6)))
    labels = np.array([0, 1, 2, 3, 1])
    err = fd_max_rel_err(lambda: ops.cross_entropy(net(x), labels), net.params())
    assert err < 1e-4


def test_fd_conv2d_valid_maxpool():
    rng = np.random.default_rng(23)
    net = Sequential(
        [
            Conv2d(1, 3, 3, rng, 0.5, padding="valid"),
            ops.relu,
            ops.maxpool2,
            ops.flatten,
            Linear(12, 3, rng, 0.5),
            ops.softmax,
        ]
    )
    x = Tensor(rng.normal(size=(2, 1, 6, 6)))
    labels = np.array([0, 2])
    err = fd_max_rel_err(lambda: ops.cross_entropy(net(x), labels), net.params())
    assert err < 1e-4


def test_fd_conv2d_same_masked():
    rng = np.random.default_rng(24)
    conv = Conv2d(2, 3, 3, rng, 0.5, padding="same", masked=True)
    conv.mask[...] = (rng.random(conv.mask.shape) < 0.6).astype(np.float64)
    conv.w.data *= conv.mask
    net = Sequential([conv, ops.relu, ops.flatten, Linear(48, 2, rng, 0.5), ops.softmax])
    x = Tensor(rng.normal(size=(2, 2, 4, 4)))
    labels = np.array([0, 1])
    err = fd_max_rel_err(lambda: ops.cross_entropy(net(x), labels), net.params())
    assert err < 1e-4


def test_fd_conv1d_strided_sigmoid_bce():
    # mirrors the whitebox gradient stream: conv1d k=5 s=3 then dense.
    rng = np.random.default_rng(25)
    conv = Conv1d(1, 4, 5, rng, 0.5, stride=3)
    length_out = (23 - 5) // 3 + 1
    net = Sequential([conv, ops.relu, ops.flatten, Linear(4 * length_out, 1, rng, 0.5)])
    x = Tensor(rng.normal(size=(3, 1, 23)))
    targets = np.array([1.0, 0.0, 1.0])

    def loss_fn():
        logits = net(x)
        p = ops.sigmoid(ops.reshape(logits, (3,)))
        return ops.binary_cross_entropy(p, targets)

    err = fd_max_rel_err(loss_fn, net.params())
    assert err < 1e-4


def test_fd_row_entropy_mean():
    rng = np.random.default_rng(26)
    net = Sequential([Linear(4, 6, rng, 0.8), ops.relu, Linear(6, 3, rng, 0.8), ops.softmax])
    x = Tensor(rng.normal(size=(5, 4)))

    def loss_fn():
        return ops.row_entropy_mean(net(x), rows=np.array([0, 2, 3]))

    err = fd_max_rel_err(loss_fn, net.params())
    assert err < 1e-4


def test_fd_concat_fusion():
    rng = np.random.default_rng(27)
    stream_a = Sequential([Linear(3, 5, rng, 0.5), ops.relu])
    stream_b = Sequential([Linear(4, 5, rng, 0.5), ops.relu])
    head = Sequential([Linear(10, 1, rng, 0.5)])
    xa = Tensor(rng.normal(size=(4, 3)))
    xb = Tensor(rng.normal(size=(4, 4)))
    targets = np.array([0.0, 1.0, 1.0, 0.0])

    def loss_fn():
        h = ops.concat([stream_a(xa), stream_b(xb)], axis=1)
        p = ops.sigmoid(ops.reshape(head(h), (4,)))
        return ops.binary_cross_entropy(p, targets)

    params = stream_a.params() + stream_b.params() + head.params()
    err = fd_max_rel_err(loss_fn, params)
    assert err < 1e-4
