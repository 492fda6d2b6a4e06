"""Autodiff engine tests: hand-derived oracles plus central finite differences.

The finite-difference harness is the ground truth for every layer and loss:
h = 1e-5 central differences on float64, relative error < 1e-4.
"""

import copy

import numpy as np
import pytest

from sparseguard.models import Attacker, AttackerSpec
from sparseguard.numcore import (
    GraphError,
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    ops,
)
from sparseguard.numcore.layers import Conv1d, Conv2d, Linear, Sequential
from sparseguard.numcore.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    adam_step,
    sgd_step,
)

LN4 = 1.3862943611198906


def fd_max_rel_err(loss_fn, params, h=1e-5):
    """Max relative error between tape gradients and central differences.

    loss_fn() must rebuild the whole forward pass from current parameter
    values. Every entry is compared, pruned positions of masked parameters
    too: no op reads a mask, so finite differences there measure the dense
    gradient that growth ranks on.
    """
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    grads = [p.grad for p in params]

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
    x = Tensor(np.array([[1.0, 2.0]]))
    x.data[0, 1] = np.inf  # written after the constructor's check
    with pytest.raises(NonFiniteError):
        ops.relu(x)


def test_masked_linear_gradient_is_dense():
    # inactive positions must still carry gradient signal (growth contract),
    # and finite differences at a pruned position measure exactly that signal
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
    fd = (up - down) / (2 * h)
    assert abs(fd) > 0.0
    assert abs(fd - layer.w.grad[0, 0]) <= 1e-4 * abs(fd)


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


def _per_parameter_adam(params, m, v, t, learning_rate):
    """Adam as one update per parameter array, with fresh temporaries: the
    reference the flat in-place update must match bit for bit."""
    for i, p in enumerate(params):
        g = p.grad
        m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
        v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m[i] / (1.0 - ADAM_BETA1 ** t)
        v_hat = v[i] / (1.0 - ADAM_BETA2 ** t)
        update = learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if p.mask is not None:
            update = update * p.mask
        p.data -= update
        p.grad = None


def test_adam_matches_the_per_parameter_update_bitwise():
    rng = np.random.default_rng(12)
    shapes = [(5, 4), (4,), (3, 2, 2)]
    mask = (rng.random((5, 4)) < 0.5).astype(np.float64)
    init = [rng.normal(size=s) for s in shapes]
    init[0] *= mask

    def make():
        return [Parameter(init[0].copy(), mask=mask.copy()),
                Parameter(init[1].copy()), Parameter(init[2].copy())]

    flat, ref = make(), make()
    state = AdamState(flat)
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 51):
        grads = [rng.normal(scale=10.0 ** rng.integers(-3, 2), size=s)
                 for s in shapes]
        for p, q, g in zip(flat, ref, grads):
            p.grad, q.grad = g.copy(), g.copy()
        adam_step(flat, state, 0.01)
        _per_parameter_adam(ref, m, v, t, 0.01)
    for p, q in zip(flat, ref):
        assert np.array_equal(p.data, q.data)
        assert p.grad is None
    assert np.all(flat[0].data[mask == 0] == 0.0)
    assert not np.array_equal(flat[0].data, init[0])


def test_adam_rejects_parameters_that_do_not_fit_the_state():
    p = Parameter(np.zeros(3))
    state = AdamState([p])
    q = Parameter(np.zeros(4))
    q.grad = np.ones(4)
    with pytest.raises(ValueError, match="Adam state"):
        adam_step([q], state, 0.001)
    assert np.array_equal(q.data, np.zeros(4))


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


def test_fd_conv2d_same_maxpool():
    rng = np.random.default_rng(23)
    net = Sequential(
        [
            Conv2d(1, 3, 3, rng, 0.5),
            ops.relu,
            ops.maxpool2,
            ops.flatten,
            Linear(12, 3, rng, 0.5),
            ops.softmax,
        ]
    )
    x = Tensor(rng.normal(size=(2, 1, 4, 4)))
    labels = np.array([0, 2])
    err = fd_max_rel_err(lambda: ops.cross_entropy(net(x), labels), net.params())
    assert err < 1e-4


def test_fd_conv2d_same_masked():
    rng = np.random.default_rng(24)
    conv = Conv2d(2, 3, 3, rng, 0.5, masked=True)
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


# ------------------------------------------------ need-based input gradients


def test_needs_grad_is_false_for_data_and_true_for_parameters():
    assert Tensor(np.ones(3)).needs_grad is False
    assert Parameter(np.ones(3)).needs_grad is True


def test_op_output_needs_grad_iff_a_parent_does():
    data = Tensor(np.ones((2, 3)))
    param = Parameter(np.ones((2, 3)))
    with Tape():
        assert ops.relu(data).needs_grad is False
        assert ops.add(data, data).needs_grad is False
        assert ops.add(data, param).needs_grad is True
        assert ops.add(param, data).needs_grad is True
        assert ops.reshape(ops.relu(ops.mul(param, data)), (3, 2)).needs_grad
        assert ops.concat([data, data]).needs_grad is False
        assert ops.concat([data, ops.scale(param, 2.0)]).needs_grad is True
    # nothing is recorded without a tape, so no output can need a gradient
    assert ops.add(data, param).needs_grad is False


def test_deepcopy_of_attacker_keeps_needs_grad():
    spec = AttackerSpec(mode="whitebox", classes=3, grad_len=23,
                        stream_hidden=10, embed=6, fusion_hidden=8,
                        conv_filters=2, conv_kernel=5, conv_stride=3)
    clone = copy.deepcopy(Attacker(spec, np.random.default_rng(0)))
    assert clone.params()
    assert all(p.needs_grad is True for p in clone.params())


WEIGHTED_OPS = [
    (ops.linear, (4, 5), (3, 5), {}),
    (ops.conv2d, (2, 2, 5, 5), (3, 2, 3, 3), {}),
    (ops.conv1d, (2, 1, 17), (2, 1, 5), {"stride": 3}),
]


@pytest.mark.parametrize("op, x_shape, w_shape, kwargs", WEIGHTED_OPS,
                         ids=["linear", "conv2d", "conv1d"])
def test_weighted_op_skips_the_input_gradient_of_data(op, x_shape, w_shape,
                                                      kwargs):
    rng = np.random.default_rng(5)
    w = Parameter(rng.normal(size=w_shape))
    b = Parameter(rng.normal(size=w_shape[0]))
    for tracked in (False, True):
        x_data = rng.normal(size=x_shape)
        x = Parameter(x_data) if tracked else Tensor(x_data)
        with Tape() as tape:
            out = op(x, w, b, **kwargs)
        (recorded, parents, fn), = tape._nodes
        assert recorded is out and parents == (x, w, b)
        gx, gw, gb = fn(np.ones_like(out.data))
        if tracked:
            assert isinstance(gx, np.ndarray) and gx.shape == x_shape
        else:
            assert gx is None
        assert gw.shape == w_shape and gb.shape == (w_shape[0],)


# Test-local copies of the weighted ops as they were before the input
# gradient became need-based and before the ops stopped reading a mask: the
# reference for the bitwise test below.


def _reference_linear(x, w, b, mask=None):
    w_eff = w.data if mask is None else w.data * mask
    out = Tensor(x.data @ w_eff.T + b.data)

    def fn(g):
        return g @ w_eff, g.T @ x.data, g.sum(axis=0)

    ops._record(out, (x, w, b), fn)
    return out


def _reference_conv2d(x, w, b, mask=None, padding="valid"):
    n, ci, height, width = x.data.shape
    co, _, kh, kw = w.data.shape
    if padding == "same":
        ph0, pw0 = (kh - 1) // 2, (kw - 1) // 2
        ph1, pw1 = kh - 1 - ph0, kw - 1 - pw0
        xp = np.pad(x.data, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1)))
    else:
        ph0 = pw0 = 0
        xp = x.data
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n, oh, ow, ci * kh * kw)
    w_eff = (w.data if mask is None else w.data * mask).reshape(co, -1)
    out_data = np.einsum("nhwk,ok->nohw", cols, w_eff, optimize=True)
    out = Tensor(out_data + b.data[None, :, None, None])

    def fn(g):
        gb = g.sum(axis=(0, 2, 3))
        gw = np.einsum("nohw,nhwk->ok", g, cols, optimize=True).reshape(w.data.shape)
        gcols = np.einsum("nohw,ok->nhwk", g, w_eff, optimize=True)
        gcols = gcols.reshape(n, oh, ow, ci, kh, kw)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + oh, j:j + ow] += gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        gx = gxp if padding == "valid" else gxp[:, :, ph0:ph0 + height, pw0:pw0 + width]
        return gx, gw, gb

    ops._record(out, (x, w, b), fn)
    return out


def _reference_conv1d(x, w, b, stride=1):
    n, ci, length = x.data.shape
    co, _, k = w.data.shape
    ol = (length - k) // stride + 1
    starts = stride * np.arange(ol)
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=2)
    cols = windows[:, :, starts, :]
    cols = np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(n, ol, ci * k)
    w_eff = w.data.reshape(co, -1)
    out_data = np.einsum("nlk,ok->nol", cols, w_eff, optimize=True)
    out = Tensor(out_data + b.data[None, :, None])

    def fn(g):
        gb = g.sum(axis=(0, 2))
        gw = np.einsum("nol,nlk->ok", g, cols, optimize=True).reshape(w.data.shape)
        gcols = np.einsum("nol,ok->nlk", g, w_eff, optimize=True)
        gcols = gcols.reshape(n, ol, ci, k)
        gx = np.zeros_like(x.data)
        for j in range(k):
            gx[:, :, starts + j] += gcols[:, :, :, j].transpose(0, 2, 1)
        return gx, gw, gb

    ops._record(out, (x, w, b), fn)
    return out


def _differentiate(op, x_data, w_data, b_data, adjoint, tracked, **kwargs):
    """Forward output, weight and bias gradients, and the input gradient
    (None for a data-leaf input) under the loss sum(op(...) * adjoint);
    kwargs go to the op."""
    x = Parameter(x_data) if tracked else Tensor(x_data)
    w, b = Parameter(w_data), Parameter(b_data)
    with Tape() as tape:
        out = op(x, w, b, **kwargs)
        loss = ops.tsum(ops.mul(out, Tensor(adjoint)))
    tape.backward(loss)
    return out.data, w.grad, b.grad, x.grad if tracked else None


def _weighted_cases(rng):
    """Random shapes for each op: (new op, reference op, x, w, op kwargs,
    reference kwargs). A masked case prunes the weight by the topology rule
    (a mask-0 weight holds ±0) and passes the mask to the reference only."""
    for _ in range(4):
        n, ci, co = rng.integers(1, 5, size=3)
        n_in = int(rng.integers(1, 40))
        masked = rng.random() < 0.5
        mask = (rng.random((co, n_in)) < 0.6).astype(np.float64) if masked else None
        yield (ops.linear, _reference_linear, (n, n_in), (co, n_in), {},
               {"mask": mask})
        for k in (1, 2, 3):
            height, width = rng.integers(k, k + 6, size=2)
            w_shape = (co, ci, k, k)
            mask = ((rng.random(w_shape) < 0.6).astype(np.float64)
                    if masked else None)
            yield (ops.conv2d, _reference_conv2d, (n, ci, height, width),
                   w_shape, {}, {"mask": mask, "padding": "same"})
        for stride in (1, 3):
            k = int(rng.integers(1, 6))
            length = int(rng.integers(k, k + 30))
            yield (ops.conv1d, _reference_conv1d, (n, ci, length), (co, ci, k),
                   {"stride": stride}, {"stride": stride})


def test_weighted_ops_match_the_reference_bitwise():
    rng = np.random.default_rng(31)
    for op, reference, x_shape, w_shape, kwargs, ref_kwargs in _weighted_cases(rng):
        x_data = rng.normal(size=x_shape)
        w_data = rng.normal(size=w_shape)
        mask = ref_kwargs.get("mask")
        if mask is not None:
            w_data *= mask
        b_data = rng.normal(size=w_shape[0])
        out_shape = reference(Tensor(x_data), Tensor(w_data), Tensor(b_data),
                              **ref_kwargs).data.shape
        adjoint = rng.normal(size=out_shape)
        for tracked in (False, True):
            got = _differentiate(op, x_data, w_data, b_data, adjoint,
                                 tracked, **kwargs)
            want = _differentiate(reference, x_data, w_data, b_data, adjoint,
                                  tracked, **ref_kwargs)
            labels = ("output", "w.grad", "b.grad", "input gradient")
            for label, a, e in zip(labels, got, want):
                what = (f"{op.__name__} {x_shape} {kwargs} "
                        f"masked={mask is not None} tracked={tracked}: {label}")
                if e is None:
                    assert a is None, what
                    continue
                assert np.array_equal(a, e), what
                assert a.strides == e.strides, what


# Test-local copy of `maxpool2` as it was before it read its input through
# strided views: a contiguous (n, c, oh, ow, 4) copy, `argmax` and
# `take_along_axis`. The reference for the bitwise test below.


def _reference_maxpool2(x):
    n, c, height, width = x.data.shape
    oh, ow = height // 2, width // 2
    xr = x.data.reshape(n, c, oh, 2, ow, 2).transpose(0, 1, 2, 4, 3, 5)
    xr = np.ascontiguousarray(xr).reshape(n, c, oh, ow, 4)
    idx = xr.argmax(axis=-1)
    out = Tensor(np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0])

    def fn(g):
        gr = np.zeros((n, c, oh, ow, 4))
        np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
        gx = gr.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return (np.ascontiguousarray(gx).reshape(n, c, height, width),)

    ops._record(out, (x,), fn)
    return out


# An (n, c, h, w) array laid out in memory as C order, as NHWC, or as the
# (c, n, h, w) order that conv2d's einsum (and the relu after it) produces.
LAYOUTS = {
    "nchw": lambda a: np.ascontiguousarray(a),
    "nhwc": lambda a: np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
    "cnhw": lambda a: np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
}


def _tied_values(rng, shape):
    """Few distinct values, so most windows tie, with zeros of both signs:
    many windows hold both -0.0 and 0.0, in either order."""
    a = rng.integers(-2, 3, size=shape).astype(np.float64)
    a[(a == 0) & (rng.random(shape) < 0.5)] = -0.0
    return a


def _pool(op, data, tracked, adjoint):
    """The op's output and, on a tape, the input gradient its closure returns
    for `adjoint` (None off the tape)."""
    x = Parameter(data) if tracked else Tensor(data)
    if not tracked:
        return op(x).data, None
    with Tape() as tape:
        out = op(x)
    (recorded, parents, fn), = tape._nodes
    assert recorded is out and parents == (x,)
    (gx,) = fn(adjoint)
    return out.data, gx


def test_maxpool2_matches_the_reference_bitwise():
    rng = np.random.default_rng(41)
    shapes = [(1, 1, 2, 2), (1, 3, 4, 6), (5, 1, 6, 4), (2, 2, 2, 2),
              (150, 8, 16, 16)]
    shapes += [tuple(int(v) for v in rng.integers(1, 5, size=2))
               + tuple(2 * int(v) for v in rng.integers(1, 5, size=2))
               for _ in range(20)]
    zeros_of_both_signs = 0
    for shape in shapes:
        values = _tied_values(rng, shape)
        windows = values.reshape(shape[0], shape[1], shape[2] // 2, 2,
                                 shape[3] // 2, 2)
        negative_zero = (windows == 0) & np.signbit(windows)
        positive_zero = (windows == 0) & ~negative_zero
        zeros_of_both_signs += int((positive_zero.any(axis=(3, 5))
                                    & negative_zero.any(axis=(3, 5))).sum())
        pooled = (shape[0], shape[1], shape[2] // 2, shape[3] // 2)
        adjoint = _tied_values(rng, pooled)
        # the adjoint's layout differs from the input's in every case
        for x_layout, g_layout in zip(LAYOUTS, ["nhwc", "cnhw", "nchw"]):
            data = LAYOUTS[x_layout](values)
            g = LAYOUTS[g_layout](adjoint)
            for tracked in (False, True):
                got = _pool(ops.maxpool2, data, tracked, g)
                want = _pool(_reference_maxpool2, data, tracked, g)
                for label, a, e in zip(("output", "input gradient"), got, want):
                    what = (f"{shape} {x_layout} input, {g_layout} adjoint, "
                            f"tracked={tracked}: {label}")
                    if e is None:
                        assert a is None, what
                        continue
                    assert a.tobytes() == e.tobytes(), what
                    assert a.strides == e.strides, what
    assert zeros_of_both_signs > 100


def test_maxpool2_keeps_a_nan_only_when_first_in_its_window():
    # A Tensor is checked finite when it is built, so a NaN can reach maxpool2
    # only if it is written into `.data` afterwards. The old op's `argmax`
    # picked such a NaN and its output check raised. The strided-view op
    # compares with `>`, which a NaN never wins: it is kept (and the output
    # check raises) only when it is the first element of its window;
    # elsewhere it is dropped and the window's maximum of the rest comes out.
    x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    x.data[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        ops.maxpool2(x)
    x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    x.data[0, 0, 0, 1] = np.nan
    assert ops.maxpool2(x).data.tolist() == [[[[3.0]]]]


def _inject(x, value):
    """Identity whose backward hands `value` upstream as every adjoint
    entry: a non-finite adjoint fed into the op that produced `x`."""
    out = Tensor(x.data.copy())
    ops._record(out, (x,), lambda g: (np.full(x.data.shape, value),))
    return out


def _graph_under(op_name, w, b):
    """A small graph whose last op is `op_name`; every path back reaches the
    Parameters w (3, 4) and b (3,)."""
    x = Tensor(np.linspace(-1.0, 1.0, 8).reshape(2, 4))
    h = ops.linear(x, w, b)                                   # (2, 3)
    if op_name == "linear":
        return h
    if op_name == "conv2d":
        image = Tensor(np.linspace(-1.0, 1.0, 32).reshape(2, 1, 4, 4))
        return ops.conv2d(image, ops.reshape(w, (3, 1, 2, 2)), b)
    if op_name == "conv1d":
        signal = Tensor(np.linspace(-1.0, 1.0, 14).reshape(2, 1, 7))
        return ops.conv1d(signal, ops.reshape(w, (3, 1, 4)), b, stride=2)
    if op_name == "maxpool2":
        image = Tensor(np.linspace(-1.0, 1.0, 32).reshape(2, 1, 4, 4))
        return ops.maxpool2(ops.conv2d(image, ops.reshape(w, (3, 1, 2, 2)), b))
    if op_name in ("relu", "sigmoid", "softmax"):
        return getattr(ops, op_name)(h)
    if op_name == "concat":
        return ops.concat([h, ops.scale(h, 2.0)])
    if op_name == "reshape":
        return ops.reshape(h, (3, 2))
    if op_name in ("add", "mul"):
        return getattr(ops, op_name)(h, ops.sigmoid(h))
    if op_name == "scale":
        return ops.scale(h, 0.5)
    if op_name == "tsum":
        return ops.tsum(h)
    if op_name == "cross_entropy":
        return ops.cross_entropy(ops.softmax(h), np.array([0, 2]))
    if op_name == "binary_cross_entropy":
        p = ops.sigmoid(ops.reshape(h, (6,)))
        return ops.binary_cross_entropy(p, np.array([0, 1, 1, 0, 1, 0]))
    if op_name == "row_entropy_mean":
        return ops.row_entropy_mean(ops.softmax(h))
    raise AssertionError(op_name)


OPS_WITH_A_BACKWARD = ["linear", "conv2d", "conv1d", "relu", "sigmoid",
                       "softmax", "concat", "reshape", "maxpool2", "add",
                       "mul", "scale", "tsum", "cross_entropy",
                       "binary_cross_entropy", "row_entropy_mean"]


# The injected values make numpy warn inside the backward closures; the test
# is about the error the engine raises, so the warnings are not errors here.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("op_name", OPS_WITH_A_BACKWARD)
def test_non_finite_adjoint_reaches_the_gradient_check(op_name, value,
                                                       optimizer):
    # Intermediate adjoints are not checked; the non-finite adjoint fed into
    # the op must still reach a Parameter gradient and fail there. The failed
    # pass sets no gradient, so a following optimizer step refuses to run
    # and no parameter moves.
    w = Parameter(np.linspace(-0.5, 0.5, 12).reshape(3, 4))
    b = Parameter(np.array([0.1, -0.2, 0.3]))
    before = [w.data.copy(), b.data.copy()]
    state = AdamState([w, b])
    with Tape() as tape:
        y = _inject(_graph_under(op_name, w, b), value)
        loss = y if y.data.size == 1 else ops.tsum(y)
    with pytest.raises(NonFiniteError, match="non-finite values in gradient"):
        tape.backward(loss)
    assert w.grad is None and b.grad is None
    with pytest.raises(TypeError):
        if optimizer == "sgd":
            sgd_step([w, b], 0.1)
        else:
            adam_step([w, b], state, 0.001)
    assert state.t == 0
    assert np.array_equal(w.data, before[0]) and np.array_equal(b.data, before[1])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_relu_on_a_tape_still_raises_on_a_negative_infinite_input():
    # relu maps -inf to 0, so only the check on linear's output, made when
    # the op runs, can see this overflow; a check deferred to the loss or the
    # gradients would pass it.
    x = Tensor(np.array([[1e308, 1e308]]))
    w = Parameter(np.array([[-1e308, -1e308]]))
    b = Parameter(np.zeros(1))
    assert np.maximum(x.data @ w.data.T, 0.0).tolist() == [[0.0]]
    with pytest.raises(NonFiniteError, match="non-finite values in tensor data"):
        with Tape():
            ops.relu(ops.linear(x, w, b))
