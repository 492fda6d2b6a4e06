"""Finite-difference gate over every layer and loss the framework trains.

Each named case builds a tiny fixed computation, backpropagates once, and
compares every analytic partial derivative against a central difference.
Pruned positions of masked weights are compared too, so the gate checks the
dense gradient that growth ranks on. The CLI `gradcheck` subcommand runs the
whole registry and fails loudly if any relative error exceeds TOLERANCE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .models import Attacker, AttackerSpec
from .numcore import Tape, Tensor, share_storage
from .numcore import ops
from .numcore.layers import Conv1d, Conv2d, Linear

TOLERANCE = 1e-4
STEP = 1e-5


@dataclass
class CaseResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def check_case(name: str, builder, rng: np.random.Generator) -> CaseResult:
    """Run one named case: analytic gradients vs central differences."""
    params, loss_fn = builder(rng)
    values = share_storage(params)
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = params[0].grad.base
    worst = 0.0
    for i, orig in enumerate(values.tolist()):
        values[i] = orig + STEP
        hi = float(loss_fn().data)
        values[i] = orig - STEP
        lo = float(loss_fn().data)
        values[i] = orig
        fd = (hi - lo) / (2.0 * STEP)
        err = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), 1e-6)
        worst = max(worst, err)
    return CaseResult(name, worst)


def _labels(rng, n, classes):
    return rng.integers(0, classes, size=n)


def _case_linear_masked(rng):
    x = rng.normal(size=(4, 5))
    layer = Linear(5, 3, rng, weight_scale=0.5, masked=True)
    layer.w.mask[:] = (rng.uniform(size=layer.w.mask.shape) < 0.6)
    if not layer.w.mask.any():
        layer.w.mask[0, 0] = 1.0
    layer.w.data *= layer.w.mask  # pruned weights hold 0
    y = _labels(rng, 4, 3)
    loss = lambda: ops.cross_entropy(ops.softmax(layer(Tensor(x))), y)
    return [layer.w, layer.b], loss


def _case_conv2d(rng):
    x = rng.normal(size=(2, 2, 6, 6))
    conv = Conv2d(2, 3, 3, rng, weight_scale=0.5)
    loss = lambda: ops.tsum(ops.relu(conv(Tensor(x))))
    return [conv.w, conv.b], loss


def _case_conv2d_stacked(rng):
    # the second conv's input needs a gradient, so its input-adjoint path runs;
    # the first one's even kernel pads one more row and column after than before
    x = rng.normal(size=(2, 2, 5, 5))
    first = Conv2d(2, 3, 2, rng, weight_scale=0.5)
    second = Conv2d(3, 2, 3, rng, weight_scale=0.5)
    loss = lambda: ops.tsum(ops.relu(second(ops.relu(first(Tensor(x))))))
    return [first.w, first.b, second.w, second.b], loss


def _case_conv1d_fed(rng):
    # a linear layer feeds the conv1d, so its input-adjoint path runs
    x = rng.normal(size=(3, 4))
    layer = Linear(4, 17, rng, weight_scale=0.5)
    conv = Conv1d(1, 2, 5, rng, weight_scale=0.5, stride=3)
    loss = lambda: ops.tsum(ops.relu(conv(ops.reshape(layer(Tensor(x)),
                                                      (3, 1, 17)))))
    return [layer.w, layer.b, conv.w, conv.b], loss


def _case_conv1d_strided(rng):
    x = rng.normal(size=(3, 1, 17))
    conv = Conv1d(1, 2, 5, rng, weight_scale=0.5, stride=3)
    loss = lambda: ops.tsum(ops.relu(conv(Tensor(x))))
    return [conv.w, conv.b], loss


def _case_maxpool(rng):
    x = rng.normal(size=(2, 2, 4, 4))
    conv = Conv2d(2, 2, 3, rng, weight_scale=0.5)
    loss = lambda: ops.tsum(ops.maxpool2(conv(Tensor(x))))
    return [conv.w, conv.b], loss


def _case_sigmoid_bce(rng):
    x = rng.normal(size=(6, 4))
    layer = Linear(4, 1, rng, weight_scale=0.5)
    targets = rng.integers(0, 2, size=6).astype(np.float64)
    loss = lambda: ops.binary_cross_entropy(
        ops.sigmoid(ops.reshape(layer(Tensor(x)), (6,))), targets)
    return [layer.w, layer.b], loss


def _case_fusion_concat(rng):
    x1 = rng.normal(size=(3, 4))
    x2 = rng.normal(size=(3, 5))
    a = Linear(4, 6, rng, weight_scale=0.5)
    b = Linear(5, 6, rng, weight_scale=0.5)
    head = Linear(12, 2, rng, weight_scale=0.5)
    y = _labels(rng, 3, 2)

    def loss():
        h = ops.concat([ops.relu(a(Tensor(x1))), ops.relu(b(Tensor(x2)))],
                       axis=1)
        return ops.cross_entropy(ops.softmax(head(h)), y)

    return [a.w, a.b, b.w, b.b, head.w, head.b], loss


def _entropy_loss_case(variant):
    def build(rng):
        x = rng.normal(size=(5, 4))
        layer = Linear(4, 3, rng, weight_scale=1.0)
        y = _labels(rng, 5, 3)
        loss = lambda: metrics.training_loss(
            ops.softmax(layer(Tensor(x))), y, variant, 0.1)
        return [layer.w, layer.b], loss
    return build


def _rescale(attacker, rng):
    # production init is near zero; for finite differences that parks ReLU
    # pre-activations inside the probe step, so redraw at O(1) magnitudes
    for p in attacker.params():
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    return attacker


def _case_blackbox_attacker(rng):
    spec = AttackerSpec(mode="blackbox", classes=3, stream_hidden=10,
                        embed=6, fusion_hidden=8)
    attacker = _rescale(Attacker(spec, rng), rng)
    feats = rng.uniform(0.05, 1.0, size=(6, 6))
    feats[:, :3] /= feats[:, :3].sum(axis=1, keepdims=True)
    targets = rng.integers(0, 2, size=6).astype(np.float64)
    loss = lambda: ops.binary_cross_entropy(attacker(feats), targets)
    return attacker.params(), loss


def _case_whitebox_attacker(rng):
    spec = AttackerSpec(mode="whitebox", classes=3, grad_len=23,
                        stream_hidden=10, embed=6, fusion_hidden=8,
                        conv_filters=2, conv_kernel=5, conv_stride=3)
    attacker = _rescale(Attacker(spec, rng), rng)
    feats = rng.normal(size=(4, 3 + 3 + 1 + 23))
    probs = rng.uniform(0.05, 1.0, size=(4, 3))
    feats[:, :3] = probs / probs.sum(axis=1, keepdims=True)
    targets = rng.integers(0, 2, size=4).astype(np.float64)
    loss = lambda: ops.binary_cross_entropy(attacker(feats), targets)
    return attacker.params(), loss


CASES = {
    "linear-masked": _case_linear_masked,
    "conv2d-same": _case_conv2d,
    "conv2d-stacked": _case_conv2d_stacked,
    "conv1d-strided": _case_conv1d_strided,
    "conv1d-fed": _case_conv1d_fed,
    "maxpool": _case_maxpool,
    "sigmoid-bce": _case_sigmoid_bce,
    "fusion-concat": _case_fusion_concat,
    "loss-plain": _entropy_loss_case("none"),
    "loss-re1": _entropy_loss_case("re1"),
    "loss-re2": _entropy_loss_case("re2"),
    "blackbox-attacker": _case_blackbox_attacker,
    "whitebox-attacker": _case_whitebox_attacker,
}


def run_cases(names=None, seed: int = 0, extra=None) -> list[CaseResult]:
    """Run the selected (default: all) cases and return per-case results."""
    registry = dict(CASES)
    if extra:
        registry.update(extra)
    if names is None:
        names = list(registry)
    if not names:
        raise ValueError("no gradient cases selected; refusing a vacuous pass")
    results = []
    for name in names:
        if name not in registry:
            raise ValueError(f"unknown gradient case: {name!r}")
        rng = np.random.default_rng(seed)
        results.append(check_case(name, registry[name], rng))
    return results


def worst_case(results: list[CaseResult]) -> CaseResult:
    if not results:
        raise ValueError("no gradient results to summarize")
    return max(results, key=lambda r: r.max_rel_err)
