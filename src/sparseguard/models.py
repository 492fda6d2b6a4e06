"""Model constructors: sparse classifier targets (MLP / small CNN) and the
membership attacker, whose black-box mode fuses two feature streams and whose
white-box mode fuses four.

Attacker feature layout (one row per example):
  blackbox: [posteriors C | one-hot label C]
  whitebox: [posteriors C | one-hot label C | loss 1 | last-layer gradient G]
The white-box probability stream ranks its posterior slice descending; the
black-box stream consumes posteriors as-is.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .document import at_least, check_ranges, one_of
from .numcore import Tensor, ops
from .numcore.layers import Conv1d, Conv2d, Linear, Reshape, Sequential
from .numcore.optim import AdamState
from .sparse import er_initialize

ATTACKER_INIT_STD = 0.01
MODES = ("blackbox", "whitebox")  # attacker modes


@dataclass(frozen=True)
class TargetSpec:
    kind: str = one_of(("mlp", "cnn"))
    input_shape: tuple[int, ...] = at_least(1)  # (d,) mlp, (c, h, w) cnn
    classes: int = at_least(2)
    hidden: tuple[int, ...] = at_least(1, default=(300, 100))  # mlp widths
    channels: tuple[int, ...] = at_least(1, default=(16, 32))  # cnn stages
    kernel: int = at_least(1, default=3)

    def __post_init__(self):
        for name in ("input_shape", "hidden", "channels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_ranges(self, "target ")
        scale = 2 ** len(self.channels)  # one 2x2 max-pool per cnn stage
        if self.kind == "cnn" and (len(self.input_shape) != 3 or any(
                d % scale for d in self.input_shape[1:])):
            raise ValueError(f"target field input_shape must be [c, h, w] "
                             f"with h and w divisible by 2 ** len(channels) "
                             f"= {scale}, got {list(self.input_shape)}")

    @property
    def input_width(self) -> int:
        return int(np.prod(self.input_shape))


class SparseModel(Sequential):
    """A feed-forward classifier whose weight layers carry binary masks."""

    def __init__(self, spec: TargetSpec, layers: list):
        super().__init__(layers)
        self.spec = spec
        self.omega = 1.0
        self.epsilon = 0.0

    def masked_layers(self):
        return [l for l in self.layers if getattr(l, "mask", None) is not None]

    def last_weight_layer(self) -> Linear:
        for layer in reversed(self.layers):
            if isinstance(layer, Linear):
                return layer
        raise ValueError("model has no linear layer")

    def penultimate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (posteriors, input activation of the final linear layer)."""
        head = self.layers.index(self.last_weight_layer())
        hidden = Sequential(self.layers[:head])(x)
        return Sequential(self.layers[head:])(hidden).data, hidden.data

    def clone(self) -> "SparseModel":
        return copy.deepcopy(self)


def build_target(spec: TargetSpec, omega: float, rng: np.random.Generator) -> SparseModel:
    """Construct the layer stack and ER-initialize its masks to omega."""
    layers: list = []
    if spec.kind == "mlp":
        widths = (spec.input_width,) + spec.hidden + (spec.classes,)
        for n_in, n_out in zip(widths, widths[1:]):
            layers.append(Linear(n_in, n_out, rng, math.sqrt(2.0 / n_in), masked=True))
            layers.append(ops.relu)
        layers.pop()  # no ReLU before the softmax head
        layers.append(ops.softmax)
    else:
        c, h, w = spec.input_shape
        layers.append(Reshape(spec.input_shape))
        c_prev = c
        for c_out in spec.channels:
            fan_in = c_prev * spec.kernel * spec.kernel
            layers.append(Conv2d(c_prev, c_out, spec.kernel, rng,
                                 math.sqrt(2.0 / fan_in), masked=True))
            layers.append(ops.relu)
            layers.append(ops.maxpool2)
            c_prev = c_out
        scale = 2 ** len(spec.channels)
        flat = c_prev * (h // scale) * (w // scale)
        layers.append(ops.flatten)
        layers.append(Linear(flat, spec.classes, rng, math.sqrt(2.0 / flat), masked=True))
        layers.append(ops.softmax)

    model = SparseModel(spec, layers)
    er_initialize(model, omega, rng)
    return model


def posteriors(model, x: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Batched inference outside any tape, for any model that maps an array
    to a Tensor (targets and attackers alike)."""
    parts = [model(x[i:i + chunk]).data for i in range(0, len(x), chunk)]
    return np.concatenate(parts, axis=0)


def last_layer_gradient_length(model: SparseModel) -> int:
    head = model.last_weight_layer()
    return head.w.data.size + head.b.data.size


# ------------------------------------------------------------------ attackers


@dataclass(frozen=True)
class AttackerSpec:
    mode: str                      # one of MODES
    classes: int
    grad_len: int = 0              # whitebox only: flattened last-layer gradient
    stream_hidden: int = 128
    embed: int = 64
    fusion_hidden: int = 256
    conv_filters: int = 8
    conv_kernel: int = 5
    conv_stride: int = 3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown attacker mode {self.mode!r}")
        if self.mode == "whitebox" and self.grad_len < self.conv_kernel:
            raise ValueError(
                f"gradient length {self.grad_len} shorter than conv kernel "
                f"{self.conv_kernel}")


def _mlp_stream(n_in, spec, rng):
    return Sequential([
        Linear(n_in, spec.stream_hidden, rng, ATTACKER_INIT_STD), ops.relu,
        Linear(spec.stream_hidden, spec.embed, rng, ATTACKER_INIT_STD), ops.relu,
    ])


def _fusion(n_in, spec, rng):
    return Sequential([
        Linear(n_in, spec.fusion_hidden, rng, ATTACKER_INIT_STD), ops.relu,
        Linear(spec.fusion_hidden, spec.embed, rng, ATTACKER_INIT_STD), ops.relu,
        Linear(spec.embed, 1, rng, ATTACKER_INIT_STD),
    ])


class Attacker:
    """Per-stream encoders over slices of the feature row -> fusion ->
    membership probability. Black-box mode reads the probability and label
    streams; white-box mode adds the loss stream and a strided 1-D
    convolution over the last-layer gradient, and ranks the posteriors."""

    def __init__(self, spec: AttackerSpec, rng: np.random.Generator):
        self.spec = spec
        c, g = spec.classes, spec.grad_len
        self.prob = _mlp_stream(c, spec, rng)
        self.label = _mlp_stream(c, spec, rng)
        self.streams = [self.prob, self.label]
        self.feature_length = 2 * c
        if spec.mode == "whitebox":
            self.loss_stream = Sequential([
                Linear(1, spec.embed, rng, ATTACKER_INIT_STD), ops.relu])
            conv_out = (g - spec.conv_kernel) // spec.conv_stride + 1
            self.grad_stream = Sequential([
                Conv1d(1, spec.conv_filters, spec.conv_kernel, rng, ATTACKER_INIT_STD,
                       stride=spec.conv_stride),
                ops.relu,
                ops.flatten,
                Linear(spec.conv_filters * conv_out, spec.embed, rng, ATTACKER_INIT_STD),
                ops.relu,
            ])
            self.streams += [self.loss_stream, self.grad_stream]
            self.feature_length += 1 + g
        self.fusion = _fusion(len(self.streams) * spec.embed, spec, rng)
        self.opt_state = AdamState(self.params())

    def __call__(self, features) -> Tensor:
        f = features.data if isinstance(features, Tensor) else np.asarray(features)
        if f.ndim != 2 or f.shape[1] != self.feature_length:
            raise ValueError(f"expected features (n, {self.feature_length})")
        n, c = f.shape[0], self.spec.classes
        inputs = [f[:, :c], f[:, c:2 * c]]
        if self.spec.mode == "whitebox":
            inputs[0] = np.sort(inputs[0], axis=1)[:, ::-1].copy()
            inputs += [f[:, 2 * c:2 * c + 1],
                       f[:, 2 * c + 1:].reshape(n, 1, self.spec.grad_len)]
        h = ops.concat([stream(Tensor(x)) for stream, x in zip(self.streams, inputs)],
                       axis=1)
        logit = self.fusion(h)
        return ops.sigmoid(ops.reshape(logit, (n,)))

    def params(self):
        return [p for part in self.streams + [self.fusion] for p in part.params()]


def build_attacker(mode: str, target: SparseModel,
                   rng: np.random.Generator) -> Attacker:
    """The attacker of the given mode, sized for the target's classes (and,
    in white-box mode, for its last-layer gradient)."""
    grad_len = last_layer_gradient_length(target) if mode == "whitebox" else 0
    return Attacker(AttackerSpec(mode=mode, classes=target.spec.classes,
                                 grad_len=grad_len), rng)
