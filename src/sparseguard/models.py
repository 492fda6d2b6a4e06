"""Model constructors: sparse classifier targets (MLP / small CNN) and the
membership attackers, the black-box three-stream network and the white-box
five-stream network with a strided 1-D convolution over last-layer gradients.

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

from .numcore import Tensor, as_tensor, ops
from .numcore.layers import (
    Conv1d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2,
    ReLU,
    Reshape,
    Sequential,
    Softmax,
)
from .sparse import er_initialize

ATTACKER_INIT_STD = 0.01


@dataclass(frozen=True)
class TargetSpec:
    kind: str                      # "mlp" or "cnn"
    input_shape: tuple             # (d,) for mlp, (c, h, w) for cnn
    classes: int
    hidden: tuple = (300, 100)     # mlp hidden widths
    channels: tuple = (16, 32)     # cnn conv channels
    kernel: int = 3

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn"):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def input_width(self) -> int:
        return int(np.prod(self.input_shape))


class SparseModel:
    """A feed-forward classifier whose weight layers carry binary masks."""

    def __init__(self, spec: TargetSpec, layers: list):
        self.spec = spec
        self.layers = layers
        self.omega = 1.0
        self.epsilon = 0.0

    def __call__(self, x) -> Tensor:
        t = as_tensor(x)
        for layer in self.layers:
            t = layer(t)
        return t

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def masked_layers(self):
        return [l for l in self.layers if getattr(l, "mask", None) is not None]

    def last_weight_layer(self) -> Linear:
        for layer in reversed(self.layers):
            if isinstance(layer, Linear):
                return layer
        raise ValueError("model has no linear layer")

    def penultimate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (posteriors, input activation of the final linear layer)."""
        head = self.last_weight_layer()
        t = as_tensor(x)
        captured = None
        for layer in self.layers:
            if layer is head:
                captured = t.data
            t = layer(t)
        return t.data, captured

    def clone(self) -> "SparseModel":
        return copy.deepcopy(self)


def build_target(spec: TargetSpec, omega: float, rng: np.random.Generator) -> SparseModel:
    """Construct the layer stack and ER-initialize its masks to omega."""
    layers: list = []
    if spec.kind == "mlp":
        widths = (spec.input_width,) + spec.hidden + (spec.classes,)
        for n_in, n_out in zip(widths, widths[1:]):
            layers.append(Linear(n_in, n_out, rng, math.sqrt(2.0 / n_in), masked=True))
            layers.append(ReLU())
        layers.pop()  # no ReLU before the softmax head
        layers.append(Softmax())
    else:
        c, h, w = spec.input_shape
        if h % 4 or w % 4:
            raise ValueError("cnn input spatial dims must be divisible by 4")
        layers.append(Reshape(spec.input_shape))
        c_prev = c
        for c_out in spec.channels:
            fan_in = c_prev * spec.kernel * spec.kernel
            layers.append(Conv2d(c_prev, c_out, spec.kernel, rng,
                                 math.sqrt(2.0 / fan_in), padding="same", masked=True))
            layers.append(ReLU())
            layers.append(MaxPool2())
            c_prev = c_out
        flat = c_prev * (h // 4) * (w // 4)
        layers.append(Flatten())
        layers.append(Linear(flat, spec.classes, rng, math.sqrt(2.0 / flat), masked=True))
        layers.append(Softmax())

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
    mode: str                      # "blackbox" or "whitebox"
    classes: int
    grad_len: int = 0              # whitebox only: flattened last-layer gradient
    stream_hidden: int = 128
    embed: int = 64
    fusion_hidden: int = 256
    conv_filters: int = 8
    conv_kernel: int = 5
    conv_stride: int = 3

    def __post_init__(self):
        if self.mode not in ("blackbox", "whitebox"):
            raise ValueError(f"unknown attacker mode {self.mode!r}")
        if self.mode == "whitebox" and self.grad_len < self.conv_kernel:
            raise ValueError(
                f"gradient length {self.grad_len} shorter than conv kernel "
                f"{self.conv_kernel}")


def _mlp_stream(n_in, spec, rng):
    return Sequential([
        Linear(n_in, spec.stream_hidden, rng, ATTACKER_INIT_STD), ReLU(),
        Linear(spec.stream_hidden, spec.embed, rng, ATTACKER_INIT_STD), ReLU(),
    ])


def _fusion(n_in, spec, rng):
    return Sequential([
        Linear(n_in, spec.fusion_hidden, rng, ATTACKER_INIT_STD), ReLU(),
        Linear(spec.fusion_hidden, spec.embed, rng, ATTACKER_INIT_STD), ReLU(),
        Linear(spec.embed, 1, rng, ATTACKER_INIT_STD),
    ])


class BlackboxAttacker:
    """Probability stream + label stream -> fusion -> membership probability."""

    def __init__(self, spec: AttackerSpec, rng: np.random.Generator):
        self.spec = spec
        c = spec.classes
        self.prob = _mlp_stream(c, spec, rng)
        self.label = _mlp_stream(c, spec, rng)
        self.fusion = _fusion(2 * spec.embed, spec, rng)
        self.feature_length = 2 * c

    def __call__(self, features) -> Tensor:
        f = features.data if isinstance(features, Tensor) else np.asarray(features)
        c = self.spec.classes
        if f.ndim != 2 or f.shape[1] != self.feature_length:
            raise ValueError(f"expected features (n, {self.feature_length})")
        h = ops.concat([self.prob(Tensor(f[:, :c])),
                        self.label(Tensor(f[:, c:2 * c]))], axis=1)
        logit = self.fusion(h)
        return ops.sigmoid(ops.reshape(logit, (f.shape[0],)))

    def params(self):
        return self.prob.params() + self.label.params() + self.fusion.params()


class WhiteboxAttacker:
    """Ranked-posterior, label, loss, and gradient streams -> fusion."""

    def __init__(self, spec: AttackerSpec, rng: np.random.Generator):
        self.spec = spec
        c, g = spec.classes, spec.grad_len
        self.prob = _mlp_stream(c, spec, rng)
        self.label = _mlp_stream(c, spec, rng)
        self.loss_stream = Sequential([Linear(1, spec.embed, rng, ATTACKER_INIT_STD), ReLU()])
        conv_out = (g - spec.conv_kernel) // spec.conv_stride + 1
        self.grad_stream = Sequential([
            Conv1d(1, spec.conv_filters, spec.conv_kernel, rng, ATTACKER_INIT_STD,
                   stride=spec.conv_stride),
            ReLU(),
            Flatten(),
            Linear(spec.conv_filters * conv_out, spec.embed, rng, ATTACKER_INIT_STD),
            ReLU(),
        ])
        self.fusion = _fusion(4 * spec.embed, spec, rng)
        self.feature_length = 2 * c + 1 + g

    def __call__(self, features) -> Tensor:
        f = features.data if isinstance(features, Tensor) else np.asarray(features)
        c = self.spec.classes
        if f.ndim != 2 or f.shape[1] != self.feature_length:
            raise ValueError(f"expected features (n, {self.feature_length})")
        n = f.shape[0]
        ranked = np.sort(f[:, :c], axis=1)[:, ::-1].copy()
        grad = f[:, 2 * c + 1:].reshape(n, 1, self.spec.grad_len)
        h = ops.concat([
            self.prob(Tensor(ranked)),
            self.label(Tensor(f[:, c:2 * c])),
            self.loss_stream(Tensor(f[:, 2 * c:2 * c + 1])),
            self.grad_stream(Tensor(grad)),
        ], axis=1)
        logit = self.fusion(h)
        return ops.sigmoid(ops.reshape(logit, (n,)))

    def params(self):
        return (self.prob.params() + self.label.params()
                + self.loss_stream.params() + self.grad_stream.params()
                + self.fusion.params())


def build_blackbox_attacker(spec: AttackerSpec, rng: np.random.Generator) -> BlackboxAttacker:
    if spec.mode != "blackbox":
        raise ValueError("spec mode must be blackbox")
    return BlackboxAttacker(spec, rng)


def build_whitebox_attacker(spec: AttackerSpec, rng: np.random.Generator) -> WhiteboxAttacker:
    if spec.mode != "whitebox":
        raise ValueError("spec mode must be whitebox")
    return WhiteboxAttacker(spec, rng)


def build_attacker(mode: str, target: SparseModel,
                   rng: np.random.Generator):
    """The attacker of the given mode, sized for the target's classes (and,
    in white-box mode, for its last-layer gradient)."""
    if mode == "blackbox":
        return build_blackbox_attacker(
            AttackerSpec(mode="blackbox", classes=target.spec.classes), rng)
    spec = AttackerSpec(mode=mode, classes=target.spec.classes,
                        grad_len=last_layer_gradient_length(target))
    return build_whitebox_attacker(spec, rng)
