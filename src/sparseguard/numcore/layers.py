"""Layer objects: thin parameter holders that call ops under the active tape.

Masked layers gate their weight matrix with a 0/1 float mask stored on the
weight Parameter itself, so optimizers and sparse bookkeeping see one source
of truth. Biases are always dense.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Parameter, Tensor, as_tensor


class Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 weight_scale: float, masked: bool = False):
        w = rng.normal(0.0, weight_scale, (n_out, n_in)) if weight_scale > 0 \
            else np.zeros((n_out, n_in))
        mask = np.ones((n_out, n_in)) if masked else None
        self.w = Parameter(w, mask=mask)
        self.b = Parameter(np.zeros(n_out))
        self.n_in = n_in
        self.n_out = n_out

    @property
    def mask(self):
        return self.w.mask

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.w, self.b, self.w.mask)

    def params(self):
        return [self.w, self.b]


class Conv2d:
    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 weight_scale: float, padding: str = "same", masked: bool = False):
        shape = (c_out, c_in, kernel, kernel)
        w = rng.normal(0.0, weight_scale, shape) if weight_scale > 0 else np.zeros(shape)
        mask = np.ones(shape) if masked else None
        self.w = Parameter(w, mask=mask)
        self.b = Parameter(np.zeros(c_out))
        self.padding = padding

    @property
    def mask(self):
        return self.w.mask

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.w, self.b, self.w.mask, padding=self.padding)

    def params(self):
        return [self.w, self.b]


class Conv1d:
    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 weight_scale: float, stride: int = 1):
        shape = (c_out, c_in, kernel)
        w = rng.normal(0.0, weight_scale, shape) if weight_scale > 0 else np.zeros(shape)
        self.w = Parameter(w)
        self.b = Parameter(np.zeros(c_out))
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv1d(x, self.w, self.b, stride=self.stride)

    def params(self):
        return [self.w, self.b]


class ReLU:
    def __call__(self, x: Tensor) -> Tensor:
        return ops.relu(x)

    def params(self):
        return []


class Softmax:
    def __call__(self, x: Tensor) -> Tensor:
        return ops.softmax(x)

    def params(self):
        return []


class Flatten:
    def __call__(self, x: Tensor) -> Tensor:
        return ops.flatten(x)

    def params(self):
        return []


class Reshape:
    """Reshapes each row to a fixed sample shape, keeping the batch axis."""

    def __init__(self, sample_shape):
        self.sample_shape = tuple(sample_shape)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.reshape(x, (x.data.shape[0],) + self.sample_shape)

    def params(self):
        return []


class MaxPool2:
    def __call__(self, x: Tensor) -> Tensor:
        return ops.maxpool2(x)

    def params(self):
        return []


class Sequential:
    def __init__(self, layers: list):
        self.layers = list(layers)

    def __call__(self, x) -> Tensor:
        x = as_tensor(x)
        for layer in self.layers:
            x = layer(x)
        return x

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out
