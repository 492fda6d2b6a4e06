"""Layer objects: thin parameter holders that call ops under the active tape.

Stateless layers are the op functions themselves (`ops.relu`, `ops.softmax`,
`ops.flatten`, `ops.maxpool2`): a `Sequential` calls every item on the
running tensor. A masked layer stores its 0/1 float mask on the weight
Parameter itself, so optimizers and sparse bookkeeping see one source of
truth; a pruned weight holds ±0 (see `Parameter`), so no op takes the mask.
Biases are always dense.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Parameter, Tensor, as_tensor


class Weighted:
    """A weight of `shape` drawn from normal(0, weight_scale), an optional
    all-ones mask on it, and a zero bias with one entry per output channel
    (`shape[0]`). The only layer kind that holds parameters."""

    def __init__(self, shape: tuple, rng: np.random.Generator,
                 weight_scale: float, masked: bool = False):
        w = rng.normal(0.0, weight_scale, shape)
        self.w = Parameter(w, mask=np.ones(shape) if masked else None)
        self.b = Parameter(np.zeros(shape[0]))

    @property
    def mask(self):
        return self.w.mask

    def params(self):
        return [self.w, self.b]


class Linear(Weighted):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 weight_scale: float, masked: bool = False):
        super().__init__((n_out, n_in), rng, weight_scale, masked)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.w, self.b)


class Conv2d(Weighted):
    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 weight_scale: float, masked: bool = False):
        super().__init__((c_out, c_in, kernel, kernel), rng, weight_scale, masked)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.w, self.b)


class Conv1d(Weighted):
    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 weight_scale: float, stride: int = 1):
        super().__init__((c_out, c_in, kernel), rng, weight_scale)
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv1d(x, self.w, self.b, stride=self.stride)


class Reshape:
    """Reshapes each row to a fixed sample shape, keeping the batch axis."""

    def __init__(self, sample_shape):
        self.sample_shape = tuple(sample_shape)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.reshape(x, (x.data.shape[0],) + self.sample_shape)


class Sequential:
    def __init__(self, layers: list):
        self.layers = list(layers)

    def __call__(self, x) -> Tensor:
        x = as_tensor(x)
        for layer in self.layers:
            x = layer(x)
        return x

    def params(self):
        return [p for layer in self.layers if isinstance(layer, Weighted)
                for p in layer.params()]
