"""Dense tensor + reverse-mode autodiff engine, layers, and optimizers."""

from . import ops
from .tensor import (
    GraphError,
    NonFiniteError,
    Parameter,
    Tape,
    Tensor,
    active_tape,
    as_tensor,
    check_finite,
)

__all__ = [
    "GraphError",
    "NonFiniteError",
    "Parameter",
    "Tape",
    "Tensor",
    "active_tape",
    "as_tensor",
    "check_finite",
    "ops",
]
