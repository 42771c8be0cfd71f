"""Reverse-mode automatic differentiation engine on NumPy.

This subpackage replaces the PyTorch substrate the paper's artifact uses:
:class:`Tensor` with a recorded computation graph, ~40 differentiable ops,
im2col 1-D convolutions, and a numerical gradient checker.
"""

from repro.autograd.tensor import (
    Tensor,
    arange,
    as_tensor,
    full,
    is_grad_enabled,
    no_grad,
    ones,
    rand,
    randn,
    unbroadcast,
    zeros,
)
from repro.autograd import ops
from repro.autograd.ops import (
    concat,
    dropout,
    embedding,
    gelu,
    log_softmax,
    masked_fill,
    relu,
    softmax,
    stack,
    where,
)
from repro.autograd.conv import conv1d, conv1d_output_length, conv_transpose1d
from repro.autograd.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "arange",
    "as_tensor",
    "full",
    "is_grad_enabled",
    "no_grad",
    "ones",
    "rand",
    "randn",
    "unbroadcast",
    "zeros",
    "ops",
    "concat",
    "dropout",
    "embedding",
    "gelu",
    "log_softmax",
    "masked_fill",
    "relu",
    "softmax",
    "stack",
    "where",
    "conv1d",
    "conv1d_output_length",
    "conv_transpose1d",
    "gradcheck",
    "numerical_gradient",
]
