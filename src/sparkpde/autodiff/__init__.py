"""Tensor arithmetic, the truncated-DFT spectral op, and reverse-mode differentiation."""

from .optim import AdamState, adam_step
from .tensor import (
    Tape,
    Tensor,
    backward,
    concat,
    gather_rows,
    gelu,
    gnn_layer,
    graph_layer,
    matmul,
    parameter,
    spectral_channel_mix,
    square,
    stop_gradient,
    tanh,
    tensor_mean,
    tensor_sum,
)

__all__ = [
    "AdamState",
    "Tape",
    "Tensor",
    "adam_step",
    "backward",
    "concat",
    "gather_rows",
    "gelu",
    "gnn_layer",
    "graph_layer",
    "matmul",
    "parameter",
    "spectral_channel_mix",
    "square",
    "stop_gradient",
    "tanh",
    "tensor_mean",
    "tensor_sum",
]
