"""Tensors and the enumeration of a model's parameters, the truncated-DFT
spectral op and its plans, and reverse-mode differentiation."""

from .optim import AdamState, adam_step
from .tensor import (
    SpectralPlan,
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
    parameters,
    spectral_channel_mix,
    spectral_plan,
    square,
    stop_gradient,
    tanh,
    tensor_mean,
    tensor_sum,
)

__all__ = [
    "AdamState",
    "SpectralPlan",
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
    "parameters",
    "spectral_channel_mix",
    "spectral_plan",
    "square",
    "stop_gradient",
    "tanh",
    "tensor_mean",
    "tensor_sum",
]
