"""Tensors and the enumeration of a model's parameters, the truncated-DFT
spectral op and its plans, and reverse-mode differentiation with per-step
recomputation (``checkpoint``)."""

from .optim import AdamState, adam_step
from .tensor import (
    SpectralPlan,
    Tape,
    Tensor,
    backward,
    checkpoint,
    concat,
    gather_rows,
    gelu,
    graph_layer,
    matmul,
    parameter,
    parameters,
    spectral_channel_mix,
    spectral_plan,
    spectral_weights,
    square,
    stop_gradient,
    tanh,
    tape_recording,
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
    "checkpoint",
    "concat",
    "gather_rows",
    "gelu",
    "graph_layer",
    "matmul",
    "parameter",
    "parameters",
    "spectral_channel_mix",
    "spectral_plan",
    "spectral_weights",
    "square",
    "stop_gradient",
    "tanh",
    "tape_recording",
    "tensor_mean",
    "tensor_sum",
]
