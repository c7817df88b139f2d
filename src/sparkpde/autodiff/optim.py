"""Adam optimizer over named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractViolation
from .tensor import Tensor

# The moment decay rates and the denominator's guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One in-place Adam update; deterministic given inputs."""
    if lr <= 0.0:
        raise ContractViolation(f"learning rate must be positive, got {lr}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractViolation(f"gradient shape mismatch for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data = p.data - lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
