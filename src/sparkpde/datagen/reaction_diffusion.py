"""Two-species reaction-diffusion (Gray-Scott kinetics) on a periodic grid.

du/dt = D_u laplacian(u) + s * (-u v^2 + F (1 - u))
dv/dt = D_v laplacian(v) + s * ( u v^2 - (F + k) v)

Diffusion uses the 5-point stencil with explicit Euler stepping under the
stability bound dt <= h^2 / (4 max(D_u, D_v)); s is a reaction-strength
switch so pure diffusion (s = 0) is exactly representable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolation, NumericError
from ..grids import GridGraph
from ..rng import Xoshiro256StarStar
from .dataset import SPLIT_IN, Episode
from .fields import band_limited_field

FEED_RANGE = (0.0, 0.3)
KILL_RANGE = (0.0, 0.3)


def _laplacian(field: np.ndarray, inv_h2: float) -> np.ndarray:
    return inv_h2 * (
        np.roll(field, 1, axis=0)
        + np.roll(field, -1, axis=0)
        + np.roll(field, 1, axis=1)
        + np.roll(field, -1, axis=1)
        - 4.0 * field
    )


def stability_dt(grid: GridGraph, d_u: float, d_v: float) -> float:
    h = 1.0 / max(grid.height, grid.width)
    d_max = max(d_u, d_v)
    if d_max == 0.0:
        return np.inf
    return h * h / (4.0 * d_max)


def simulate_reaction_diffusion(
    grid: GridGraph,
    d_u: float,
    d_v: float,
    feed: float,
    kill: float,
    ic_seed: int,
    steps: int,
    dt: float,
    record_every: int = 1,
    reaction_strength: float = 1.0,
    ic_modes: int = 4,
    initial_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> Episode:
    if d_u < 0 or d_v < 0:
        raise ContractViolation("diffusion coefficients must be non-negative")
    if not (FEED_RANGE[0] <= feed <= FEED_RANGE[1]):
        raise ContractViolation(f"feed rate {feed} outside documented range {FEED_RANGE}")
    if not (KILL_RANGE[0] <= kill <= KILL_RANGE[1]):
        raise ContractViolation(f"kill rate {kill} outside documented range {KILL_RANGE}")
    if dt <= 0 or steps < 1 or record_every < 1:
        raise ContractViolation("steps, dt, record_every must be positive")
    bound = stability_dt(grid, d_u, d_v)
    if dt > bound:
        raise ContractViolation(
            f"dt={dt:g} violates the diffusion stability bound {bound:g}"
        )

    h_nodes, w_nodes = grid.height, grid.width
    inv_h2 = float(max(h_nodes, w_nodes)) ** 2

    if initial_state is not None:
        u, v = (np.asarray(a, dtype=np.float64).copy() for a in initial_state)
        if u.shape != (h_nodes, w_nodes) or v.shape != (h_nodes, w_nodes):
            raise ContractViolation("initial state shape mismatch")
    else:
        gen = Xoshiro256StarStar(ic_seed)
        bump = band_limited_field(gen, h_nodes, w_nodes, max_mode=ic_modes)
        bump = (bump - bump.min()) / max(bump.max() - bump.min(), 1e-12)
        u = 1.0 - 0.5 * bump * bump
        v = 0.25 * bump * bump

    frames = [np.stack([u, v], axis=-1)]
    s = reaction_strength
    for step in range(1, steps + 1):
        uvv = u * v * v
        du = d_u * _laplacian(u, inv_h2) + s * (-uvv + feed * (1.0 - u))
        dv = d_v * _laplacian(v, inv_h2) + s * (uvv - (feed + kill) * v)
        u = u + dt * du
        v = v + dt * dv
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NumericError(f"reaction-diffusion diverged at step {step}")
        if step % record_every == 0:
            frames.append(np.stack([u, v], axis=-1))

    trajectory = np.stack(frames).reshape(len(frames), grid.n_nodes, 2)
    return Episode(
        delta=np.array([d_u, d_v]),
        x=trajectory,
        seed=ic_seed,
        split=SPLIT_IN,
    )
