"""Two-species reaction-diffusion (Gray-Scott kinetics) on a periodic grid.

du/dt = D_u laplacian(u) + s * (-u v^2 + F (1 - u))
dv/dt = D_v laplacian(v) + s * ( u v^2 - (F + k) v)

Diffusion uses the 5-point stencil with explicit Euler stepping under the
stability bound dt <= h^2 / (4 max(D_u, D_v)); s is a reaction-strength
switch so pure diffusion (s = 0) is exactly representable.

One call steps a stack of E episodes together as (E, H, W) fields: each
episode has its own (D_u, D_v) and initial-condition seed, while F, k, s, dt
and the step count are shared. Every operation is elementwise or a roll along
the grid axes, so each episode's trajectory has the same bytes as a stack of
one gives for it. The solver returns the fields; ``gen-data`` packs them into
episodes with their parameters, seeds and splits.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ContractViolation, NumericError
from ..grids import GridGraph
from ..rng import Xoshiro256StarStar
from .fields import band_limited_field

FEED_RANGE = (0.0, 0.3)
KILL_RANGE = (0.0, 0.3)


def _laplacian(field: np.ndarray, inv_h2: float) -> np.ndarray:
    return inv_h2 * (
        np.roll(field, 1, axis=-2)
        + np.roll(field, -1, axis=-2)
        + np.roll(field, 1, axis=-1)
        + np.roll(field, -1, axis=-1)
        - 4.0 * field
    )


def stability_dt(grid: GridGraph, d_u: float, d_v: float) -> float:
    h = 1.0 / max(grid.height, grid.width)
    d_max = max(d_u, d_v)
    if d_max == 0.0:
        return np.inf
    return h * h / (4.0 * d_max)


def _initial_bump(ic_seed: int, grid: GridGraph, ic_modes: int) -> np.ndarray:
    bump = band_limited_field(
        Xoshiro256StarStar(ic_seed), grid.height, grid.width, max_mode=ic_modes
    )
    return (bump - bump.min()) / max(bump.max() - bump.min(), 1e-12)


def simulate_reaction_diffusion(
    grid: GridGraph,
    d_u: Sequence[float],
    d_v: Sequence[float],
    feed: float,
    kill: float,
    ic_seed: Sequence[int],
    steps: int,
    dt: float,
    record_every: int = 1,
    reaction_strength: float = 1.0,
    ic_modes: int = 4,
    initial_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Simulate one episode per entry of ``d_u``/``d_v``/``ic_seed``, stepped
    together, recording every ``record_every`` steps (frame 0 included).
    Returns the (E, T, N, 2) trajectories of (u, v) in the grid's row-major
    node order.

    ``initial_state`` is a (u, v) pair of finite (E, H, W) arrays; without it
    each episode's initial condition comes from its own ``ic_seed``. Every
    check runs for every episode before the first step.
    """
    d_u = np.asarray(d_u, dtype=np.float64).reshape(-1)
    d_v = np.asarray(d_v, dtype=np.float64).reshape(-1)
    seeds = [int(s) for s in ic_seed]
    n = len(seeds)
    if n == 0 or d_u.shape != (n,) or d_v.shape != (n,):
        raise ContractViolation("d_u, d_v and ic_seed need one entry per episode, at least one")
    if not (FEED_RANGE[0] <= feed <= FEED_RANGE[1]):
        raise ContractViolation(f"feed rate {feed} outside documented range {FEED_RANGE}")
    if not (KILL_RANGE[0] <= kill <= KILL_RANGE[1]):
        raise ContractViolation(f"kill rate {kill} outside documented range {KILL_RANGE}")
    if dt <= 0 or steps < 1 or record_every < 1:
        raise ContractViolation("steps, dt, record_every must be positive")

    def episode(e: int) -> str:
        return f"episode {e} (d_u={float(d_u[e])!r}, d_v={float(d_v[e])!r}, seed {seeds[e]})"

    for e in range(n):
        if d_u[e] < 0 or d_v[e] < 0:
            raise ContractViolation(f"{episode(e)}: diffusion coefficients must be non-negative")
        bound = stability_dt(grid, d_u[e], d_v[e])
        if dt > bound:
            raise ContractViolation(
                f"{episode(e)}: dt={dt:g} violates the diffusion stability bound {bound:g}"
            )

    shape = (n, grid.height, grid.width)
    inv_h2 = float(max(grid.height, grid.width)) ** 2

    if initial_state is not None:
        u, v = (np.array(a, dtype=np.float64) for a in initial_state)
        if u.shape != shape or v.shape != shape:
            raise ContractViolation(f"initial state must be two {shape} arrays")
        finite = np.isfinite(u).all(axis=(1, 2)) & np.isfinite(v).all(axis=(1, 2))
        if not finite.all():
            raise ContractViolation(
                f"{episode(int(np.argmin(finite)))}: initial state is not finite"
            )
    else:
        bump = np.stack([_initial_bump(seed, grid, ic_modes) for seed in seeds])
        u = 1.0 - 0.5 * bump * bump
        v = 0.25 * bump * bump

    diffusion_u = d_u[:, None, None]
    diffusion_v = d_v[:, None, None]
    frames = [np.stack([u, v], axis=-1)]
    s = reaction_strength
    for step in range(1, steps + 1):
        uvv = u * v * v
        du = diffusion_u * _laplacian(u, inv_h2) + s * (-uvv + feed * (1.0 - u))
        dv = diffusion_v * _laplacian(v, inv_h2) + s * (uvv - (feed + kill) * v)
        u = u + dt * du
        v = v + dt * dv
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            finite = np.isfinite(u).all(axis=(1, 2)) & np.isfinite(v).all(axis=(1, 2))
            raise NumericError(
                f"reaction-diffusion diverged at step {step} in {episode(int(np.argmin(finite)))}"
            )
        if step % record_every == 0:
            frames.append(np.stack([u, v], axis=-1))

    return np.stack(frames, axis=1).reshape(n, len(frames), grid.n_nodes, 2)
