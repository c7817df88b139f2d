"""Pseudo-spectral 2-D incompressible Navier-Stokes in vorticity form.

Solves dw/dt + u.grad(w) = nu*laplacian(w) on the periodic unit square.
The stream function comes from laplacian(psi) = -w, velocities from psi,
the nonlinear term is dealiased with the 2/3 rule, the viscous term is
integrated exactly with a spectral integrating factor, and the nonlinear
term is advanced with Heun's method.

The advection term's DC mode is forced to zero each step (it vanishes
analytically for periodic fields), which conserves mean vorticity to
machine precision.

One call steps a stack of E episodes together as (E, H, W) fields: each
episode has its own viscosity (an (E, H, W) integrating factor) and
initial-condition seed, while dt and the step count are shared. The FFTs
transform each episode's grid on its own and every other operation is
elementwise, so each episode's trajectory has the same bytes as a stack of
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

CFL_SAFETY = 0.5


def _wavenumbers(grid: GridGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.height, d=1.0 / grid.height)
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.width, d=1.0 / grid.width)
    kxx, kyy = np.meshgrid(kx, ky)
    k_sq = kxx**2 + kyy**2
    return kxx, kyy, k_sq


def _dealias_mask(grid: GridGraph) -> np.ndarray:
    my = np.abs(np.fft.fftfreq(grid.height, d=1.0 / grid.height))
    mx = np.abs(np.fft.fftfreq(grid.width, d=1.0 / grid.width))
    mxx, myy = np.meshgrid(mx, my)
    return (mxx <= grid.width / 3.0) & (myy <= grid.height / 3.0)


def _velocity(w_hat: np.ndarray, ops) -> tuple[np.ndarray, np.ndarray]:
    _, iky, minus_ikx, k_sq, _ = ops
    psi_hat = w_hat / k_sq
    psi_hat[:, 0, 0] = 0.0
    u = np.fft.ifft2(iky * psi_hat).real
    v = np.fft.ifft2(minus_ikx * psi_hat).real
    return u, v


def _nonlinear(w_hat: np.ndarray, ops) -> np.ndarray:
    """Dealiased spectrum of -(u.grad(w)) with its DC mode zeroed."""
    ikx, iky, _, _, dealias = ops
    u, v = _velocity(w_hat, ops)
    dwdx = np.fft.ifft2(ikx * w_hat).real
    dwdy = np.fft.ifft2(iky * w_hat).real
    advection = -(u * dwdx + v * dwdy)
    adv_hat = np.fft.fft2(advection) * dealias
    adv_hat[:, 0, 0] = 0.0
    return adv_hat


def suggest_dt(grid: GridGraph, u_max: float) -> float:
    h = 1.0 / max(grid.height, grid.width)
    return CFL_SAFETY * h / max(u_max, 1e-12)


def simulate_navier_stokes(
    grid: GridGraph,
    nu: Sequence[float],
    ic_seed: Sequence[int],
    steps: int,
    dt: float,
    record_every: int = 1,
    ic_modes: int = 4,
    initial_vorticity: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate one episode per entry of ``nu``/``ic_seed``, stepped together,
    recording vorticity every ``record_every`` steps (frame 0 included).
    Returns the (E, T, N, 1) trajectories in the grid's row-major node order.

    ``initial_vorticity`` is a finite (E, H, W) array; without it each
    episode's initial condition comes from its own ``ic_seed``. Every check,
    the CFL bound included, runs for every episode before the first step.
    """
    nu = np.asarray(nu, dtype=np.float64).reshape(-1)
    seeds = [int(s) for s in ic_seed]
    n = len(seeds)
    if n == 0 or nu.shape != (n,):
        raise ContractViolation("nu and ic_seed need one entry per episode, at least one")
    if dt <= 0 or steps < 1 or record_every < 1:
        raise ContractViolation("steps, dt, record_every must be positive")

    def episode(e: int) -> str:
        return f"episode {e} (nu={float(nu[e])!r}, seed {seeds[e]})"

    for e in range(n):
        if nu[e] <= 0:
            raise ContractViolation(f"{episode(e)}: viscosity must be positive")

    shape = (n, grid.height, grid.width)
    kx, ky, k_sq = _wavenumbers(grid)
    # The spectral factors, built once: i kx, i ky, -i kx, |k|^2 with 1 in place
    # of the mean mode's 0 (its stream function is set to 0), and the 2/3 rule.
    ops = (1j * kx, 1j * ky, -1j * kx, np.where(k_sq > 0, k_sq, 1.0), _dealias_mask(grid))
    decay = np.stack([np.exp(-nu_e * k_sq * dt) for nu_e in nu])

    if initial_vorticity is not None:
        omega = np.asarray(initial_vorticity, dtype=np.float64)
        if omega.shape != shape:
            raise ContractViolation(f"initial vorticity must be an {shape} array")
        finite = np.isfinite(omega).all(axis=(1, 2))
        if not finite.all():
            raise ContractViolation(
                f"{episode(int(np.argmin(finite)))}: initial vorticity is not finite"
            )
        omega = np.stack([w - w.mean() for w in omega])
    else:
        omega = np.stack(
            [
                band_limited_field(
                    Xoshiro256StarStar(seed), grid.height, grid.width, max_mode=ic_modes
                )
                for seed in seeds
            ]
        )

    w_hat = np.fft.fft2(omega)
    w_hat[:, 0, 0] = 0.0

    u0, v0 = _velocity(w_hat, ops)
    u_max = np.max(np.hypot(u0, v0), axis=(1, 2))
    for e in range(n):
        dt_bound = suggest_dt(grid, float(u_max[e]))
        if dt > dt_bound:
            raise ContractViolation(
                f"{episode(e)}: dt={dt:g} violates the CFL bound {dt_bound:g} "
                f"(max velocity {float(u_max[e]):g}); use dt <= {dt_bound:g}"
            )

    frames = [np.fft.ifft2(w_hat).real.copy()]
    for step in range(1, steps + 1):
        n1 = _nonlinear(w_hat, ops)
        predictor = decay * (w_hat + dt * n1)
        n2 = _nonlinear(predictor, ops)
        w_hat = decay * w_hat + 0.5 * dt * (decay * n1 + n2)
        w_hat[:, 0, 0] = 0.0
        finite = np.isfinite(w_hat).all(axis=(1, 2))  # false where either part is not
        if not finite.all():
            raise NumericError(
                f"vorticity diverged at step {step} in {episode(int(np.argmin(finite)))}"
            )
        if step % record_every == 0:
            frames.append(np.fft.ifft2(w_hat).real.copy())

    return np.stack(frames, axis=1).reshape(n, len(frames), grid.n_nodes, 1)
