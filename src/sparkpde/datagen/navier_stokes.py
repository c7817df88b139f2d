"""Pseudo-spectral 2-D incompressible Navier-Stokes in vorticity form.

Solves dw/dt + u.grad(w) = nu*laplacian(w) on the periodic unit square.
The stream function comes from laplacian(psi) = -w, velocities from psi,
the nonlinear term is dealiased with the 2/3 rule, the viscous term is
integrated exactly with a spectral integrating factor, and the nonlinear
term is advanced with Heun's method.

The advection term's DC mode is forced to zero each step (it vanishes
analytically for periodic fields), which conserves mean vorticity to
machine precision.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractViolation, NumericError
from ..grids import GridGraph
from ..rng import Xoshiro256StarStar
from .dataset import SPLIT_IN, Episode
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


def _velocity(w_hat: np.ndarray, kx: np.ndarray, ky: np.ndarray, k_sq: np.ndarray):
    psi_hat = np.zeros_like(w_hat)
    nonzero = k_sq > 0
    psi_hat[nonzero] = w_hat[nonzero] / k_sq[nonzero]
    u = np.fft.ifft2(1j * ky * psi_hat).real
    v = np.fft.ifft2(-1j * kx * psi_hat).real
    return u, v


def suggest_dt(grid: GridGraph, u_max: float) -> float:
    h = 1.0 / max(grid.height, grid.width)
    return CFL_SAFETY * h / max(u_max, 1e-12)


def simulate_navier_stokes(
    grid: GridGraph,
    nu: float,
    ic_seed: int,
    steps: int,
    dt: float,
    record_every: int = 1,
    ic_modes: int = 4,
    initial_vorticity: np.ndarray | None = None,
) -> Episode:
    """Simulate vorticity and record every ``record_every`` steps (frame 0 included)."""
    if nu <= 0:
        raise ContractViolation("viscosity must be positive")
    if dt <= 0 or steps < 1 or record_every < 1:
        raise ContractViolation("steps, dt, record_every must be positive")

    h, w = grid.height, grid.width
    kx, ky, k_sq = _wavenumbers(grid)
    dealias = _dealias_mask(grid)
    decay = np.exp(-nu * k_sq * dt)

    if initial_vorticity is not None:
        omega = np.asarray(initial_vorticity, dtype=np.float64)
        if omega.shape != (h, w):
            raise ContractViolation("initial vorticity shape mismatch")
        omega = omega - omega.mean()
    else:
        gen = Xoshiro256StarStar(ic_seed)
        omega = band_limited_field(gen, h, w, max_mode=ic_modes)

    w_hat = np.fft.fft2(omega)
    w_hat[0, 0] = 0.0

    def nonlinear(w_hat_in: np.ndarray) -> np.ndarray:
        u, v = _velocity(w_hat_in, kx, ky, k_sq)
        dwdx = np.fft.ifft2(1j * kx * w_hat_in).real
        dwdy = np.fft.ifft2(1j * ky * w_hat_in).real
        advection = -(u * dwdx + v * dwdy)
        adv_hat = np.fft.fft2(advection) * dealias
        adv_hat[0, 0] = 0.0
        return adv_hat

    u0, v0 = _velocity(w_hat, kx, ky, k_sq)
    u_max = float(np.max(np.hypot(u0, v0)))
    dt_bound = suggest_dt(grid, u_max)
    if dt > dt_bound:
        raise ContractViolation(
            f"dt={dt:g} violates the CFL bound {dt_bound:g} "
            f"(max velocity {u_max:g}); use dt <= {dt_bound:g}"
        )

    frames = [np.fft.ifft2(w_hat).real.copy()]
    for step in range(1, steps + 1):
        n1 = nonlinear(w_hat)
        predictor = decay * (w_hat + dt * n1)
        n2 = nonlinear(predictor)
        w_hat = decay * w_hat + 0.5 * dt * (decay * n1 + n2)
        w_hat[0, 0] = 0.0
        if not np.all(np.isfinite(w_hat.real)) or not np.all(np.isfinite(w_hat.imag)):
            raise NumericError(f"vorticity diverged at step {step}")
        if step % record_every == 0:
            frames.append(np.fft.ifft2(w_hat).real.copy())

    trajectory = np.stack(frames)[..., None].reshape(len(frames), grid.n_nodes, 1)
    return Episode(
        delta=np.array([nu]),
        x=trajectory,
        seed=ic_seed,
        split=SPLIT_IN,
    )
