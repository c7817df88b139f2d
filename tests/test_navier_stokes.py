"""Vorticity solver physics: decay oracle, conservation, enstrophy, determinism,
and stacks of episodes stepped together."""

from __future__ import annotations

import numpy as np
import pytest

from sparkpde.datagen import navier_stokes, simulate_navier_stokes
from sparkpde.datagen.navier_stokes import suggest_dt
from sparkpde.errors import ContractViolation, NumericError
from sparkpde.grids import GridGraph
from sparkpde.metrics import energy_spectrum


@pytest.fixture(scope="module")
def grid():
    return GridGraph(32, 32)


def test_high_viscosity_enstrophy_strictly_decreases(grid):
    [x] = simulate_navier_stokes(grid, nu=[1.0], ic_seed=[3], steps=60, dt=2e-3)
    enstrophy = np.sum(x[:, :, 0] ** 2, axis=1)
    assert np.all(np.diff(enstrophy) < 0)


def test_single_mode_decays_at_closed_form_rate(grid):
    amp = 0.8
    x = np.arange(grid.width) / grid.width
    omega0 = amp * np.tile(np.sin(2 * np.pi * x), (grid.height, 1))
    nu = 0.05
    dt = 1e-3
    steps = 100  # t = 0.1
    [x] = simulate_navier_stokes(
        grid, nu=[nu], ic_seed=[0], steps=steps, dt=dt, initial_vorticity=omega0[None]
    )
    final = x[-1, :, 0].reshape(32, 32)
    expected = omega0 * np.exp(-nu * (2 * np.pi) ** 2 * 0.1)
    rel = np.max(np.abs(final - expected)) / np.max(np.abs(expected))
    assert rel < 1e-4


def test_mean_vorticity_conserved_every_step(grid):
    [x] = simulate_navier_stokes(grid, nu=[1e-3], ic_seed=[11], steps=50, dt=2e-3)
    means = x[:, :, 0].mean(axis=1)
    assert np.max(np.abs(means)) < 1e-12


def test_deterministic_given_seed(grid):
    [a] = simulate_navier_stokes(grid, nu=[1e-3], ic_seed=[5], steps=20, dt=2e-3)
    [b] = simulate_navier_stokes(grid, nu=[1e-3], ic_seed=[5], steps=20, dt=2e-3)
    assert a.tobytes() == b.tobytes()
    [c] = simulate_navier_stokes(grid, nu=[1e-3], ic_seed=[6], steps=20, dt=2e-3)
    assert a.tobytes() != c.tobytes()


def test_cfl_violation_refused_with_suggestion(grid):
    with pytest.raises(ContractViolation) as err:
        simulate_navier_stokes(grid, nu=[1e-3], ic_seed=[1], steps=10, dt=0.5)
    assert "CFL" in str(err.value)
    assert "use dt" in str(err.value)


def test_suggest_dt_scales_with_velocity(grid):
    assert suggest_dt(grid, 2.0) == pytest.approx(0.5 / (32 * 2.0))


@pytest.mark.parametrize("nu", [1e-2, 1e-3, 1e-4])
def test_dissipation_range_spectrum_decays(grid, nu):
    [x] = simulate_navier_stokes(
        grid, nu=[nu], ic_seed=[9], steps=400, dt=2e-3, ic_modes=4
    )
    ks, energy = energy_spectrum(x[-1, :, 0].reshape(32, 32))
    # Above the initial-condition band and below the dealiasing cutoff (2/3 of
    # k_max = 10 here) the spectrum must fall off monotonically.
    tail = energy[6:11]
    assert np.all(np.diff(tail) <= 0.0)


def test_enstrophy_monotone_for_moderate_viscosity(grid):
    [x] = simulate_navier_stokes(grid, nu=[1e-3], ic_seed=[21], steps=200, dt=2e-3)
    enstrophy = np.sum(x[:, :, 0] ** 2, axis=1)
    assert np.all(np.diff(enstrophy) <= enstrophy[0] * 1e-12)


# Three episodes with distinct viscosities and seeds.
STACK = {"nu": [1e-2, 3e-3, 1e-3], "ic_seed": [5, 6, 7]}


def test_stack_steps_each_episode_as_alone():
    grid = GridGraph(6, 5)
    kwargs = dict(steps=30, dt=2e-3, record_every=3)
    stacked = simulate_navier_stokes(grid, **STACK, **kwargs)
    assert stacked.shape == (3, 11, 30, 1)
    assert len({x.tobytes() for x in stacked}) == 3
    for e, x in enumerate(stacked):
        [alone] = simulate_navier_stokes(
            grid, **{key: [values[e]] for key, values in STACK.items()}, **kwargs
        )
        assert x.tobytes() == alone.tobytes()
    backwards = simulate_navier_stokes(
        grid, **{key: values[::-1] for key, values in STACK.items()}, **kwargs
    )
    assert [x.tobytes() for x in backwards] == [x.tobytes() for x in stacked][::-1]


def _sine_vorticity(grid, amplitudes):
    x = np.arange(grid.width) / grid.width
    mode = np.tile(np.sin(2 * np.pi * x), (grid.height, 1))
    return np.stack([a * mode for a in amplitudes])


def test_every_episode_checked_before_any_step(grid, monkeypatch):
    def no_step(*args):
        raise AssertionError("stepped before every episode was checked")

    monkeypatch.setattr(navier_stokes, "_nonlinear", no_step)
    # Peak speed a / (2 pi): only the last episode breaks the CFL bound at dt.
    with pytest.raises(ContractViolation) as err:
        simulate_navier_stokes(
            grid, nu=[1e-2, 1e-3, 1e-4], ic_seed=[1, 2, 3], steps=10, dt=2e-3,
            initial_vorticity=_sine_vorticity(grid, [0.1, 0.2, 100.0]),
        )
    assert "episode 2 (nu=0.0001, seed 3)" in str(err.value)
    assert "CFL" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_initial_vorticity_refused_before_any_step(grid, monkeypatch, bad):
    def no_step(*args):
        raise AssertionError("stepped with a non-finite initial vorticity")

    monkeypatch.setattr(navier_stokes, "_nonlinear", no_step)
    omega = _sine_vorticity(grid, [0.1, 0.2, 0.3])
    omega[2, 4, 9] = bad
    with pytest.raises(ContractViolation) as err, np.errstate(invalid="ignore"):
        simulate_navier_stokes(
            grid, nu=[1e-2, 1e-3, 1e-4], ic_seed=[1, 2, 3], steps=10, dt=2e-3,
            initial_vorticity=omega,
        )
    assert "episode 2 (nu=0.0001, seed 3)" in str(err.value)
    assert "not finite" in str(err.value)


def test_diverging_episode_is_named(grid, monkeypatch):
    # From its third call (the first of step 2), the advection term of
    # episode 1 turns infinite.
    calls = []
    real = navier_stokes._nonlinear

    def blow_up(w_hat, *args):
        out = real(w_hat, *args)
        calls.append(1)
        if len(calls) >= 3:
            out[1] = np.inf
        return out

    monkeypatch.setattr(navier_stokes, "_nonlinear", blow_up)
    with pytest.raises(NumericError) as err, np.errstate(invalid="ignore"):
        simulate_navier_stokes(grid, **STACK, steps=10, dt=2e-3)
    assert "diverged at step 2 in episode 1 (nu=0.003, seed 6)" in str(err.value)


def test_one_entry_per_episode_required(grid):
    with pytest.raises(ContractViolation):
        simulate_navier_stokes(grid, nu=[1e-3, 1e-3], ic_seed=[1], steps=5, dt=1e-3)
    with pytest.raises(ContractViolation):
        simulate_navier_stokes(grid, nu=[], ic_seed=[], steps=5, dt=1e-3)
    with pytest.raises(ContractViolation) as err:
        simulate_navier_stokes(grid, nu=[1e-3, 0.0], ic_seed=[1, 2], steps=5, dt=1e-3)
    assert "episode 1 (nu=0.0, seed 2)" in str(err.value)
