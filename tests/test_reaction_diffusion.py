"""Reaction-diffusion solver contracts, for one episode and for stacks."""

from __future__ import annotations

import numpy as np
import pytest

from sparkpde.datagen import reaction_diffusion, simulate_reaction_diffusion
from sparkpde.datagen.reaction_diffusion import stability_dt
from sparkpde.errors import ContractViolation, NumericError
from sparkpde.grids import GridGraph


@pytest.fixture(scope="module")
def grid():
    return GridGraph(32, 32)


def test_no_dynamics_means_constant_trajectory(grid):
    [x] = simulate_reaction_diffusion(
        grid, d_u=[0.0], d_v=[0.0], feed=0.04, kill=0.06,
        ic_seed=[2], steps=25, dt=0.5, reaction_strength=0.0,
    )
    for t in range(1, len(x)):
        np.testing.assert_array_equal(x[t], x[0])


def test_uniform_fixed_point_is_stationary(grid):
    u0 = np.ones((1, 32, 32))
    v0 = np.zeros((1, 32, 32))
    [x] = simulate_reaction_diffusion(
        grid, d_u=[1e-4], d_v=[5e-5], feed=0.04, kill=0.06,
        ic_seed=[0], steps=200, dt=1e-2, initial_state=(u0, v0),
    )
    assert np.max(np.abs(x[-1, :, 0] - 1.0)) < 1e-10
    assert np.max(np.abs(x[-1, :, 1])) < 1e-10


def test_pure_diffusion_single_mode_decay(grid):
    d = 0.01
    mode = np.tile(np.sin(2 * np.pi * np.arange(32) / 32), (32, 1))
    u0 = mode.copy()
    v0 = np.zeros_like(mode)
    dt = 1e-3
    steps = 350  # t = 0.35, about 0.14 e-folds
    [x] = simulate_reaction_diffusion(
        grid, d_u=[d], d_v=[d], feed=0.0, kill=0.0,
        ic_seed=[0], steps=steps, dt=dt,
        reaction_strength=0.0, initial_state=(u0[None], v0[None]),
    )
    t_final = steps * dt
    expected = mode * np.exp(-d * (2 * np.pi) ** 2 * t_final)
    got = x[-1, :, 0].reshape(32, 32)
    rel = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
    assert rel < 1e-3


def test_stability_bound_enforced(grid):
    bound = stability_dt(grid, 1e-3, 1e-3)
    with pytest.raises(ContractViolation) as err:
        simulate_reaction_diffusion(
            grid, d_u=[1e-3], d_v=[1e-3], feed=0.04, kill=0.06,
            ic_seed=[0], steps=5, dt=bound * 1.5,
        )
    assert "stability" in str(err.value)


def test_parameter_range_checked(grid):
    with pytest.raises(ContractViolation):
        simulate_reaction_diffusion(
            grid, d_u=[1e-4], d_v=[1e-4], feed=0.5, kill=0.06,
            ic_seed=[0], steps=5, dt=1e-3,
        )
    with pytest.raises(ContractViolation):
        simulate_reaction_diffusion(
            grid, d_u=[-1e-4], d_v=[1e-4], feed=0.04, kill=0.06,
            ic_seed=[0], steps=5, dt=1e-3,
        )


def test_deterministic_given_seed(grid):
    kwargs = dict(d_u=[2e-4], d_v=[1e-4], feed=0.04, kill=0.06, steps=30, dt=5e-2)
    [a] = simulate_reaction_diffusion(grid, ic_seed=[8], **kwargs)
    [b] = simulate_reaction_diffusion(grid, ic_seed=[8], **kwargs)
    assert a.tobytes() == b.tobytes()


# Three episodes with distinct diffusivities and seeds.
STACK = {"d_u": [2e-3, 1e-3, 5e-4], "d_v": [1e-3, 2e-3, 5e-4], "ic_seed": [4, 9, 1]}


def test_stack_steps_each_episode_as_alone():
    grid = GridGraph(6, 5)
    kwargs = dict(feed=0.04, kill=0.06, steps=40, dt=0.5, record_every=4)
    stacked = simulate_reaction_diffusion(grid, **STACK, **kwargs)
    assert stacked.shape == (3, 11, 30, 2)
    assert len({x.tobytes() for x in stacked}) == 3
    for e, x in enumerate(stacked):
        [alone] = simulate_reaction_diffusion(
            grid, **{key: [values[e]] for key, values in STACK.items()}, **kwargs
        )
        assert x.tobytes() == alone.tobytes()
    backwards = simulate_reaction_diffusion(
        grid, **{key: values[::-1] for key, values in STACK.items()}, **kwargs
    )
    assert [x.tobytes() for x in backwards] == [x.tobytes() for x in stacked][::-1]


def test_every_episode_checked_before_any_step(grid, monkeypatch):
    def no_step(*args):
        raise AssertionError("stepped before every episode was checked")

    monkeypatch.setattr(reaction_diffusion, "_laplacian", no_step)
    dt = 1.5 * stability_dt(grid, 1e-3, 1e-3)
    with pytest.raises(ContractViolation) as err:
        simulate_reaction_diffusion(
            grid, d_u=[1e-4, 2e-4, 1e-3], d_v=[1e-4, 1e-4, 1e-3], feed=0.04, kill=0.06,
            ic_seed=[1, 2, 3], steps=5, dt=dt,
        )
    assert "episode 2 (d_u=0.001, d_v=0.001, seed 3)" in str(err.value)
    assert "stability" in str(err.value)


@pytest.mark.parametrize("species", [0, 1], ids=["u", "v"])
def test_non_finite_initial_state_refused_before_any_step(grid, monkeypatch, species):
    def no_step(*args):
        raise AssertionError("stepped with a non-finite initial state")

    monkeypatch.setattr(reaction_diffusion, "_laplacian", no_step)
    state = (np.ones((3, 32, 32)), np.zeros((3, 32, 32)))
    state[species][2, 5, 7] = np.nan
    with pytest.raises(ContractViolation) as err:
        simulate_reaction_diffusion(
            grid, d_u=[1e-4, 2e-4, 3e-4], d_v=[1e-4, 1e-4, 1e-4], feed=0.04, kill=0.06,
            ic_seed=[1, 2, 3], steps=5, dt=1e-2, initial_state=state,
        )
    assert "episode 2 (d_u=0.0003, d_v=0.0001, seed 3)" in str(err.value)
    assert "not finite" in str(err.value)


def test_diverging_episode_is_named():
    grid = GridGraph(8, 8)
    u0 = np.ones((3, 8, 8))
    v0 = np.zeros((3, 8, 8))
    u0[1] = v0[1] = 1e3
    with pytest.raises(NumericError) as err, np.errstate(over="ignore", invalid="ignore"):
        simulate_reaction_diffusion(
            grid, d_u=[1e-4] * 3, d_v=[1e-4] * 3, feed=0.04, kill=0.06,
            ic_seed=[1, 2, 3], steps=50, dt=1.0, initial_state=(u0, v0),
        )
    assert "diverged at step 5 in episode 1 (d_u=0.0001, d_v=0.0001, seed 2)" in str(err.value)
    # Alone, the same episode diverges at the same step.
    with pytest.raises(NumericError) as err, np.errstate(over="ignore", invalid="ignore"):
        simulate_reaction_diffusion(
            grid, d_u=[1e-4], d_v=[1e-4], feed=0.04, kill=0.06,
            ic_seed=[2], steps=50, dt=1.0, initial_state=(u0[1:2], v0[1:2]),
        )
    assert "diverged at step 5 in episode 0 (d_u=0.0001, d_v=0.0001, seed 2)" in str(err.value)


def test_one_entry_per_episode_required(grid):
    with pytest.raises(ContractViolation):
        simulate_reaction_diffusion(
            grid, d_u=[1e-4, 1e-4], d_v=[1e-4], feed=0.04, kill=0.06,
            ic_seed=[1, 2], steps=5, dt=1e-3,
        )
    with pytest.raises(ContractViolation):
        simulate_reaction_diffusion(
            grid, d_u=[], d_v=[], feed=0.04, kill=0.06, ic_seed=[], steps=5, dt=1e-3
        )
