"""Forecaster contracts: attention, ODE rhs oracle, solver order, training."""

from __future__ import annotations

import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sparkpde import dynamics, evaluation, rng
from sparkpde.autodiff import (
    Tape,
    Tensor,
    backward,
    concat,
    parameter,
    parameters,
    square,
    tensor,
    tensor_sum,
)
from sparkpde.config import AugmentSection, DynamicsSection, PretrainSection
from sparkpde.datagen import EpisodeDataset
from sparkpde.datagen.dataset import Episode
from sparkpde.dynamics import (
    decode,
    encode_history,
    frozen_checksum,
    init_dynamics,
    integrate,
    ode_rhs,
    solver_step,
    train_dynamics,
)
from sparkpde.encoder import init_encoder_stack
from sparkpde.errors import ContractViolation, NumericError
from sparkpde.grids import GridGraph
from sparkpde.state_dictionary import new_codebook

from helpers import check_gradients, embed_weights, full_modes, gelu, recorded_twice, set_cores


@pytest.fixture()
def grid():
    return GridGraph(4, 4)


def _weights(grid, d_latent=3, d_obs=1, seed=3, **kwargs):
    gen = rng.substream(seed, "dyn")
    cfg = DynamicsSection(ode_layers=1, k_max=1, decoder_hidden=4, **kwargs)
    return init_dynamics(gen, cfg, grid, d_latent=d_latent, d_obs=d_obs)


# -- encode_history ---------------------------------------------------------------


def test_history_zero_attention_weights(grid):
    w = _weights(grid)
    w.w_alpha.data[:] = 0.0
    h_seq = rng.substream(1, "h").normal_array((1, grid.n_nodes, 3))
    # alpha = <h, tanh(0)> = 0 -> pooled state is zero
    out = encode_history(h_seq, w)
    np.testing.assert_array_equal(out.data, np.zeros((grid.n_nodes, 3)))


def test_history_constant_sequence(grid):
    w = _weights(grid)
    c = rng.substream(2, "c").normal_array((grid.n_nodes, 3))
    h_seq = np.stack([c, c, c, c])
    out = encode_history(h_seq, w).data
    target = np.tanh(c @ w.w_alpha.data)
    alpha = np.sum(c * target, axis=-1, keepdims=True)
    np.testing.assert_allclose(out, alpha * c, atol=1e-12)


def test_history_gradient_matches_finite_differences(grid):
    gen = rng.substream(4, "hist-grad")
    h_seq = gen.normal_array((2, grid.n_nodes, 3))
    values = {"w_alpha": gen.normal_array((3, 3)), "h": h_seq}

    def loss(p):
        w = _weights(grid)
        w.w_alpha = p["w_alpha"]
        return tensor_sum(square(encode_history(p["h"], w)))

    check_gradients(loss, values)


# -- ode_rhs ------------------------------------------------------------------------


def test_rhs_zero_weights_gives_zero(grid):
    w = _weights(grid)
    for layer in w.layers:
        layer.wf_real.data[:] = 0.0
        layer.wf_imag.data[:] = 0.0
        layer.w.data[:] = 0.0
        layer.b.data[:] = 0.0
    h = rng.substream(5, "h").normal_array((grid.n_nodes, 3))
    out = ode_rhs(h, grid, w).data
    np.testing.assert_array_equal(out, np.zeros_like(h))


def test_rhs_constant_field(grid):
    # L=1, W_F = 0, W = c*I: row-stochastic A preserves constants, so
    # dH/dt = gelu(c*h_bar + b) uniformly.
    c_mix = 0.8
    w = _weights(grid)
    layer = w.layers[0]
    layer.wf_real.data[:] = 0.0
    layer.wf_imag.data[:] = 0.0
    layer.w.data[:] = c_mix * np.eye(3)
    layer.b.data[:] = np.array([0.1, -0.2, 0.3])
    h_bar = np.array([1.5, -0.5, 2.0])
    h = np.tile(h_bar, (grid.n_nodes, 1))
    out = ode_rhs(h, grid, w).data
    expected = np.tile(gelu(c_mix * h_bar + layer.b.data), (grid.n_nodes, 1))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def _dense_rhs_oracle(h, grid, w):
    """Straight-line reference with dense DFT matrices and dense adjacency,
    over the full spectrum with the plan's weights embedded."""
    hg, wg = grid.height, grid.width
    n = grid.n_nodes
    d = h.shape[-1]
    rows = np.arange(n)
    rr, rc = np.divmod(rows, wg)
    # 2-D DFT as a dense N x N operator over flattened row-major fields
    f_mat = np.exp(
        -2j * np.pi * (np.outer(rr, rr) / hg + np.outer(rc, rc) / wg)
    )
    f_inv = np.conj(f_mat) / n
    a_dense = grid.adjacency.toarray()
    mode_idx = full_modes(w.plan)

    state = h.astype(np.complex128)
    total = None
    for layer in w.layers:
        weights_c = embed_weights(w.plan, layer.wf_real.data + 1j * layer.wf_imag.data)
        spec = a_dense @ (f_mat @ state)
        full = np.zeros((n, d), dtype=np.complex128)
        for pos, k in enumerate(mode_idx):
            full[k] = spec[k] @ weights_c[pos]
        spectral = (f_inv @ full).real
        spatial = a_dense @ state.real @ layer.w.data
        y = gelu(spectral + spatial + layer.b.data)
        total = y if total is None else total + y
        state = y.astype(np.complex128)
    return total


def test_rhs_matches_dense_oracle(grid):
    gen = rng.substream(6, "oracle/spectral/sum")
    cfg = DynamicsSection(ode_layers=2, k_max=1, decoder_hidden=4)
    w = init_dynamics(gen, cfg, grid, d_latent=3, d_obs=1)
    h = gen.normal_array((grid.n_nodes, 3))
    with Tape():
        got = ode_rhs(Tensor(h, requires_grad=True), grid, w).data
    expected = _dense_rhs_oracle(h, grid, w)
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_rhs_mixes_with_the_plan_its_weights_hold(grid, monkeypatch):
    # Every layer's spectral op takes the one plan built with the weights,
    # which holds the adjacency's Fourier symbol; no call builds a plan, and
    # two calls give the same output and gradients bit for bit.
    cfg = DynamicsSection(ode_layers=2, k_max=1, decoder_hidden=4)
    w = init_dynamics(rng.substream(6, "plan"), cfg, grid, d_latent=3, d_obs=1)
    stencil = grid.adjacency[0].toarray().reshape(grid.height, grid.width)
    np.testing.assert_array_equal(w.plan.symbol, np.fft.fft2(stencil).real.reshape(-1))
    h = rng.substream(7, "plan/h").normal_array((2, grid.n_nodes, 3))
    runs, plans = recorded_twice(lambda: ode_rhs(h, grid, w), parameters(w), monkeypatch)
    assert len(plans) == 2 * 2 and all(plan is w.plan for plan in plans)
    for first, second in zip(*runs):
        assert first.tobytes() == second.tobytes()


def test_rk4_step_tape_budget(grid):
    # The outer tape keeps one checkpoint record per step, then integrate
    # stacks the state (reshape, concat). The step's private tape, recorded
    # when backward recomputes it, holds per layer two nodes, its spectral op
    # and one fused graph layer (no separate sparse product, matmul, bias adds
    # or activation), and ode_rhs one add per layer after the first. One RK4
    # step evaluates the rhs 4 times, forms 3 stage states (mul, add) and
    # combines the slopes (3 mul, 4 add).
    cfg = DynamicsSection(ode_layers=2, k_max=1, decoder_hidden=4)
    w = init_dynamics(rng.substream(6, "tape-budget"), cfg, grid, d_latent=3, d_obs=1)
    h = rng.substream(7, "tape-budget/h").normal_array((2, grid.n_nodes, 3))
    with Tape() as tape:
        integrate(Tensor(h), lambda s: ode_rhs(s, grid, w), 1, substeps=1)
    assert Counter(node.op for node in tape._nodes) == {"checkpoint": 1, "reshape": 1, "concat": 1}
    private, _ = tape._nodes[0].recompute()
    assert Counter(node.op for node in private._nodes) == {
        "spectral_channel_mix": 4 * 2,
        "graph_layer": 4 * 2,
        "add": 4 * 1 + 3 + 4,
        "mul": 3 + 3,
    }


def _unrolled(h0, rhs, horizon, solver, substeps):
    """``integrate`` with every step recorded in place on one tape."""
    state, outputs = h0, []
    for _ in range(horizon):
        for _ in range(substeps):
            state = solver_step(state, rhs, solver, 1.0 / substeps)
        outputs.append(state.reshape(1, *state.shape))
    return concat(outputs, axis=0)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("solver,substeps", [("rk4", 1), ("rk4", 2), ("euler", 1),
                                             ("euler", 2)])
def test_recomputed_steps_give_the_one_tape_gradients(grid, monkeypatch, cores, solver,
                                                      substeps):
    # Each step runs again in backward, on the worker thread at two cores,
    # switching threads every 10 us; the gradients of h0 and of every ODE
    # weight are those of the hand-unrolled tape bit for bit.
    cfg = DynamicsSection(ode_layers=2, k_max=1, decoder_hidden=4)
    w = init_dynamics(rng.substream(11, "recompute-oracle"), cfg, grid, d_latent=3, d_obs=1)
    h0 = parameter(rng.substream(12, "recompute-oracle/h0").normal_array((2, grid.n_nodes, 3)),
                   "h0")
    params = [h0, *parameters(*w.layers).values()]

    def gradients(unroll):
        with Tape() as tape:
            states = unroll(h0, lambda s: ode_rhs(s, grid, w), 2, solver, substeps)
            loss = tensor_sum(square(states))
        return backward(loss, tape, params)

    want = gradients(_unrolled)
    pools = []
    real = tensor.ThreadPoolExecutor

    def pool(max_workers):
        pools.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(tensor, "ThreadPoolExecutor", pool)
    set_cores(monkeypatch, cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = gradients(integrate)
    finally:
        sys.setswitchinterval(interval)
    assert pools == ([1] if cores == 2 else [])
    for p in params:
        assert got[p.name].tobytes() == want[p.name].tobytes(), p.name


def test_rhs_gradient_matches_finite_differences(grid):
    gen = rng.substream(8, "rhs-grad")
    w = _weights(grid, seed=8)
    names = {
        "dynamics.0.wf_real": w.layers[0].wf_real,
        "dynamics.0.wf_imag": w.layers[0].wf_imag,
        "dynamics.0.w": w.layers[0].w,
        "dynamics.0.b": w.layers[0].b,
        "dynamics.w_alpha": w.w_alpha,
    }
    values = {k: t.data.copy() for k, t in names.items()}
    values["h"] = gen.normal_array((grid.n_nodes, 3))

    def loss(p):
        import copy

        ww = copy.copy(w)
        ww.layers = [
            type(w.layers[0])(
                wf_real=p["dynamics.0.wf_real"],
                wf_imag=p["dynamics.0.wf_imag"],
                w=p["dynamics.0.w"],
                b=p["dynamics.0.b"],
            )
        ]
        ww.w_alpha = p["dynamics.w_alpha"]
        return tensor_sum(square(ode_rhs(p["h"], grid, ww)))

    check_gradients(loss, values)


# -- integrate ----------------------------------------------------------------------


def test_integrate_zero_rhs_constant():
    h0 = rng.substream(9, "h0").normal_array((5, 2))
    out = integrate(Tensor(h0), lambda s: Tensor(np.zeros_like(s.data)), 3)
    for t in range(3):
        np.testing.assert_array_equal(out.data[t], h0)


def test_integrate_linear_decay_matches_exponential():
    h0 = Tensor(np.array([[1.0]]))
    out = integrate(h0, lambda s: -1.0 * s, 1, solver="rk4", substeps=32)
    assert out.data[0, 0, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_rk4_convergence_order():
    errors = []
    substeps_grid = [4, 8, 16, 32, 64]
    for n in substeps_grid:
        out = integrate(Tensor(np.array([[1.0]])), lambda s: -1.0 * s, 1, substeps=n)
        errors.append(abs(out.data[0, 0, 0] - np.exp(-1.0)))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    for order in orders:
        assert 3.7 <= order <= 4.3


def test_euler_single_step_definition():
    h0 = np.array([[2.0, -1.0]])
    rhs_value = np.array([[0.5, 0.25]])
    out = integrate(Tensor(h0), lambda s: Tensor(rhs_value), 1, solver="euler", substeps=1)
    np.testing.assert_array_equal(out.data[0], h0 + rhs_value)


def test_integrate_rejects_bad_solver_settings():
    with pytest.raises(ContractViolation, match="solver"):
        integrate(Tensor(np.zeros((2, 2))), lambda s: s, 1, solver="rk9")
    with pytest.raises(ContractViolation, match="substeps"):
        integrate(Tensor(np.zeros((2, 2))), lambda s: s, 1, substeps=0)
    for horizon in (0, -1):
        with pytest.raises(ContractViolation, match="horizon"):
            integrate(Tensor(np.zeros((2, 2))), lambda s: s, horizon)


@pytest.mark.filterwarnings("ignore:overflow")
def test_integrate_divergence_aborts_with_time_index(monkeypatch):
    # The same message with no tape and under one, whose steps are
    # checkpoints, at one core and at two.
    message = r"^integration diverged at t=2 \(max finite \|H\| = 0\)$"
    with pytest.raises(NumericError, match=message):
        integrate(Tensor(np.array([[1.0]])), lambda s: 1e200 * s * s, 3, solver="euler",
                  substeps=1)
    threads = threading.active_count()
    h0 = parameter(np.array([[1.0]]), "h0")
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        with Tape(), pytest.raises(NumericError, match=message):
            integrate(h0, lambda s: 1e200 * s * s, 3, solver="euler", substeps=1)
    assert threading.active_count() == threads


# -- decode -----------------------------------------------------------------------


def test_decode_zero_weights(grid):
    w = _weights(grid)
    for t in parameters(w.decoder).values():
        t.data[:] = 0.0
    h = rng.substream(10, "dec").normal_array((grid.n_nodes, 3))
    np.testing.assert_array_equal(decode(h, w).data, np.zeros((grid.n_nodes, 1)))


# -- end-to-end gradient -------------------------------------------------------------


def test_end_to_end_gradient_small_instance():
    grid = GridGraph(4, 4)
    gen = rng.substream(11, "e2e")
    w = init_dynamics(
        gen, DynamicsSection(ode_layers=1, k_max=1, decoder_hidden=3), grid, d_latent=4, d_obs=1
    )
    h_seq0 = gen.normal_array((2, grid.n_nodes, 4))
    target = gen.normal_array((2, grid.n_nodes, 1))
    names = dict(parameters(w))
    values = {k: t.data.copy() for k, t in names.items()}

    def loss(p):
        import copy

        ww = copy.copy(w)
        ww.w_alpha = p["dynamics.w_alpha"]
        ww.layers = [
            type(w.layers[0])(
                wf_real=p["dynamics.0.wf_real"],
                wf_imag=p["dynamics.0.wf_imag"],
                w=p["dynamics.0.w"],
                b=p["dynamics.0.b"],
            )
        ]
        ww.decoder = type(w.decoder)(
            w_a=p["dynamics.decoder.w_a"],
            b_a=p["dynamics.decoder.b_a"],
            w_b=p["dynamics.decoder.w_b"],
            b_b=p["dynamics.decoder.b_b"],
        )
        h0 = encode_history(Tensor(h_seq0), ww)
        traj = integrate(h0, lambda s: ode_rhs(s, grid, ww), 2, substeps=1)
        y_hat = decode(traj, ww)
        return tensor_sum(square(y_hat - Tensor(np.stack([target, target]))))

    worst = check_gradients(loss, values, rtol=1e-3)
    assert worst < 1e-3


# -- train_dynamics --------------------------------------------------------------------


def _constant_dataset(grid, episodes=2, t_total=8):
    eps = [
        Episode(
            delta=np.array([1e-3]),
            x=np.full((t_total, grid.n_nodes, 1), 0.4),
            seed=i,
        )
        for i in range(episodes)
    ]
    return EpisodeDataset(grid=grid, channel_names=["field"], episodes=eps)


def _frozen_stack(grid, d_latent=4):
    gen = rng.substream(77, "frozen")
    cfg = PretrainSection(d_latent=d_latent, hidden=8, attention_hidden=4, gnn_layers=1, k_max=1)
    encoder = init_encoder_stack(gen, cfg, grid, d_obs=1, d_delta=1)
    codebook = new_codebook(gen.normal_array((6, d_latent)))
    return encoder, codebook


SEED = 5


def _tiny_dyn_config(**overrides):
    base = dict(
        t0=2, horizon=2, epochs=6, lr=5e-3, batch_size=4,
        ode_layers=1, k_max=1, decoder_hidden=6, substeps=1,
        val_fraction=0.25, lambda_reg=0.0,
    )
    base.update(overrides)
    return DynamicsSection(**base)


def test_train_constant_dataset_reaches_tiny_mse():
    grid = GridGraph(8, 8)
    ds = _constant_dataset(grid)
    encoder, codebook = _frozen_stack(grid)
    result = train_dynamics(ds, encoder, codebook, _tiny_dyn_config(epochs=25, lr=1e-2), seed=SEED)
    assert result.history[-1].val_mse < 1e-5


def test_weight_decay_shrinks_norms():
    grid = GridGraph(8, 8)
    encoder, codebook = _frozen_stack(grid)
    gen = rng.substream(13, "wdecay")
    eps = [
        Episode(delta=np.array([1e-3]), x=gen.normal_array((8, grid.n_nodes, 1)), seed=i)
        for i in range(2)
    ]
    ds = EpisodeDataset(grid=grid, channel_names=["field"], episodes=eps)

    def total_norm(result):
        return sum(float(np.sum(t.data**2)) for t in parameters(result.weights).values())

    free = train_dynamics(ds, encoder, codebook, _tiny_dyn_config(lambda_reg=0.0), seed=SEED)
    decayed = train_dynamics(ds, encoder, codebook, _tiny_dyn_config(lambda_reg=10.0), seed=SEED)
    assert total_norm(decayed) < total_norm(free)


def test_frozen_components_unchanged_and_checksummed(monkeypatch):
    grid = GridGraph(8, 8)
    ds = _constant_dataset(grid)
    encoder, codebook = _frozen_stack(grid)
    before = frozen_checksum(encoder, codebook)
    train_dynamics(ds, encoder, codebook, _tiny_dyn_config(), seed=SEED)
    assert frozen_checksum(encoder, codebook) == before

    # A frozen tensor written during training is caught by the checksum.
    # Training encodes through ``evaluation.encode_episodes``, which reads
    # ``episode_latents`` from its own module.
    latents = evaluation.episode_latents

    def writing_latents(ds, encoder, episode_idx):
        codebook.embeddings.data[0, 0] += 1.0
        return latents(ds, encoder, episode_idx)

    monkeypatch.setattr(evaluation, "episode_latents", writing_latents)
    with pytest.raises(ContractViolation, match="frozen"):
        train_dynamics(ds, encoder, codebook, _tiny_dyn_config(), seed=SEED)


def test_no_augment_never_calls_augmentation():
    grid = GridGraph(8, 8)
    ds = _constant_dataset(grid)
    encoder, codebook = _frozen_stack(grid)
    result = train_dynamics(ds, encoder, codebook, _tiny_dyn_config(), seed=SEED, aug=None)
    assert result.augment_calls == 0


def test_augmented_run_logs_curriculum_ratio_exactly():
    grid = GridGraph(8, 8)
    ds = _constant_dataset(grid, episodes=3, t_total=10)
    encoder, codebook = _frozen_stack(grid)
    aug = AugmentSection(mode="snap", start_epoch=2, ramp_epochs=4, max_ratio=0.6)
    from sparkpde.augment import curriculum_ratio

    result = train_dynamics(ds, encoder, codebook, _tiny_dyn_config(epochs=8), seed=SEED, aug=aug)
    for row in result.history:
        assert row.aug_ratio == curriculum_ratio(row.epoch, aug)
    assert result.augment_calls > 0
    assert result.tau is not None


def test_unresolved_curriculum_refused():
    # Loading resolves the -1 defaults; a section that skipped loading is refused.
    grid = GridGraph(8, 8)
    ds = _constant_dataset(grid)
    encoder, codebook = _frozen_stack(grid)
    with pytest.raises(ContractViolation, match="unresolved"):
        train_dynamics(ds, encoder, codebook, _tiny_dyn_config(), seed=SEED, aug=AugmentSection())


def test_training_deterministic():
    grid = GridGraph(8, 8)
    encoder, codebook = _frozen_stack(grid)

    def run():
        ds = _constant_dataset(grid)
        result = train_dynamics(ds, encoder, codebook, _tiny_dyn_config(epochs=3), seed=SEED)
        return [row.train_mse for row in result.history]

    assert run() == run()


# -- episode latents ------------------------------------------------------------


def _random_dataset(grid, channels: int, t_totals) -> EpisodeDataset:
    gen = rng.substream(3, "episodes")
    eps = [
        Episode(delta=[10.0 ** -(2 + i)], x=gen.normal_array((t, grid.n_nodes, channels)), seed=i)
        for i, t in enumerate(t_totals)
    ]
    names = [f"c{c}" for c in range(channels)]
    return EpisodeDataset(grid=grid, channel_names=names, episodes=eps)


def _whole_episode_latents(ds, encoder, e) -> np.ndarray:
    ep = ds.episodes[e]
    return encoder.encode(ds.normalize(ep.x), np.tile(ep.delta, (ep.t_total, 1)), ds.grid).data


@pytest.mark.parametrize("channels", [1, 2])
def test_episode_latents_are_the_whole_episode_encoding(channels):
    # Episodes below, at and across ENCODE_FRAMES frames. Channel attention's
    # spectral GEMMs have frames x channels columns, which at 4 or fewer take
    # another OpenBLAS kernel, so attention per chunk would change the bytes.
    # Both GNN layers change the width, so both have a resid_w.
    assert dynamics.ENCODE_FRAMES == 4
    grid = GridGraph(8, 8)
    t_totals = (1, 3, 4, 5, 9)
    ds = _random_dataset(grid, channels, t_totals)
    cfg = PretrainSection(d_latent=8, hidden=6, attention_hidden=4, gnn_layers=2, k_max=2)
    encoder = init_encoder_stack(rng.substream(4, "encoder"), cfg, grid, d_obs=channels, d_delta=1)
    assert all(layer.resid_w is not None for layer in encoder.gnn)
    for e, t in enumerate(t_totals):
        latents = dynamics.episode_latents(ds, encoder, e)
        assert latents.shape == (t, grid.n_nodes, 8)
        assert latents.tobytes() == _whole_episode_latents(ds, encoder, e).tobytes()


def test_episode_latents_hold_a_fraction_of_the_whole_episode_transients():
    # A 16-frame 32x32 episode at hidden width 64, as the eval workloads
    # encode: the GNN transients of 4 frames instead of 16 (13.3 vs 36.3 MiB
    # traced with numpy 2.4.6).
    grid = GridGraph(32, 32)
    ds = _random_dataset(grid, 1, (16,))
    encoder = init_encoder_stack(rng.substream(4, "encoder"), PretrainSection(hidden=64), grid,
                                 d_obs=1, d_delta=1)

    def traced_peak(encode) -> int:
        tracemalloc.start()
        try:
            encode(ds, encoder, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(dynamics.episode_latents) < traced_peak(_whole_episode_latents) / 2
