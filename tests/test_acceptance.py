"""Acceptance suite: one test per release criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The two training criteria build real datasets and train real models;
they are the slowest tests in the repository and respect their stated
wallclock budgets (15 min pretraining, 60 min for the OOD comparison).
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pytest

from sparkpde import rng
from sparkpde.augment import (
    curriculum_ratio,
    interpolate_topk,
    snap,
)
from sparkpde.autodiff import (
    Tape,
    Tensor,
    backward,
    gather_rows,
    parameters,
    spectral_channel_mix,
    spectral_plan,
    square,
    tensor_mean,
    tensor_sum,
)
from sparkpde.config import AugmentSection, DynamicsSection, PretrainSection
from sparkpde.datagen import (
    SPLIT_IN,
    SPLIT_OUT,
    Episode,
    EpisodeDataset,
    simulate_navier_stokes,
)
from sparkpde.dynamics import (
    decode,
    encode_history,
    init_dynamics,
    integrate,
    ode_rhs,
    train_dynamics,
)
from sparkpde.encoder import (
    init_channel_attention,
    init_gnn_encoder,
    init_mlp_decoder,
    channel_attention,
    gnn_encode,
    reconstruct,
)
from sparkpde.evaluation import evaluate_split
from sparkpde.grids import GridGraph
from sparkpde.metrics import energy_spectrum, psnr, ssim
from sparkpde.rng import derive_seed
from sparkpde.state_dictionary import (
    nearest_indices,
    new_codebook,
    pretrain,
    pretrain_loss,
    quantize,
)

from helpers import (
    check_gradients,
    direct_spectral_mix,
    embed_weights,
    full_modes,
    spectral_projection,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1. gradient integrity ------------------------------------------------------


def test_gradient_integrity():
    start = time.perf_counter()
    grid = GridGraph(4, 4)
    gen = rng.substream(1001, "accept/grad")
    worst = 0.0

    # channel attention (all weights + input)
    attn = init_channel_attention(gen, 2, 1, 3, grid, k_max=1)
    values = {name: t.data.copy() for name, t in parameters(attn).items()}
    values["x"] = gen.normal_array((grid.n_nodes, 2))

    def attn_loss(p):
        w = copy.copy(attn)
        for name, tensor in p.items():
            if name != "x":
                setattr(w, name.split(".")[-1], tensor)
        return tensor_sum(square(channel_attention(p["x"], Tensor(np.array([0.3])), w, grid)))

    worst = max(worst, check_gradients(attn_loss, values))

    # GNN layer
    gnn = init_gnn_encoder(gen, 2, 3, 2, n_layers=2)
    g_values = {name: t.data.copy() for name, t in parameters(gnn).items()}
    x0 = gen.normal_array((grid.n_nodes, 2))

    def gnn_loss(p):
        from sparkpde.encoder import GnnLayer

        layers = []
        for i, layer in enumerate(gnn):
            layers.append(
                GnnLayer(
                    self_w=p[f"encoder.gnn.{i}.self_w"],
                    neighbor_w=p[f"encoder.gnn.{i}.neighbor_w"],
                    combine_b=p[f"encoder.gnn.{i}.combine_b"],
                    resid_w=p[f"encoder.gnn.{i}.resid_w"] if layer.resid_w is not None else None,
                )
            )
        return tensor_sum(square(gnn_encode(Tensor(x0), grid, layers)))

    worst = max(worst, check_gradients(gnn_loss, g_values))

    # quantize straight-through (gradient reaches h as identity on dL/dz)
    entries = gen.normal_array((6, 3))
    h0 = gen.normal_array((5, 3))
    target = gen.normal_array((5, 3))
    cb = new_codebook(entries)
    h_param = Tensor(h0.copy(), requires_grad=True, name="h")
    with Tape() as tape:
        q = quantize(h_param, cb)
        st_loss = tensor_sum(square(q.straight_through - Tensor(target)))
    got = backward(st_loss, tape, params=[h_param])["h"]
    codes = entries[nearest_indices(h0, entries)]
    expected = 2.0 * (codes - target)
    st_err = float(np.max(np.abs(got - expected)))
    worst = max(worst, st_err)
    assert st_err < 1e-8

    # temporal attention + ODE rhs + unrolled RK4 + decoder, end to end
    dyn = init_dynamics(
        gen, DynamicsSection(ode_layers=1, k_max=1, decoder_hidden=3), grid, d_latent=3, d_obs=1
    )
    d_values = {name: t.data.copy() for name, t in parameters(dyn).items()}
    h_seq0 = gen.normal_array((2, grid.n_nodes, 3))
    y0 = gen.normal_array((2, grid.n_nodes, 1))

    def dyn_loss(p):
        from sparkpde.dynamics import OdeLayer
        from sparkpde.encoder import MlpWeights

        w = copy.copy(dyn)
        w.w_alpha = p["dynamics.w_alpha"]
        w.layers = [
            OdeLayer(
                wf_real=p["dynamics.0.wf_real"],
                wf_imag=p["dynamics.0.wf_imag"],
                w=p["dynamics.0.w"],
                b=p["dynamics.0.b"],
            )
        ]
        w.decoder = MlpWeights(
            w_a=p["dynamics.decoder.w_a"],
            b_a=p["dynamics.decoder.b_a"],
            w_b=p["dynamics.decoder.w_b"],
            b_b=p["dynamics.decoder.b_b"],
        )
        h0 = encode_history(Tensor(h_seq0), w)
        traj = integrate(h0, lambda s: ode_rhs(s, grid, w), 2, solver="rk4", substeps=2)
        y_hat = decode(traj, w)
        return tensor_sum(square(y_hat - Tensor(np.stack([y0, y0]))))

    worst = max(worst, check_gradients(dyn_loss, d_values, rtol=1e-4))

    # pretraining loss wrt every argument (decoder included via reconstruction)
    dec = init_mlp_decoder(gen, 3, 4, 2)
    p_values = {name: t.data.copy() for name, t in parameters(dec).items()}
    p_values["h"] = gen.normal_array((6, 3))
    p_values["E"] = gen.normal_array((4, 3))
    x_obs = gen.normal_array((6, 2))

    def pre_loss(p):
        from sparkpde.encoder import MlpWeights

        w = MlpWeights(
            w_a=p["encoder.decoder.w_a"],
            b_a=p["encoder.decoder.b_a"],
            w_b=p["encoder.decoder.w_b"],
            b_b=p["encoder.decoder.b_b"],
        )
        cb2 = new_codebook(np.zeros((4, 3)))
        cb2.embeddings = p["E"]
        q2 = quantize(p["h"], cb2)
        x_hat = reconstruct(q2.straight_through, w)
        return pretrain_loss(Tensor(x_obs), x_hat, p["h"], q2.codes, mu=0.25, gamma=1.0)

    # The tape differentiates pre_loss with its stop-gradient operands held
    # fixed: sg(codes), sg(h) and the straight-through offset codes - h. The
    # oracle is therefore central FD of that surrogate, frozen at the base
    # point, not of the forward value (whose h-derivative ignores the
    # straight-through identity and whose codes jump with h).
    base_idx = nearest_indices(p_values["h"], p_values["E"])
    base_codes = p_values["E"][base_idx]
    base_offset = base_codes - p_values["h"]

    def pre_surrogate(p):
        from sparkpde.encoder import MlpWeights

        w = MlpWeights(
            w_a=p["encoder.decoder.w_a"],
            b_a=p["encoder.decoder.b_a"],
            w_b=p["encoder.decoder.w_b"],
            b_b=p["encoder.decoder.b_b"],
        )
        x_hat = reconstruct(p["h"] + Tensor(base_offset), w)
        recon = tensor_mean(tensor_sum(square(x_hat - Tensor(x_obs)), axis=-1))
        commit = tensor_mean(tensor_sum(square(p["h"] - Tensor(base_codes)), axis=-1))
        codes = gather_rows(p["E"], base_idx)
        dictionary = tensor_mean(
            tensor_sum(square(Tensor(p_values["h"]) - codes), axis=-1)
        )
        return recon + 0.25 * commit + 1.0 * dictionary

    worst = max(worst, check_gradients(pre_loss, p_values, fd_loss=pre_surrogate))

    elapsed = time.perf_counter() - start
    _report(
        "gradient-integrity",
        worst < 1e-4 and elapsed < 300,
        f"worst rel err {worst:.2e}, {elapsed:.0f}s (< 300s)",
    )


# -- 2. spectral integrity -------------------------------------------------------


def test_spectral_integrity():
    # On spectral_channel_mix, the model's one spectral op: the projection P
    # onto all modes, Parseval on retained mode sets (the plan's modes and
    # their conjugates), and random per-mode weights against the direct DFT
    # of the full spectrum, with the plan's weights embedded.
    gen = rng.substream(1002, "accept/fft")
    worst_rt = 0.0
    worst_parseval = 0.0
    for size in (4, 8, 16, 32, 33):
        n = size * size
        x = gen.normal_array((n, 2))
        full = spectral_plan(size, size, size // 2)
        worst_rt = max(worst_rt, float(np.max(np.abs(spectral_projection(x, full) - x))))
        power = np.abs(np.fft.fft2(x.T.reshape(2, size, size))).reshape(2, n) ** 2
        for k_max in (1, size // 4, size // 2):
            plan = spectral_plan(size, size, k_max)
            space = np.sum(spectral_projection(x, plan) ** 2)
            freq = np.sum(power[:, full_modes(plan)]) / n
            worst_parseval = max(worst_parseval, abs(space - freq) / freq)
    worst_oracle = 0.0
    for size in (4, 8, 16, 33):
        x = gen.normal_array((size * size, 2))
        plan = spectral_plan(size, size, size // 4)
        wr = gen.normal_array((len(plan.mode_idx), 2, 2))
        wi = gen.normal_array((len(plan.mode_idx), 2, 2))
        out = spectral_channel_mix(Tensor(x), wr, wi, plan).data
        ref = direct_spectral_mix(x, embed_weights(plan, wr + 1j * wi), full_modes(plan),
                                  size, size)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(out - ref))) / scale)
    ok = worst_rt <= 1e-10 and worst_parseval <= 1e-10 and worst_oracle <= 1e-9
    _report(
        "spectral-integrity",
        ok,
        f"round-trip {worst_rt:.1e}, parseval {worst_parseval:.1e}, oracle {worst_oracle:.1e}",
    )


# -- 3. solver order ---------------------------------------------------------------


def test_solver_order():
    errors = []
    for substeps in (4, 8, 16, 32, 64):
        out = integrate(
            Tensor(np.array([[1.0]])), lambda s: -1.0 * s, 1, solver="rk4", substeps=substeps
        )
        errors.append(abs(out.data[0, 0, 0] - np.exp(-1.0)))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    ok = all(3.7 <= order <= 4.3 for order in orders)
    _report("solver-order", ok, f"orders {['%.2f' % o for o in orders]} in [3.7, 4.3]")


# -- 4. simulator physics ------------------------------------------------------------


def test_simulator_physics():
    grid = GridGraph(32, 32)
    amp = 0.8
    x = np.arange(grid.width) / grid.width
    omega0 = amp * np.tile(np.sin(2 * np.pi * x), (grid.height, 1))
    nu = 0.05
    [x] = simulate_navier_stokes(
        grid, nu=[nu], ic_seed=[0], steps=100, dt=1e-3, initial_vorticity=omega0[None]
    )
    expected = omega0 * np.exp(-nu * (2 * np.pi) ** 2 * 0.1)
    decay_rel = float(
        np.max(np.abs(x[-1, :, 0].reshape(32, 32) - expected)) / np.max(np.abs(expected))
    )

    [x2] = simulate_navier_stokes(grid, nu=[1e-3], ic_seed=[7], steps=150, dt=2e-3)
    mean_err = float(np.max(np.abs(x2[:, :, 0].mean(axis=1))))
    enstrophy = np.sum(x2[:, :, 0] ** 2, axis=1)
    monotone = bool(np.all(np.diff(enstrophy) <= enstrophy[0] * 1e-12))

    ok = decay_rel < 1e-4 and mean_err < 1e-12 and monotone
    _report(
        "simulator-physics",
        ok,
        f"decay rel {decay_rel:.2e} (<1e-4), mean |w| {mean_err:.1e} (<1e-12), "
        f"enstrophy monotone {monotone}",
    )


# -- 5. quantization contracts ----------------------------------------------------------


def test_quantization_contracts():
    gen = rng.substream(1005, "accept/vq")
    entries = gen.normal_array((64, 16))
    cb = new_codebook(entries)
    queries = gen.normal_array((10000, 16))
    got = nearest_indices(queries, entries)
    d2 = (
        np.sum(queries * queries, axis=1, keepdims=True)
        - 2.0 * queries @ entries.T
        + np.sum(entries * entries, axis=1)
    )
    brute = np.argmin(d2, axis=1)
    exact = bool(np.array_equal(got, brute))

    k, tau = 3, 0.7
    sample = queries[:500]
    interp = interpolate_topk(sample, cb, k, tau)
    worst_interp = 0.0
    for i in range(sample.shape[0]):
        dist = np.array([np.sum((sample[i] - e) ** 2) for e in entries])
        order = np.argsort(dist, kind="stable")[:k]
        wts = np.exp(-dist[order] / tau)
        wts /= wts.sum()
        ref = np.sum(wts[:, None] * entries[order], axis=0)
        worst_interp = max(worst_interp, float(np.max(np.abs(interp[i] - ref))))

    snapped = snap(sample, cb)
    idempotent = bool(np.array_equal(snap(snapped, cb), snapped))
    k1_equals_snap = bool(np.array_equal(interpolate_topk(sample, cb, 1, tau), snapped))

    ok = exact and worst_interp < 1e-12 and idempotent and k1_equals_snap
    _report(
        "quantization-contracts",
        ok,
        f"10k brute-force exact {exact}, interp err {worst_interp:.1e} (<1e-12), "
        f"idempotent {idempotent}, k=1==snap {k1_equals_snap}",
    )


# -- shared desk-scale dataset builders ---------------------------------------------------


def _ns_dataset(id_values, ood_values, reps, t_total, seed=0, record_every=25, dt=2e-3):
    grid = GridGraph(32, 32)
    jobs = [(nu, rep) for nu in list(id_values) + list(ood_values) for rep in range(reps)]
    seeds = [derive_seed(seed, f"datagen/{nu!r}/{rep}") for nu, rep in jobs]
    trajectories = simulate_navier_stokes(
        grid,
        nu=[nu for nu, _ in jobs],
        ic_seed=seeds,
        steps=(t_total - 1) * record_every,
        dt=dt,
        record_every=record_every,
    )
    episodes = [
        Episode(delta=[nu], x=x, seed=s, split=SPLIT_IN if nu in id_values else SPLIT_OUT)
        for (nu, _), x, s in zip(jobs, trajectories, seeds)
    ]
    ds = EpisodeDataset(grid=grid, channel_names=["vorticity"], episodes=episodes)
    return ds


# -- 6. pretraining progress ----------------------------------------------------------------


@pytest.mark.slow
def test_pretraining_progress():
    start = time.perf_counter()
    ds = _ns_dataset(
        id_values=[1e-2, 3e-3, 1e-3, 3e-4], ood_values=[1e-4], reps=8, t_total=14, seed=11
    )
    assert len(ds.split_indices(SPLIT_IN)) == 32
    # top up to exactly 40 in-domain episodes with a second parameter sweep
    extra = _ns_dataset(
        id_values=[3e-2, 1e-3], ood_values=[], reps=4, t_total=14, seed=12
    )
    ds.episodes.extend(extra.episodes[i] for i in extra.split_indices(SPLIT_IN))
    ds.compute_normalization()
    n_in = len(ds.split_indices(SPLIT_IN))
    assert n_in == 40

    cfg = PretrainSection(
        epochs=10, batch_size=32, lr=2e-3, codebook_size=64, d_latent=32,
        hidden=64, attention_hidden=32, gnn_layers=2, k_max=8,
    )
    result = pretrain(ds, cfg, seed=3)
    elapsed = time.perf_counter() - start
    initial, final = result.loss_history[0], result.loss_history[-1]
    perplexity = result.perplexity_history[-1]
    ok = final <= 0.5 * initial and perplexity >= 0.1 * 64 and elapsed < 900
    _report(
        "pretraining-progress",
        ok,
        f"{n_in} episodes, loss {initial:.4f} -> {final:.4f} "
        f"(target <= {0.5 * initial:.4f}), perplexity {perplexity:.1f} (>= 6.4), "
        f"{elapsed:.0f}s (< 900s)",
    )


# -- 7. central OOD claim ----------------------------------------------------------------------


@pytest.mark.slow
def test_ood_improvement():
    start = time.perf_counter()
    seeds = (0, 1, 2)
    t0, horizon = 4, 4
    ds = _ns_dataset(
        id_values=[1e-2, 3e-3, 1e-3, 3e-4],
        ood_values=[1e-4, 3e-5],
        reps=3,
        t_total=t0 + horizon + 6,
        seed=0,
    )
    out_aug, out_noaug = [], []
    for seed in seeds:
        pre = pretrain(
            ds,
            PretrainSection(
                epochs=10, batch_size=32, lr=2e-3, codebook_size=64, d_latent=32,
                hidden=64, attention_hidden=32, gnn_layers=2, k_max=8,
            ),
            seed=seed,
        )
        dyn_cfg = DynamicsSection(
            t0=t0, horizon=horizon, epochs=14, lr=3e-3, batch_size=8,
            ode_layers=2, k_max=8, decoder_hidden=64, solver="euler", substeps=1,
            val_fraction=0.15, lambda_reg=1e-6,
        )
        aug = AugmentSection(
            mode="interpolate", k=3, tau=None, start_epoch=3, ramp_epochs=4, max_ratio=0.5
        )
        for label, aug_cfg, sink in (("aug", aug, out_aug), ("noaug", None, out_noaug)):
            res = train_dynamics(
                ds, pre.encoder, pre.codebook, dyn_cfg, seed=seed, aug=aug_cfg
            )
            report, _ = evaluate_split(
                ds, pre.encoder, res.weights, dyn_cfg, SPLIT_OUT, with_spectra=False
            )
            sink.append(report.mse)
            print(f"  seed {seed} {label}: OOD mse {report.mse:.5f}")
    med_aug = float(np.median(out_aug))
    med_noaug = float(np.median(out_noaug))
    improvement = (med_noaug - med_aug) / med_noaug
    elapsed = time.perf_counter() - start
    ok = improvement >= 0.05 and elapsed < 3600
    _report(
        "ood-improvement",
        ok,
        f"median OOD mse aug {med_aug:.5f} vs no-aug {med_noaug:.5f}: "
        f"improvement {improvement * 100:.1f}% (>= 5%), {elapsed:.0f}s (< 3600s)",
    )


# -- 8. metric fidelity -----------------------------------------------------------------------


def test_metric_fidelity():
    gen = rng.substream(1008, "accept/metrics")
    x = gen.normal_array((32, 32))
    ssim_exact = ssim(x, x, max_val=float(np.abs(x).max())) == 1.0

    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)
    psnr_val = psnr(a, b, max_val=1.0)
    psnr_ok = abs(psnr_val - 20.0) < 1e-12

    field = gen.normal_array((32, 32))
    ks, energy = energy_spectrum(field)
    power = np.abs(np.fft.fft2(field)) ** 2
    freqs = np.fft.fftfreq(32, d=1 / 32)
    kxx, kyy = np.meshgrid(freqs, freqs)
    disk = np.rint(np.hypot(kxx, kyy)) <= 16
    parseval_rel = abs(energy.sum() - power[disk].sum()) / power[disk].sum()

    rolled = np.roll(np.roll(field, 7, axis=0), 3, axis=1)
    _, energy_rolled = energy_spectrum(rolled)
    translation = float(np.max(np.abs(energy_rolled - energy)) / max(energy.max(), 1.0))

    ok = ssim_exact and psnr_ok and parseval_rel <= 1e-8 and translation <= 1e-9
    _report(
        "metric-fidelity",
        ok,
        f"ssim(x,x)==1 {ssim_exact}, psnr 20dB {psnr_ok}, "
        f"spectrum parseval {parseval_rel:.1e} (<=1e-8), translation {translation:.1e} (<=1e-9)",
    )


# -- 9. reproducibility -----------------------------------------------------------------------


@pytest.mark.slow
def test_reproducibility(tmp_path):
    from sparkpde.cli import main

    config = tmp_path / "exp.yaml"
    config.write_text(
        """
seed: 77
dataset:
  generator: navier_stokes
  grid: {height: 16, width: 16}
  params: [1.0e-2, 1.0e-3]
  ood: {mode: explicit, out_values: [1.0e-3]}
  episodes_per_param: 2
  t_total: 8
  dt: 5.0e-3
  record_every: 4
pretrain:
  epochs: 3
  codebook_size: 12
  d_latent: 8
  hidden: 16
  attention_hidden: 8
  gnn_layers: 1
  k_max: 3
dynamics:
  t0: 3
  horizon: 3
  epochs: 3
  batch_size: 4
  ode_layers: 1
  k_max: 3
  decoder_hidden: 12
  substeps: 1
""",
        encoding="utf-8",
    )
    pairs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        assert main(["gen-data", "--config", str(config), "--out", str(d / "data")]) == 0
        assert (
            main(
                [
                    "pretrain",
                    "--config", str(config),
                    "--dataset", str(d / "data" / "dataset.spds"),
                    "--out", str(d / "pre"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "train",
                    "--config", str(config),
                    "--dataset", str(d / "data" / "dataset.spds"),
                    "--checkpoint", str(d / "pre" / "pretrain.ckpt"),
                    "--out", str(d / "dyn"),
                ]
            )
            == 0
        )
        pairs[tag] = {
            "dataset": (d / "data" / "dataset.spds").read_bytes(),
            "pretrain": (d / "pre" / "pretrain.ckpt").read_bytes(),
            "dynamics": (d / "dyn" / "dynamics.ckpt").read_bytes(),
        }
    identical = {k: pairs["one"][k] == pairs["two"][k] for k in pairs["one"]}
    ok = all(identical.values())
    _report("reproducibility", ok, f"byte-identical artifacts: {identical}")


# -- 10. curriculum conformance -----------------------------------------------------------------


@pytest.mark.slow
def test_curriculum_conformance(tmp_path):
    from sparkpde.cli import main

    config = tmp_path / "exp.yaml"
    config.write_text(
        """
seed: 5
dataset:
  generator: navier_stokes
  grid: {height: 16, width: 16}
  params: [1.0e-2, 1.0e-3]
  ood: {mode: explicit, out_values: [1.0e-3]}
  episodes_per_param: 2
  t_total: 8
  dt: 5.0e-3
  record_every: 4
pretrain:
  epochs: 2
  codebook_size: 12
  d_latent: 8
  hidden: 16
  attention_hidden: 8
  gnn_layers: 1
  k_max: 3
dynamics:
  t0: 3
  horizon: 3
  epochs: 5
  batch_size: 4
  ode_layers: 1
  k_max: 3
  decoder_hidden: 12
  substeps: 1
augment:
  start_epoch: 1
  ramp_epochs: 2
  max_ratio: 0.6
""",
        encoding="utf-8",
    )
    d = tmp_path
    assert main(["gen-data", "--config", str(config), "--out", str(d / "data")]) == 0
    assert (
        main(
            [
                "pretrain",
                "--config", str(config),
                "--dataset", str(d / "data" / "dataset.spds"),
                "--out", str(d / "pre"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--config", str(config),
                "--dataset", str(d / "data" / "dataset.spds"),
                "--checkpoint", str(d / "pre" / "pretrain.ckpt"),
                "--out", str(d / "dyn"),
            ]
        )
        == 0
    )
    aug = AugmentSection(start_epoch=1, ramp_epochs=2, max_ratio=0.6)
    lines = (d / "dyn" / "metrics.csv").read_text().strip().splitlines()
    conforms = True
    for line in lines[1:]:
        cells = line.split(",")
        if float(cells[3]) != curriculum_ratio(int(cells[0]), aug):
            conforms = False

    code = main(
        [
            "sweep-k",
            "--config", str(config),
            "--dataset", str(d / "data" / "dataset.spds"),
            "--checkpoint", str(d / "pre" / "pretrain.ckpt"),
            "--out", str(d / "sweep"),
        ]
    )
    sweep_lines = (d / "sweep" / "sweep_k.csv").read_text().strip().splitlines()
    ks = [int(line.split(",")[0]) for line in sweep_lines[1:]]
    sweep_ok = code == 0 and ks == [1, 3, 5, 7, 9, 11]
    ok = conforms and sweep_ok
    _report(
        "curriculum-conformance",
        ok,
        f"logged ratios match formula {conforms}, sweep grid {ks} emitted {sweep_ok}",
    )
