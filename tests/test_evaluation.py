"""Split evaluation on the forecast pool: outputs that depend on neither the
batch size nor the core count, the pool's thread-safety guards, and
divergences that name their windows."""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from sparkpde import evaluation, rng
from sparkpde.autodiff import Tape, Tensor
from sparkpde.config import DynamicsSection, PretrainSection
from sparkpde.datagen import EpisodeDataset, simulate_navier_stokes
from sparkpde.datagen.dataset import Episode
from sparkpde.dynamics import init_dynamics
from sparkpde.encoder import init_encoder_stack
from sparkpde.errors import ContractViolation, NumericError
from sparkpde.grids import GridGraph

from helpers import set_cores

# The 8x8 frames are smaller than the SSIM window.
pytestmark = pytest.mark.filterwarnings("ignore:image smaller than the SSIM window")

CFG = DynamicsSection(t0=2, horizon=2, ode_layers=2, k_max=2, decoder_hidden=6, substeps=2)


@pytest.fixture(scope="module")
def model():
    """A small NS dataset (one in-domain episode, three out-of-domain ones of
    12 frames: 15 'out' windows) with a random encoder and forecaster."""
    grid = GridGraph(8, 8)
    nu, seeds = [1e-2, 3e-3, 1e-3, 3e-4], [1, 2, 3, 4]
    trajectories = simulate_navier_stokes(
        grid, nu=nu, ic_seed=seeds, steps=22, dt=2e-3, record_every=2
    )
    episodes = [
        Episode(delta=[v], x=x, seed=seed, split="in" if e == 0 else "out")
        for e, (v, x, seed) in enumerate(zip(nu, trajectories, seeds))
    ]
    ds = EpisodeDataset(grid=grid, channel_names=["vorticity"], episodes=episodes)
    gen = rng.substream(11, "evaluation")
    pre = PretrainSection(d_latent=8, hidden=8, attention_hidden=4, gnn_layers=1, k_max=2)
    encoder = init_encoder_stack(gen, pre, grid, d_obs=1, d_delta=1)
    weights = init_dynamics(gen, CFG, grid, d_latent=8, d_obs=1)
    return ds, encoder, weights


def _evaluate(model, ds=None):
    default_ds, encoder, weights = model
    return evaluation.evaluate_split(ds or default_ds, encoder, weights, CFG, "out")


def _assert_same(a, b):
    (report_a, dump_a), (report_b, dump_b) = a, b
    assert dump_a.windows == dump_b.windows
    assert dump_a.predictions.tobytes() == dump_b.predictions.tobytes()
    assert dump_a.targets.tobytes() == dump_b.targets.tobytes()
    assert report_a.rows() == report_b.rows()
    assert report_a.windows == report_b.windows
    for spectra in ("spectrum_truth", "spectrum_pred"):
        for x, y in zip(getattr(report_a, spectra), getattr(report_b, spectra)):
            assert x.tobytes() == y.tobytes()


def _pools(monkeypatch) -> list[int]:
    """The worker count of every thread pool evaluation starts, in order."""
    started = []
    real = evaluation.ThreadPoolExecutor

    def pool(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", pool)
    return started


def test_outputs_do_not_depend_on_the_batch_size(model, monkeypatch):
    """Batches of 8, 2 and 1 windows give the same bytes, as a stack of
    solver episodes does. This rests on every op of a forecast treating
    windows as independent GEMM rows or columns (the DFTs, sparse adjacency
    products and channel mixes), elementwise ufuncs (erf GeLU, tanh) or
    per-window reductions, and on BLAS computing a GEMM column the same way
    whatever the number of columns. Checked with numpy 2.4.6 on OpenBLAS
    0.3.31 (Haswell kernels), where the last part fails for GEMMs of at most
    4 columns over 16 or more terms: at a latent width of 4 or less, a batch
    of one window takes another kernel and differs in the last bits. The
    model here is 8 wide, as the CLI's micro config is."""
    set_cores(monkeypatch, 1)
    results = {}
    for size in (8, 2, 1):
        monkeypatch.setattr(evaluation, "BATCH_SIZE", size)
        results[size] = _evaluate(model)
    assert results[8][0].windows == 15
    _assert_same(results[8], results[2])
    _assert_same(results[8], results[1])


@pytest.mark.parametrize("size", [8, 2, 1])
def test_metrics_sum_predictions_in_c_order(model, monkeypatch, size):
    # The batches arrive T-major; the metrics must not sum in that order, or
    # the same prediction bytes give batch-size-dependent last bits.
    set_cores(monkeypatch, 1)
    monkeypatch.setattr(evaluation, "BATCH_SIZE", size)
    report, dump = _evaluate(model)
    assert dump.predictions.flags.c_contiguous and dump.targets.flags.c_contiguous
    truth, predictions = dump.targets.copy(), dump.predictions.copy()
    assert report.mse == evaluation.mse(truth, predictions)
    assert report.per_step_mse == [evaluation.mse(truth[:, t], predictions[:, t])
                                   for t in range(CFG.horizon)]


@pytest.mark.parametrize("cores", [2, 4])
def test_outputs_do_not_depend_on_the_core_count(model, monkeypatch, cores):
    # Two or four workers, switching threads every 10 us, interleave the
    # batches as finely as the interpreter allows.
    pools = _pools(monkeypatch)
    set_cores(monkeypatch, 1)
    alone = _evaluate(model)
    assert pools == []
    set_cores(monkeypatch, cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = _evaluate(model)
    finally:
        sys.setswitchinterval(interval)
    # The three episodes' latents, then the eight batches of two windows.
    assert pools == [min(3, cores), cores]
    _assert_same(alone, pooled)


def test_encoded_episodes_do_not_depend_on_the_core_count(model, monkeypatch):
    # Training and evaluation both encode through encode_episodes: one
    # episode per task, its GNN in chunks of frames.
    ds, encoder, _ = model
    ids = [3, 0, 2, 1]
    pools = _pools(monkeypatch)
    set_cores(monkeypatch, 1)
    alone = evaluation.encode_episodes(ds, encoder, ids)
    assert pools == []
    set_cores(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = evaluation.encode_episodes(ds, encoder, ids)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [2]
    assert list(alone) == list(pooled) == ids
    for e in ids:
        expected = evaluation.episode_latents(ds, encoder, e).tobytes()
        assert alone[e].tobytes() == pooled[e].tobytes() == expected


def test_one_batch_starts_no_thread(model, monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a thread pool was started for one batch")

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", no_pool)
    set_cores(monkeypatch, 2)
    ds = model[0]
    first = ds.episodes[1]
    short = Episode(delta=first.delta, x=first.x[: CFG.t0 + CFG.horizon], seed=first.seed,
                    split="out")
    report, dump = _evaluate(model, dataclasses.replace(ds, episodes=[ds.episodes[0], short]))
    assert report.windows == 1 and dump.windows == [(1, 0)]


@pytest.mark.parametrize("cores", [1, 2])
def test_refused_while_a_tape_records(model, monkeypatch, cores):
    # Each thread records only on its own tape, so forecasts on worker
    # threads would escape the caller's: refused at one core and at two.
    set_cores(monkeypatch, cores)
    with Tape() as tape, pytest.raises(ContractViolation, match="Tape"):
        _evaluate(model)
    assert tape._nodes == []


def test_dataset_stats_exist_from_construction(model):
    # The forecast workers only read the dataset: its stats are computed when
    # it is built, never on first use.
    ds = model[0]
    rebuilt = dataclasses.replace(ds, stats=None)
    for ours, theirs in zip(rebuilt.stats, ds.stats):
        assert ours.tobytes() == theirs.tobytes()
    _assert_same(_evaluate(model, rebuilt), _evaluate(model))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cores", [1, 2])
def test_divergence_names_the_split_and_windows(model, monkeypatch, cores):
    # A bias at the top of the float range overflows the first RK4 step of
    # every window; the first batch in window order is the one named.
    ds, encoder, weights = model
    layer = weights.layers[0]
    bias = Tensor(np.full(layer.b.shape, 1e308), name=layer.b.name)
    layers = [dataclasses.replace(layer, b=bias), *weights.layers[1:]]
    diverging = dataclasses.replace(weights, layers=layers)
    set_cores(monkeypatch, cores)
    with pytest.raises(NumericError) as err:
        evaluation.evaluate_split(ds, encoder, diverging, CFG, "out")
    message = str(err.value)
    assert message.startswith("forecast of split 'out' windows (episode, start) [(1, 0), (1, 2)]: ")
    assert "integration diverged at t=1" in message
