"""Benchmark of sparkpde's gen-data -> pretrain -> train -> eval stages.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--mini]

The run makes its inputs from the seed, sets up SETUP_MIN to SETUP_MAX times
(each in a fresh worker process), then drives one timed pass after another,
each in a fresh worker process that calls ``sparkpde.cli.main`` in-process,
while one more pass would end within ``--seconds`` (at least MIN_PASSES
passes). It is a closed loop with one client: each stage call starts when the
previous one returns.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics and the
tracing overhead, and writes the spans to ``.perfbench/trace-<workload>-s<seed>.json``.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads here or in a worker: on a
# 2-core box two threads give the same wall time for twice the CPU time.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
from tracing import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

# Set up at least SETUP_MIN times, and more (up to SETUP_MAX) while another
# set-up of the median length so far ends within SETUP_BUDGET_S.
SETUP_MIN = 2
SETUP_MAX = 7
SETUP_BUDGET_S = 8.0
MIN_PASSES = 3
# A run must end within 180 s: start no pass that would likely end after
# PASS_DEADLINE_S, and stop any worker still running at WORKER_DEADLINE_S.
PASS_DEADLINE_S = 140.0
WORKER_DEADLINE_S = 170.0

MIB = 1024 * 1024

# name -> unit. setup_s is the median wall time of one set-up (worker start,
# imports and set-up stages); stage_s the median in-process wall time of the
# timed stage calls of one pass; peak_rss_mb the median peak RSS of a worker
# that runs only one timed pass; success_rate is 1 - failed/attempted stage calls.
END_TO_END = {
    "setup_s": "s",
    "stage_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

# (name, unit, how, key). How: busy / calls = per-pass busy seconds / call count
# of span `key` (median over traced passes); setup_busy = the same over set-up
# passes; p50 / p90 / n = percentile in ms / sample count of span `key`'s
# durations, pooled over traced passes; counter = per-pass count (median);
# sample / sample_mib = median of a per-call sample (in MiB for bytes).
PER_LAYER = (
    ("cli.gen_data.s", "s", "busy", "cli.gen_data"),
    ("cli.pretrain.s", "s", "busy", "cli.pretrain"),
    ("cli.train.s", "s", "busy", "cli.train"),
    ("cli.eval.s", "s", "busy", "cli.eval"),
    ("autodiff.spectral_channel_mix.fwd_s", "s", "busy", "autodiff.spectral_channel_mix"),
    ("autodiff.spectral_channel_mix.calls", "count", "calls", "autodiff.spectral_channel_mix"),
    ("autodiff.spectral_channel_mix.vjp_s", "s", "busy", "autodiff.spectral_channel_mix.vjp"),
    ("autodiff.backward.s", "s", "busy", "autodiff.backward"),
    ("autodiff.adam_step.s", "s", "busy", "autodiff.adam_step"),
    ("autodiff.tape.nodes", "count", "sample", "autodiff.tape.nodes"),
    ("autodiff.tape.mbytes", "MiB", "sample_mib", "autodiff.tape.bytes"),
    ("dynamics.ode_rhs.s", "s", "busy", "dynamics.ode_rhs"),
    ("dynamics.ode_rhs.calls", "count", "calls", "dynamics.ode_rhs"),
    ("dynamics.integrate.s", "s", "busy", "dynamics.integrate"),
    ("dynamics.encode_history.s", "s", "busy", "dynamics.encode_history"),
    ("dynamics.decode.s", "s", "busy", "dynamics.decode"),
    ("dynamics.episode_latents.s", "s", "busy", "dynamics.episode_latents"),
    ("dynamics.init_dynamics.s", "s", "busy", "dynamics.init_dynamics"),
    ("dynamics.train_step_ms.p50", "ms", "p50", "dynamics.train_step"),
    ("dynamics.train_step_ms.p90", "ms", "p90", "dynamics.train_step"),
    ("dynamics.train_step_ms.n", "count", "n", "dynamics.train_step"),
    ("augment.augment_latents.s", "s", "busy", "augment.augment_latents"),
    ("augment.augment_latents.calls", "count", "calls", "augment.augment_latents"),
    ("augment.calibrate_tau.s", "s", "busy", "augment.calibrate_tau"),
    ("serialization.rebuild_dynamics.s", "s", "busy", "serialization.rebuild_dynamics"),
    ("serialization.rebuild_pretrained.s", "s", "busy", "serialization.rebuild_pretrained"),
    ("checkpoint.load_checkpoint.s", "s", "busy", "checkpoint.load_checkpoint"),
    ("checkpoint.save_checkpoint.s", "s", "busy", "checkpoint.save_checkpoint"),
    ("rng.normal_draws", "count", "counter", "rng.normal_draws"),
    ("evaluation.forecast_batch_ms.p50", "ms", "p50", "evaluation.forecast_batch"),
    ("evaluation.forecast_batch_ms.n", "count", "n", "evaluation.forecast_batch"),
    ("metrics.ssim.s", "s", "busy", "metrics.ssim"),
    ("metrics.energy_spectrum.s", "s", "busy", "metrics.energy_spectrum"),
    ("datagen.simulate_reaction_diffusion.s", "s", "busy", "datagen.simulate_reaction_diffusion"),
    ("datagen.save_dataset.s", "s", "busy", "datagen.save_dataset"),
    ("datagen.load_dataset.s", "s", "busy", "datagen.load_dataset"),
    ("datagen.simulate_navier_stokes.s", "s", "setup_busy", "datagen.simulate_navier_stokes"),
    ("encoder.channel_attention.s", "s", "busy", "encoder.channel_attention"),
    ("encoder.gnn_encode.s", "s", "busy", "encoder.gnn_encode"),
    ("encoder.reconstruct.s", "s", "busy", "encoder.reconstruct"),
    ("state_dictionary.quantize.s", "s", "busy", "state_dictionary.quantize"),
    ("state_dictionary.kmeans_plusplus.s", "s", "busy", "state_dictionary.kmeans_plusplus"),
    ("state_dictionary.pretrain_step_ms.p50", "ms", "p50", "state_dictionary.pretrain_step"),
    ("state_dictionary.pretrain_step_ms.n", "count", "n", "state_dictionary.pretrain_step"),
    ("trace.overhead", "ratio", "overhead", None),
)


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--mini", action="store_true",
                   help="16x16 miniature of the workload, for the self-check")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def environment(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": workload.config(args.seed, args.mini)["seed"],
        "mini": args.mini,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """Workers, failure counts and measurements of one benchmark run."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, tag: str, stages, trace: bool) -> dict | None:
        """Run ``stages`` in a fresh worker; its report, or None if it crashed."""
        job = self.work / f"{tag}.job.json"
        result = self.work / f"{tag}.result.json"
        job.write_text(json.dumps({
            "src": str(SRC), "stages": [s.argv for s in stages],
            "trace": trace, "result": str(result),
        }), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "worker.py"), str(job)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, WORKER_DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: {tag}: worker stopped at the run deadline", file=sys.stderr)
            return None
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not result.is_file():
            print(f"perfbench: {tag}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        report = json.loads(result.read_text(encoding="utf-8"))
        if not Path(report["package"]).resolve().is_relative_to(SRC.resolve()):
            raise HarnessError(f"sparkpde was imported from {report['package']}, not {SRC}")
        report["worker_wall_s"] = wall
        return report

    def account(self, tag: str, stages, report: dict | None, first=None) -> bool:
        """Count and check each stage call of one pass; True if all passed."""
        results = report["stages"] if report else []
        ok = True
        for i, stage in enumerate(stages):
            self.attempted += 1
            if i < len(results):
                problems = checks.stage_problems(stage, results[i]["exit"])
            else:
                problems = ["did not run"]
            if not problems and first is not None:
                problems = checks.differences(stage, first[i])
            if problems:
                self.failed += 1
                ok = False
                print(f"perfbench: {tag}: {stage.command} failed: {'; '.join(problems)}",
                      file=sys.stderr)
        return ok


def another_fits(start: float, budget: float, walls: list[float]) -> bool:
    """True if one more worker of the median wall so far ends within ``budget`` s of ``start``."""
    return bool(walls) and time.perf_counter() - start + statistics.median(walls) <= budget


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tracing_overhead(sequence: list[tuple[bool, float]]) -> float:
    """Median over traced passes of wall / mean wall of the untraced passes next to it, - 1.

    Comparing neighbours keeps the machine's slow drift in speed out of the ratio.
    """
    ratios = []
    for i, (traced, wall) in enumerate(sequence):
        near = [w for t, w in sequence[max(0, i - 1):i + 2] if not t]
        if traced and near:
            ratios.append(wall / statistics.mean(near))
    return statistics.median(ratios) - 1.0


def layer_metrics(traced: list[dict], sequence: list[tuple[bool, float]],
                  setups: list[dict]) -> dict:
    passes = [summarize(r["spans"]) for r in traced]
    setup_passes = [summarize(r["spans"]) for r in setups]

    def pooled(key):
        return [d for p in passes for d in p.get(key, {}).get("durations", [])]

    def samples(key):
        return [v for r in traced for v in r["samples"].get(key, [])]

    out = {}
    for name, unit, how, key in PER_LAYER:
        if how == "busy":
            value = statistics.median(p.get(key, {}).get("busy_s", 0.0) for p in passes)
        elif how == "setup_busy":
            value = statistics.median(p.get(key, {}).get("busy_s", 0.0) for p in setup_passes)
        elif how == "calls":
            value = statistics.median(p.get(key, {}).get("calls", 0) for p in passes)
        elif how in ("p50", "p90"):
            durations = pooled(key)
            q = 0.5 if how == "p50" else 0.9
            value = 1000.0 * percentile(durations, q) if durations else 0.0
        elif how == "n":
            value = len(pooled(key))
        elif how == "counter":
            value = statistics.median(r["counters"].get(key, 0) for r in traced)
        elif how in ("sample", "sample_mib"):
            values = samples(key)
            value = statistics.median(values) if values else 0.0
            if how == "sample_mib":
                value /= MIB
        else:  # overhead
            value = tracing_overhead(sequence)
        out[name] = {"value": value, "unit": unit}
    return out


def trace_file(args, env: dict, traced: list[dict], setups: list[dict]) -> Path:
    """Writes every traced pass's spans, with per-name calls, busy and self time."""
    def entry(r):
        summary = {k: {f: v for f, v in rec.items() if f != "durations"}
                   for k, rec in summarize(r["spans"]).items()}
        return {"stages": r["stages"], "summary": summary, "counters": r["counters"],
                "samples": r["samples"], "unpatched": r["unpatched"], "spans": r["spans"]}

    path = WORK_ROOT / f"trace-{args.workload}-s{args.seed}{'-mini' if args.mini else ''}.json"
    path.write_text(json.dumps({
        "environment": env,
        "span_fields": ["name", "start", "end", "parent"],
        "setup_passes": [entry(r) for r in setups],
        "timed_passes": [entry(r) for r in traced],
    }), encoding="utf-8")
    return path


def bench(args, env: dict, run: Run, workload) -> dict | None:
    """Set up, run the timed passes; the metrics, or None if nothing was measured."""
    config = run.work / "config.yaml"
    config.write_text(yaml.safe_dump(workload.config(args.seed, args.mini)), encoding="utf-8")
    trace = bool(args.trace)

    setup_walls, setups, first, setup_dir = [], [], None, None
    setup_start, k = time.perf_counter(), 0
    while k < SETUP_MIN or (k < SETUP_MAX
                            and another_fits(setup_start, SETUP_BUDGET_S, setup_walls)):
        tag = f"setup{k}"
        stages = workload.setup(config, run.work / tag)
        report = run.worker(tag, stages, trace)
        if run.account(tag, stages, report, first) and report is not None:
            setup_walls.append(report["worker_wall_s"])
            setups.append(report)
            first, setup_dir = first or stages, setup_dir or run.work / tag
        k += 1
    if setup_dir is None:
        return None

    walls, rss, traced, sequence, first, workers = [], [], [], [], None, []
    timed_start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or (another_fits(timed_start, args.seconds, workers)
                             and another_fits(run.started, PASS_DEADLINE_S, workers)):
        tag = f"pass{k}"
        traced_pass = trace and k % 2 == 1
        stages = workload.timed(config, setup_dir, run.work / tag)
        report = run.worker(tag, stages, traced_pass)
        if run.account(tag, stages, report, first) and report is not None:
            wall = sum(s["wall_s"] for s in report["stages"])
            workers.append(report["worker_wall_s"])
            sequence.append((traced_pass, wall))
            if traced_pass:
                traced.append(report)
            else:
                walls.append(wall)
                rss.append(report["maxrss_kib"] / 1024.0)
            first = first or stages
        k += 1

    if not walls or not setup_walls or (trace and not traced):
        return None
    if trace:
        path = trace_file(args, env, traced, setups)
        print(f"# spans written to {path.relative_to(ROOT)}")
        return layer_metrics(traced, sequence, setups)
    success = 1.0 - run.failed / run.attempted
    values = {
        "setup_s": statistics.median(setup_walls),
        "stage_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "success_rate": success,
    }
    print("# walls setup " + " ".join(f"{w:.3f}" for w in setup_walls)
          + " | passes " + " ".join(f"{w:.3f}" for w in walls))
    print(f"# passes {len(walls)}, set-ups {len(setup_walls)}, stage calls "
          f"{run.attempted} attempted, {run.failed} failed")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    started = time.perf_counter()
    if not (SRC / "sparkpde" / "cli.py").is_file():
        print(f"perfbench: no sparkpde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = environment(args, workload)
    print("# env " + json.dumps(env, sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    run = Run(WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}", started)
    run.work.mkdir()
    try:
        metrics = bench(args, env, run, workload)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for name, m in (metrics or {}).items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0 and metrics is not None,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics or {},
    }))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
