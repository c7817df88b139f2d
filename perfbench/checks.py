"""Output checks that any correct version of sparkpde passes.

None of them compares against numbers from a particular version, so a
faithful float reordering does not count as a failure:

* every stage exits 0 and writes its artifacts;
* two passes of the same stage in one run write identical ``.spds`` and
  ``.ckpt`` files (and identical eval outputs);
* the eval MSE in ``metrics_out.csv`` matches the MSE recomputed from the
  ``--dump-predictions`` arrays;
* the frozen tensors in ``dynamics.ckpt`` equal those in ``pretrain.ckpt``;
* pretrain losses are finite and codebook perplexity lies in [1, M].
"""

from __future__ import annotations

import csv
import math

import numpy as np

from workloads import Stage

ARTIFACTS = {
    "gen-data": ("dataset.spds",),
    "pretrain": ("pretrain.ckpt", "pretrain_loss.csv"),
    "train": ("dynamics.ckpt", "metrics.csv"),
    "eval": ("metrics_out.csv", "spectrum_truth_out.csv", "spectrum_pred_out.csv",
             "predictions_out.npz"),
}

# Train's metrics.csv holds wall times, so passes may differ in it; every other
# artifact must be the same in every pass of the same code.
HOLDS_TIMES = ("metrics.csv",)

MSE_RTOL = 1e-9


def stage_problems(stage: Stage, exit_code: int) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [a for a in ARTIFACTS[stage.command] if not (stage.out / a).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    return {
        "pretrain": _pretrain_problems,
        "train": _train_problems,
        "eval": _eval_problems,
    }.get(stage.command, lambda s: [])(stage)


def differences(stage: Stage, first: Stage) -> list[str]:
    """Repeatable outputs of ``stage`` that differ from the same stage's first pass."""
    out = []
    for name in ARTIFACTS[stage.command]:
        if name in HOLDS_TIMES:
            continue
        a, b = stage.out / name, first.out / name
        if name.endswith(".npz"):
            # Zip members carry write times, so compare the arrays.
            with np.load(a) as x, np.load(b) as y:
                same = sorted(x.files) == sorted(y.files) and all(
                    x[k].dtype == y[k].dtype and np.array_equal(x[k], y[k]) for k in x.files
                )
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            out.append(f"{name} differs from the first pass")
    return out


def _rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _pretrain_problems(stage: Stage) -> list[str]:
    from sparkpde.checkpoint import load_checkpoint

    m = load_checkpoint(str(stage.out / "pretrain.ckpt")).tensors["codebook.embeddings"].shape[0]
    out = []
    for row in _rows(stage.out / "pretrain_loss.csv"):
        loss, perplexity = float(row["loss"]), float(row["perplexity"])
        if not math.isfinite(loss):
            out.append(f"epoch {row['epoch']}: loss {loss}")
        if not 1.0 <= perplexity <= m:
            out.append(f"epoch {row['epoch']}: perplexity {perplexity} outside [1, {m}]")
    return out


def _train_problems(stage: Stage) -> list[str]:
    from sparkpde.checkpoint import load_checkpoint

    dyn = load_checkpoint(str(stage.out / "dynamics.ckpt"))
    pre = load_checkpoint(str(stage.checkpoint))
    if sorted(dyn.frozen_names) != sorted(pre.tensors):
        return [f"frozen tensors {sorted(dyn.frozen_names)} are not the pretrain tensors"]
    changed = [
        name for name in dyn.frozen_names
        if dyn.tensors[name].dtype != pre.tensors[name].dtype
        or not np.array_equal(dyn.tensors[name], pre.tensors[name])
    ]
    return [f"frozen tensors changed: {changed}"] if changed else []


def _eval_problems(stage: Stage) -> list[str]:
    reported = {row["metric"]: float(row["value"]) for row in _rows(stage.out / "metrics_out.csv")}
    with np.load(stage.out / "predictions_out.npz") as dump:
        diff = dump["targets"] - dump["predictions"]
    recomputed = float(np.mean(diff * diff))
    if "mse" not in reported:
        return ["metrics_out.csv has no mse row"]
    if not math.isclose(reported["mse"], recomputed, rel_tol=MSE_RTOL, abs_tol=0.0):
        return [f"reported mse {reported['mse']!r} != recomputed {recomputed!r}"]
    return []
