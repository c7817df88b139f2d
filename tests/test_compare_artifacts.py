"""tools/compare_artifacts.py: what counts as a difference, how it is reported,
and the exit status."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sparkpde.checkpoint import ModelCheckpoint, save_checkpoint

_spec = importlib.util.spec_from_file_location(
    "compare_artifacts", Path(__file__).parents[1] / "tools" / "compare_artifacts.py"
)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)


def _tree(root: Path, snapshot: dict, weights: np.ndarray, wallclock: str) -> Path:
    root.mkdir()
    save_checkpoint(
        ModelCheckpoint(config=snapshot, tensors={"w": weights}, frozen_names=["w"]),
        str(root / "model.ckpt"),
    )
    (root / "metrics.csv").write_text(f"epoch,train_mse,wallclock\n0,0.5,{wallclock}\n")
    (root / "data.spds").write_bytes(b"SPARKDS1-payload")
    np.savez(root / "predictions_out.npz", predictions=weights, windows=np.arange(3))
    (root / "manifest.txt").write_text(f"root seed: 1\ngenerated_at: {wallclock}\n")
    (root / "exp.yaml").write_text(f"# written at {wallclock}\n")
    return root


def test_snapshot_and_wallclock_differences_pass(tmp_path, capsys):
    w = np.arange(6.0).reshape(2, 3)
    a = _tree(tmp_path / "a", {"experiment": {"seed": 1, "old": "gelu"}}, w, "1.5")
    b = _tree(tmp_path / "b", {"experiment": {"seed": 1}}, w, "2.5")
    assert compare_artifacts.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "snapshot model.ckpt: experiment.old: 'gelu' -> '<absent>'" in out
    assert "same     manifest.txt" in out
    assert "skipped  exp.yaml" in out
    assert "0 file(s) differ" in out


@pytest.mark.parametrize("part", ["payload", "csv", "npz", "spds", "missing", "manifest"])
def test_any_other_difference_fails(tmp_path, capsys, part):
    w = np.arange(6.0).reshape(2, 3)
    a = _tree(tmp_path / "a", {"seed": 1}, w, "1.5")
    b = _tree(tmp_path / "b", {"seed": 1}, w + (part == "payload"), "1.5")
    if part == "csv":
        (b / "metrics.csv").write_text("epoch,train_mse,wallclock\n0,0.25,1.5\n")
    elif part == "npz":
        np.savez(b / "predictions_out.npz", predictions=w, windows=np.arange(1, 4))
    elif part == "spds":
        (b / "data.spds").write_bytes(b"SPARKDS1-payloae")
    elif part == "missing":
        (b / "data.spds").unlink()
    elif part == "manifest":
        (b / "manifest.txt").write_text("root seed: 2\ngenerated_at: 1.5\n")
    assert compare_artifacts.main([str(a), str(b)]) == 1
    assert "DIFF" in capsys.readouterr().out


def test_differing_values_are_named_with_their_drift(tmp_path, capsys):
    # One checkpoint tensor and one npz array moved in the last bits: each is
    # named with max |a-b| / max|a|; the tensor and array that agree are not.
    w = np.arange(1.0, 7.0).reshape(2, 3)
    a = _tree(tmp_path / "a", {"seed": 1}, w, "1.5")
    b = _tree(tmp_path / "b", {"seed": 1}, w, "1.5")
    moved = w.copy()
    moved[1, 2] = np.nextafter(6.0, 7.0)
    for root, weights in ((a, w), (b, moved)):
        save_checkpoint(
            ModelCheckpoint(config={"seed": 1},
                            tensors={"w": weights, "steps": np.arange(3)}, frozen_names=[]),
            str(root / "model.ckpt"),
        )
    np.savez(b / "predictions_out.npz", predictions=moved, windows=np.arange(3))
    assert compare_artifacts.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    drift = f"{(np.nextafter(6.0, 7.0) - 6.0) / 6.0:.3g}"
    assert f"DIFF     model.ckpt: w: values differ, max |a-b| / max|a| = {drift}" in out
    assert f"DIFF     predictions_out.npz: predictions: values differ, max |a-b| / max|a| = {drift}" in out
    assert "steps" not in out and "windows" not in out
    assert "2 file(s) differ" in out


def test_arrays_on_one_side_are_named_and_shared_ones_still_drift(tmp_path, capsys):
    # A renamed tensor must not hide the drift of the tensors both sides hold.
    w = np.arange(1.0, 7.0).reshape(2, 3)
    a = _tree(tmp_path / "a", {"seed": 1}, w, "1.5")
    b = _tree(tmp_path / "b", {"seed": 1}, w, "1.5")
    moved = w.copy()
    moved[1, 2] = np.nextafter(6.0, 7.0)
    for root, tensors in ((a, {"w": w, "old": w}), (b, {"w": moved, "new": w, "steps": w})):
        save_checkpoint(
            ModelCheckpoint(config={"seed": 1}, tensors=tensors, frozen_names=[]),
            str(root / "model.ckpt"),
        )
    np.savez(b / "predictions_out.npz", predictions=w, extra=w, windows=np.arange(3))
    assert compare_artifacts.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    drift = f"{(np.nextafter(6.0, 7.0) - 6.0) / 6.0:.3g}"
    assert "DIFF     model.ckpt: old: only in a" in out
    assert "DIFF     model.ckpt: new: only in b" in out
    assert "DIFF     model.ckpt: steps: only in b" in out
    assert f"DIFF     model.ckpt: w: values differ, max |a-b| / max|a| = {drift}" in out
    assert "DIFF     predictions_out.npz: extra: only in b" in out
    assert "predictions:" not in out and "windows" not in out
    assert "2 file(s) differ" in out


def test_frozen_names_and_refused_checkpoints_are_differences(tmp_path, capsys):
    # The frozen list is compared as the reader returns it, and a checkpoint
    # the reader refuses is a difference that carries the reader's message.
    w = np.arange(6.0).reshape(2, 3)
    a = _tree(tmp_path / "a", {"seed": 1}, w, "1.5")
    b = _tree(tmp_path / "b", {"seed": 1}, w, "1.5")
    save_checkpoint(
        ModelCheckpoint(config={"seed": 1}, tensors={"w": w}, frozen_names=[]),
        str(b / "model.ckpt"),
    )
    assert compare_artifacts.main([str(a), str(b)]) == 1
    assert "DIFF     model.ckpt: frozen names ['w'] vs []" in capsys.readouterr().out

    blob = bytearray((b / "model.ckpt").read_bytes())
    blob[-5] ^= 0xFF
    (b / "model.ckpt").write_bytes(bytes(blob))
    assert compare_artifacts.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "DIFF     model.ckpt: unreadable checkpoint: " in out
    assert "checksum" in out and "1 file(s) differ" in out
