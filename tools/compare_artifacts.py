"""Compare two artifact trees file by file, for changes that must not move outputs.

usage: python3 tools/compare_artifacts.py DIR_A DIR_B

Files are paired by their path relative to each root. A file present on one
side only is a difference. Per kind:

  *.spds            byte for byte;
  *.ckpt            read with the package's checkpoint reader: the tensors
                    (names, order, dtypes, shapes and bytes) and the frozen
                    names; the config snapshot is diffed by key path and
                    reported on its own. A checkpoint the reader refuses is a
                    difference carrying the reader's message;
  *.csv             line for line, without any ``wallclock`` column;
  manifest.txt      line for line, without its ``generated_at:`` line;
  predictions_*.npz the same array names, each with the same dtype, shape
                    and bytes.

Each checkpoint tensor or npz array whose values differ is named with its
drift, max |a - b| / max |a|, and each found on one side only is named as such.

Other files (configs, logs) are listed as not compared.
Exit status: 0 when nothing differs outside the checkpoint snapshots, 1 when
something does, 2 on a usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

# Checkpoint tensors are read with the package's own reader, from this checkout.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from sparkpde.checkpoint import load_checkpoint  # noqa: E402
from sparkpde.errors import SparkError  # noqa: E402

_ABSENT = "<absent>"


def json_diff(a, b, path: str = "") -> list[str]:
    """``path: a -> b`` for every leaf where ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            out += json_diff(a.get(key, _ABSENT), b.get(key, _ABSENT), sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diff(x, y, f"{path}[{i}]")]
    return [] if a == b else [f"{path}: {a!r} -> {b!r}"]


def _csv_rows(path: Path) -> list[list[str]]:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    if rows and "wallclock" in rows[0]:
        col = rows[0].index("wallclock")
        rows = [row[:col] + row[col + 1 :] for row in rows]
    return rows


def _manifest_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[line] for line in lines if not line.startswith("generated_at:")]


def _row_problems(rows_a: list[list[str]], rows_b: list[list[str]]) -> list[str]:
    if rows_a == rows_b:
        return []
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a)} vs {len(rows_b)} lines"]
    first = next(i for i, (x, y) in enumerate(zip(rows_a, rows_b)) if x != y)
    return [f"line {first + 1}: {','.join(rows_a[first])} vs {','.join(rows_b[first])}"]


def _array_problems(arrays_a: dict, arrays_b: dict) -> list[str]:
    """Differences between two name -> array maps: each array found on one
    side only, and each shared array that differs with, where only its values
    do, its drift."""
    out = [
        f"{name}: only in {side}"
        for side, here, there in (("a", arrays_a, arrays_b), ("b", arrays_b, arrays_a))
        for name in sorted(set(here) - set(there))
    ]
    for name in sorted(set(arrays_a) & set(arrays_b)):
        x, y = arrays_a[name], arrays_b[name]
        if (x.dtype, x.shape) != (y.dtype, y.shape):
            out.append(f"{name}: {x.dtype}{x.shape} vs {y.dtype}{y.shape}")
        elif x.tobytes() != y.tobytes():
            x, y = x.astype(np.float64), y.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                drift = np.max(np.abs(x - y)) / np.max(np.abs(x))
            out.append(f"{name}: values differ, max |a-b| / max|a| = {drift:.3g}")
    return out


def _npz_problems(a: Path, b: Path) -> list[str]:
    with np.load(a) as za, np.load(b) as zb:
        return _array_problems(dict(za.items()), dict(zb.items()))


def compare_file(a: Path, b: Path) -> tuple[list[str], list[str]] | None:
    """(problems, snapshot differences) of one pair, or None if the kind is
    not compared."""
    name = a.name
    if name.endswith(".spds"):
        return ([] if a.read_bytes() == b.read_bytes() else ["bytes differ"]), []
    if name.endswith(".ckpt"):
        try:
            ckpt_a, ckpt_b = load_checkpoint(str(a)), load_checkpoint(str(b))
        except SparkError as exc:
            return [f"unreadable checkpoint: {exc}"], []
        problems = _array_problems(ckpt_a.tensors, ckpt_b.tensors)
        if not problems and list(ckpt_a.tensors) != list(ckpt_b.tensors):
            problems.append("tensor order differs")
        if ckpt_a.frozen_names != ckpt_b.frozen_names:
            problems.append(f"frozen names {ckpt_a.frozen_names} vs {ckpt_b.frozen_names}")
        return problems, json_diff(ckpt_a.config, ckpt_b.config)
    if name.endswith(".csv"):
        return _row_problems(_csv_rows(a), _csv_rows(b)), []
    if name == "manifest.txt":
        return _row_problems(_manifest_rows(a), _manifest_rows(b)), []
    if name.startswith("predictions_") and name.endswith(".npz"):
        return _npz_problems(a, b), []
    return None


def compare_trees(root_a: Path, root_b: Path) -> tuple[list[str], int]:
    """Report lines and the number of files that differ outside snapshots."""
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    lines, differing = [], 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            lines.append(f"DIFF     {rel}: only in {root_a if rel in files_a else root_b}")
            differing += 1
            continue
        result = compare_file(root_a / rel, root_b / rel)
        if result is None:
            lines.append(f"skipped  {rel}")
            continue
        problems, snapshot = result
        if problems:
            differing += 1
            lines += [f"DIFF     {rel}: {p}" for p in problems]
        else:
            lines.append(f"same     {rel}")
        lines += [f"snapshot {rel}: {d}" for d in snapshot]
    return lines, differing


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines, differing = compare_trees(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    print(f"{differing} file(s) differ outside checkpoint snapshots")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
