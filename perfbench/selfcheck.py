"""Fast self-check of the benchmark harness.

Usage (from the root of the repository):

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json is well formed and names exactly the metrics and
units run.py reports, then runs a 16x16 miniature of every workload, untraced
and traced, and checks each run's last output line against BENCHMARK.json:
the keys, the metric names and units, finite values, end-to-end values above
zero, and no failed stage call. Takes about a minute on a 2-core box. Exits 0
when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_TIMEOUT_S = 180


def spec_problems(spec: dict) -> list[str]:
    import run

    out = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        out.append(f"BENCHMARK.json keys: {sorted(spec)}")
    for group, keys in (("workloads", {"name", "why"}),
                        ("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for entry in spec.get(group, []):
            if set(entry) != keys:
                out.append(f"{group} entry {entry} has keys {sorted(entry)}")
            if not NAME.fullmatch(entry.get("name", "")):
                out.append(f"{group} name {entry.get('name')!r} is not a valid name")
            if "unit" in keys and not UNIT.fullmatch(entry.get("unit", "")):
                out.append(f"{group} unit {entry.get('unit')!r} is not a valid unit")
    names = [e["name"] for g in ("workloads", "end_to_end", "per_layer") for e in spec.get(g, [])]
    if len(names) != len(set(names)):
        out.append("a name is used twice")
    if any(not 0 < e.get("bound", 0) <= 0.25 for e in spec.get("end_to_end", [])):
        out.append("every end-to-end bound must lie in (0, 0.25]")
    declared = {e["name"]: e["unit"] for e in spec.get("end_to_end", [])}
    if declared != run.END_TO_END:
        out.append(f"end_to_end {declared} differs from run.END_TO_END {run.END_TO_END}")
    declared = {e["name"]: e["unit"] for e in spec.get("per_layer", [])}
    reported = {name: unit for name, unit, _, _ in run.PER_LAYER}
    if declared != reported:
        out.append(f"per_layer differs from run.PER_LAYER: "
                   f"{sorted(set(declared.items()) ^ set(reported.items()))}")
    from workloads import WORKLOADS

    if {w["name"] for w in spec.get("workloads", [])} != set(WORKLOADS):
        out.append(f"workloads differ from workloads.WORKLOADS {sorted(WORKLOADS)}")
    return out


def result_problems(spec: dict, stdout: str, trace: int) -> list[str]:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        out.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        out.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        out.append(f"failed {result['failed']!r}")
    group = "per_layer" if trace else "end_to_end"
    expected = {e["name"]: e["unit"] for e in spec[group]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        out.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            out.append(f"{name}: {m}")
            continue
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            out.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            out.append(f"{name}: end-to-end value {value!r} is not above zero")
    return out


def main() -> int:
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = spec_problems(spec)
    for p in problems:
        print(f"BENCHMARK.json: {p}")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--mini"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            found = result_problems(spec, proc.stdout, trace)
            if proc.returncode != 0:
                found.insert(0, f"exit code {proc.returncode}: {proc.stderr[-1000:]}")
            status = "ok" if not found else "FAIL"
            print(f"{workload['name']} trace {trace}: {status}")
            for p in found:
                print(f"  {p}")
            problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
