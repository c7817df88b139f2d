"""Run a list of sparkpde CLI stages in this one process and report on them.

Usage: python3 perfbench/worker.py JOB.json

JOB.json holds ``src`` (the directory that contains the sparkpde package),
``stages`` (a list of argv lists for ``sparkpde.cli.main``), ``trace`` and
``result`` (where to write the report). Each stage call starts when the
previous one returns; the worker stops at the first stage that exits non-zero.
The report holds each stage's exit code and wall seconds, the process's peak
RSS, and, when traced, the spans and counters of tracing.Tracer.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import sparkpde.cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    stages = []
    for argv in job["stages"]:
        span = tracer.open("cli." + argv[0].replace("-", "_")) if tracer else None
        start, cpu = time.perf_counter(), time.process_time()
        code = sparkpde.cli.main(argv)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if tracer:
            tracer.close_through(span)
        stages.append({"argv": argv, "exit": code, "wall_s": wall, "cpu_s": cpu})
        if code != 0:
            break

    report = {
        "package": sparkpde.__file__,
        "stages": stages,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        report.update(
            spans=tracer.spans,
            counters=tracer.counters,
            samples=tracer.samples,
            unpatched=tracer.unpatched,
        )
    Path(job["result"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
