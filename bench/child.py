"""One ``maskpost`` CLI command in a fresh interpreter, with its cost.

    python3 bench/child.py MODE [SPANS_FILE] -- ARGV...

MODE ``time`` runs ``maskpost.cli.main(ARGV)`` untraced; ``spans`` runs it
under the span tracer and writes the spans to SPANS_FILE when it ends;
``memory`` runs it under ``tracemalloc``. The last stdout line is one JSON
object: the exit code, the import and call timings, peak RSS, the stdout
lines the output gate hashes and, when traced, the layer metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

GATED_PREFIXES = ("mean_iou", "mAP ")


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


# cpu_speed_s() on an uncontended CPU of the machine the baseline was
# recorded on (2-CPU container, Python 3.11).
REFERENCE_SPEED_S = 0.007


def cpu_speed_s() -> float:
    """Mean time of a fixed pure-Python kernel, run once on each of the
    first 8 CPUs of the affinity set. It tells how fast the CPUs run at
    this moment; maskpost is not involved."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus)[:8]:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            acc = 0
            for i in range(100_000):
                acc += i * i
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def main() -> None:
    sep = sys.argv.index("--")
    mode, extra, argv = sys.argv[1], sys.argv[2:sep], sys.argv[sep + 1 :]
    start = time.perf_counter()
    import maskpost.cli

    setup_s = time.perf_counter() - start
    tracer = None
    if mode != "time":
        from tracer import Tracer

        tracer = Tracer(memory=mode == "memory")
        tracer.install()
    captured = io.StringIO()
    speed0 = cpu_speed_s()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = maskpost.cli.main(argv) if tracer is None else tracer.run_main(argv)
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    speed1 = cpu_speed_s()
    report = {
        "rc": rc,
        "module": maskpost.cli.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu_s(usage1) - _cpu_s(usage0),
        "peak_rss_mb": usage1.ru_maxrss / 1024,
        "slowdown": (speed0 + speed1) / 2 / REFERENCE_SPEED_S,
        "gated": [l for l in captured.getvalue().splitlines() if l.startswith(GATED_PREFIXES)],
    }
    if tracer is not None:
        from tracer import layer_metrics

        report["unwrapped"] = tracer.unwrapped
        if tracer.memory:
            report["peaks_mb"] = tracer.peaks_mb
        else:
            report["layers"], report["absent"] = layer_metrics(tracer.spans)
            tracer.write_spans(extra[0])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
