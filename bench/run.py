"""maskpost benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload fuse-box --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each workload's inputs are generated from ``--seed`` and checked to load
through the program's readers; generation is not timed. Every timed run is
a fresh interpreter that imports ``maskpost.cli`` (``setup_s``) and calls
``main(argv)`` once (``wall_s``, ``cpu_s``, ``peak_rss_mb``). One warm-up
run per workload is discarded; then workloads take turns until each has
been measured for ``--seconds``. Every run, warm-up and traced ones
included, passes the output gate or counts as failed. ``--trace 1`` adds,
after the untraced runs, two span-traced runs and one ``tracemalloc`` run
per workload and reports the per-layer metrics instead. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md next to this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PEAK_METRICS, metric_units
from workloads import WORKLOADS, prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

# Stop starting new runs after this many seconds per workload, so that a
# much slower program still ends within the 180 s a run may take.
HARD_LIMIT_S = 140

# Timings that are divided by the CPU slowdown the child measured around
# them; see README.md, "Noise".
TIMED = ("wall_s", "cpu_s", "setup_s")
END_TO_END = [
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
]


def environment(threads: int) -> dict:
    import numpy

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Workload:
    """One workload's inputs, runs and gate state."""

    def __init__(self, name: str, seed: int, workdir: Path, prepared, expected: str | None):
        self.name, self.seed, self.workdir, self.prepared = name, seed, workdir, prepared
        self.expected = expected
        self.digest_source = "table" if expected else "first run"
        self.samples: list[dict] = []
        self.traced: list[dict] = []
        self.memory: dict | None = None
        self.measured_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"[{self.name}] FAIL: {problem}", file=sys.stderr)

    def run(self, mode: str, deadline: float, spans: Path | None = None) -> dict | None:
        """One CLI run in a fresh interpreter, gated. Returns its report."""
        for name in self.prepared.outputs:
            for stale in (name, name + ".config.json"):
                (self.workdir / stale).unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), mode]
        cmd += [str(spans)] if spans else []
        cmd += ["--", *self.prepared.argv]
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.workdir))
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                                  text=True, timeout=max(10.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} run timed out")
            return None
        self.measured_s += time.perf_counter() - start
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.fail(f"{mode} run printed no report; stderr: {proc.stderr[-2000:]}")
            return None
        problem = self._gate(report)
        if problem:
            self.fail(f"{mode} run: {problem}")
        return report

    def _gate(self, report: dict) -> str | None:
        if report["rc"] != 0:
            return f"exit code {report['rc']}"
        if not Path(report["module"]).resolve().is_relative_to(SRC.resolve()):
            return f"imported maskpost from {report['module']}, not from {SRC}"
        digest = hashlib.sha256()
        for name in self.prepared.outputs:
            path = self.workdir / name
            if not path.exists():
                return f"no output {name}"
            digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
        for line in report["gated"]:
            digest.update(line.encode() + b"\n")
        digest = digest.hexdigest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            return f"output digest {digest[:16]} != expected {self.expected[:16]} ({self.digest_source})"
        return self.prepared.check(self.workdir, report["gated"])

    # -- metrics -------------------------------------------------------------

    def normalized(self, key: str) -> list[float]:
        """One timing per sample, divided by that sample's CPU slowdown."""
        return [s[key] / s["slowdown"] for s in self.samples]

    def end_to_end(self) -> dict[str, float]:
        med = {k: statistics.median(self.normalized(k)) for k in TIMED}
        med["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in self.samples)
        med["items_per_s"] = self.prepared.items / med["wall_s"]
        med["ok_frac"] = (self.attempted - self.failed) / self.attempted
        return {name: med[name] for name, _ in END_TO_END}

    def per_layer(self, untraced_wall: float) -> tuple[dict[str, float], list[str]]:
        a, b = self.traced
        counts_a = {k: v for k, (v, unit) in a["layers"].items() if unit == "count"}
        counts_b = {k: v for k, (v, unit) in b["layers"].items() if unit == "count"}
        if counts_a != counts_b:
            diff = sorted(k for k in counts_a.keys() | counts_b.keys()
                          if counts_a.get(k) != counts_b.get(k))
            self.fail(f"traced counts differ between two runs: {diff}")
        values = {k: (v + b["layers"].get(k, (v,))[0]) / 2 for k, (v, _) in a["layers"].items()}
        absent = sorted(set(a["absent"]) | set(b["absent"]))
        for metric, _, call in PEAK_METRICS:
            if self.memory and call in self.memory["peaks_mb"]:
                values[metric] = self.memory["peaks_mb"][call]
            else:
                absent.append(metric)
        traced_wall = (a["wall_s"] / a["slowdown"] + b["wall_s"] / b["slowdown"]) / 2
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        # Every per-layer metric is reported; one whose wrapped call never
        # ran reads 0 and is listed as absent.
        return {m: values.get(m, 0.0) for m in metric_units()}, absent


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the output digest of seeds new to {DIGESTS.name}")
    args = parser.parse_args(argv)

    if not (SRC / "maskpost" / "cli.py").is_file():
        print(f"error: no maskpost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; one of {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    rundir = WORK / f"run-{os.getpid()}"
    spans_dir = WORK / "spans"
    deadline = time.monotonic() + HARD_LIMIT_S * len(names)
    try:
        runs = []
        for name in names:
            workdir = rundir / name
            workdir.mkdir(parents=True)
            prepared = prepare(name, args.seed, workdir, threads)
            runs.append(Workload(name, args.seed, workdir, prepared,
                                 table.get(name, {}).get(str(args.seed))))

        for w in runs:
            w.run("time", deadline)  # warm-up: gated, not measured
            w.measured_s = 0.0
        pending = list(runs)
        while pending:
            for w in list(pending):
                report = w.run("time", deadline)
                if report is not None:
                    w.samples.append(report)
                enough = w.measured_s >= args.seconds and w.samples
                if enough or time.monotonic() > deadline - 20 or w.attempted > 200:
                    pending.remove(w)

        if args.trace:
            spans_dir.mkdir(parents=True, exist_ok=True)
            for w in runs:
                for spans in (spans_dir / f"{w.name}.jsonl", w.workdir / "spans.jsonl"):
                    report = w.run("spans", deadline, spans)
                    if report is not None and "layers" in report:
                        w.traced.append(report)
                w.memory = w.run("memory", deadline)

        return report_results(runs, args, threads, table)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def report_results(runs, args, threads, table) -> int:
    env = environment(threads)
    final: dict[str, dict] = {}
    for w in runs:
        if not w.samples:
            print(f"error: [{w.name}] no run produced a report: {w.problems}", file=sys.stderr)
            return 1
        e2e = w.end_to_end()
        record = {
            "workload": w.name, "seed": w.seed, "seconds": args.seconds, "env": env,
            "items": w.prepared.items, "argv": w.prepared.argv,
            "samples": len(w.samples), "warmup_discarded": 1,
            "attempted": w.attempted, "failed": w.failed, "problems": w.problems,
            "digest": w.expected, "digest_source": w.digest_source,
            "end_to_end": e2e,
            "raw_median": {k: statistics.median(s[k] for s in w.samples) for k in TIMED},
            "per_sample": {k: [s[k] for s in w.samples]
                           for k in (*TIMED, "peak_rss_mb", "slowdown")},
        }
        print(f"[{w.name}] seed {w.seed}: {len(w.samples)} samples after 1 warm-up, "
              f"{w.prepared.items} items, threads {threads}, digest from {w.digest_source}")
        for name, unit in END_TO_END:
            line = f"  {name:<12} {e2e[name]:>12.6g} {unit:<6}"
            if name in TIMED:
                q1, q3 = _quartiles(w.normalized(name))
                raw = record["raw_median"][name]
                line += f" (q1 {q1:.6g}, q3 {q3:.6g}; unnormalized median {raw:.6g})"
            print(line)
        metrics = {n: (v, u) for (n, u), v in zip(END_TO_END, e2e.values())}
        if args.trace:
            if len(w.traced) == 2:
                layers, absent = w.per_layer(e2e["wall_s"])
                unwrapped = w.traced[0]["unwrapped"]
                record.update(layers=layers, absent=absent, unwrapped=unwrapped)
                units = metric_units()
                metrics = {n: (v, units[n]) for n, v in layers.items()}
                print(f"  traced: overhead {layers['trace.overhead_s']:.4f} s; "
                      f"absent (reported as 0): {', '.join(absent) or 'none'}; "
                      f"names no longer in maskpost: {', '.join(unwrapped) or 'none'}")
            else:
                print(f"error: [{w.name}] traced runs failed: {w.problems}", file=sys.stderr)
                return 1
        print(json.dumps({"record": record}))
        if args.record_digests and w.failed == 0 and w.digest_source != "table":
            table.setdefault(w.name, {})[str(w.seed)] = w.expected
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        prefix = "" if len(runs) == 1 else f"{w.name}."
        for n, (v, u) in metrics.items():
            final[prefix + n] = {"value": v, "unit": u}
    attempted = sum(w.attempted for w in runs)
    failed = sum(w.failed for w in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
