"""Span tracer for the traced benchmark run.

It wraps, for one interpreter, the module-level names through which one
``maskpost`` layer calls another's public functions (``maskpost.fusion.
box_iou``, ``maskpost.cli.load_results``, ...), plus the three thread-pool
sites. Nothing under ``src/`` changes: the wrappers are installed by
assignment before ``main()`` runs. Each span records name, start, end,
parent span, thread and one measured quantity; spans stay in memory until
the run ends. Layer metrics are derived from the spans afterwards.
"""
from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import threading
import tracemalloc
from time import perf_counter

# Measures: each maps a call's positional arguments and result to the one
# quantity stored on its span.
_nonzero = lambda args, out: int(out > 0)  # noqa: E731
_length = lambda args, out: len(out)  # noqa: E731


def _rows(i):
    return lambda args, out: len(args[i])


def _out_pixels(args, out):
    return out.height * out.width


def _decoded_bytes(args, out):
    return int(out.nbytes)


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _selected(args, out):
    return (len(out), int(args[0].logits.size))


def _clusters_merged(args, out):
    """Outputs whose mask is new, i.e. the vote of a multi-member cluster."""
    inputs = {id(d.mask) for d in args[0]}
    return sum(1 for d in out if id(d.mask) not in inputs)


# (object path, attribute, span name, measure); the path is a module or
# ``module:Class``.
WRAPS = [
    ("maskpost.cli", "load_field_archive", "coco_io.load_field_archive", None),
    ("maskpost.cli", "load_results", "coco_io.load_results", _length),
    ("maskpost.cli", "load_dataset", "coco_io.load_dataset", None),
    ("maskpost.cli", "dataset_ground_truth", "coco_io.dataset_ground_truth", None),
    ("maskpost.cli", "write_results", "coco_io.write_results", _file_bytes),
    ("maskpost.cli", "ensemble", "fusion.ensemble", _length),
    ("maskpost.cli", "evaluate", "evaluation.evaluate", None),
    ("maskpost.cli", "subdivision_render", "refine.subdivision_render", None),
    ("maskpost.cli", "resample", "core.resample", _out_pixels),
    ("maskpost.cli", "mask_iou", "core.mask_iou", _nonzero),
    ("maskpost.cli", "rle_encode", "core.rle_encode", None),
    ("maskpost.coco_io", "rle_string_decode", "coco_io.rle_string_decode", None),
    ("maskpost.coco_io", "rle_string_encode", "coco_io.rle_string_encode", None),
    ("maskpost.coco_io", "rle_decode", "core.rle_decode", _decoded_bytes),
    ("maskpost.coco_io", "rle_encode", "core.rle_encode", None),
    ("maskpost.fusion", "apply_weights", "fusion.apply_weights", _length),
    ("maskpost.fusion", "_suppress_group", "fusion.suppress_group", _rows(0)),
    ("maskpost.fusion", "cluster_merge_masks", "fusion.cluster_merge_masks", _clusters_merged),
    ("maskpost.fusion", "box_iou", "core.box_iou", _nonzero),
    ("maskpost.fusion", "mask_iou", "core.mask_iou", _nonzero),
    ("maskpost.fusion", "rle_decode", "core.rle_decode", _decoded_bytes),
    ("maskpost.fusion", "rle_encode", "core.rle_encode", None),
    ("maskpost.evaluation", "match_detections", "evaluation.match_detections", None),
    ("maskpost.evaluation", "average_precision", "evaluation.average_precision", None),
    ("maskpost.evaluation", "box_iou", "core.box_iou", _nonzero),
    ("maskpost.evaluation", "mask_iou", "core.mask_iou", _nonzero),
    ("maskpost.evaluation", "rle_decode", "core.rle_decode", _decoded_bytes),
    ("maskpost.refine", "select_most_uncertain", "refine.select_most_uncertain", _selected),
    ("maskpost.refine", "upsample_x2", "refine.upsample_x2", None),
    ("maskpost.refine", "resample", "core.resample", _out_pixels),
    ("maskpost.refine", "sample_points", "core.sample_points", _rows(1)),
    ("maskpost.refine:OracleFieldPredictor", "predict", "refine.predict", _rows(1)),
]

# Calls whose tracemalloc peak the memory run reports.
TOP_CALLS = [
    ("maskpost.cli", "ensemble", "fusion.ensemble"),
    ("maskpost.cli", "evaluate", "evaluation.evaluate"),
    ("maskpost.cli", "subdivision_render", "refine.subdivision_render"),
]

# The thread-pool sites: refine's render pool is bound in cli's namespace,
# ensemble() and evaluate() import the class when they run.
POOL_SITES = [("maskpost.cli", "ThreadPoolExecutor"), ("concurrent.futures", "ThreadPoolExecutor")]


def _resolve(path):
    """``"module"`` or ``"module:Class"`` to the object holding the name."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans around wrapped calls; ``memory=True`` instead records
    the ``tracemalloc`` peak inside each of :data:`TOP_CALLS`."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, measured)
        self.unwrapped: list[str] = []
        self.peaks_mb: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._active: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def call(self, name, fn, args, kwargs, measure=None, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1]
        stack.append(sid)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        self.spans.append((sid, parent, name, threading.get_ident(), start, end,
                           None if measure is None else measure(args, out)))
        return out

    def _span_wrapper(self, name, fn, measure):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)
        return wrapper

    def _peak_wrapper(self, name, fn):
        """Resets the peak when the first concurrent call of ``name`` starts
        and reads it when the last one ends."""
        def wrapper(*args, **kwargs):
            with self._lock:
                if self._active.get(name, 0) == 0:
                    tracemalloc.reset_peak()
                self._active[name] = self._active.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self._active[name] -= 1
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak)
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]
                return super().submit(tracer.call, "pool.task", fn, args, kwargs, None, parent)

        return TracedPool

    def install(self) -> None:
        """Wrap every name that exists; list the ones that do not."""
        targets = (
            [(p, a, n, None) for p, a, n in TOP_CALLS] if self.memory else WRAPS
        )
        for path, attr, name, measure in targets:
            try:
                obj = _resolve(path)
                fn = getattr(obj, attr)
            except (ImportError, AttributeError):
                self.unwrapped.append(f"{path}.{attr}")
                continue
            if self.memory:
                setattr(obj, attr, self._peak_wrapper(name, fn))
            else:
                setattr(obj, attr, self._span_wrapper(name, fn, measure))
        if not self.memory:
            for path, attr in POOL_SITES:
                obj = importlib.import_module(path)
                setattr(obj, attr, self._pool_class(getattr(obj, attr)))

    def run_main(self, argv) -> int:
        import maskpost.cli

        if self.memory:
            tracemalloc.start()
            try:
                return maskpost.cli.main(argv)
            finally:
                tracemalloc.stop()
        return self.call("cli.main", maskpost.cli.main, (argv,), {})

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Layer metrics from spans
# ---------------------------------------------------------------------------

def _busy(spans):
    return sum(s[5] - s[4] for s in spans)


def _measured(spans):
    return [s[6] for s in spans if s[6] is not None]


def _frac(spans):
    return sum(_measured(spans)) / len(spans)


def _per_call(scale):
    return lambda spans: scale * _busy(spans) / len(spans)


def _quantile(q):
    def f(spans):
        ms = sorted(1e3 * (s[5] - s[4]) for s in spans)
        return statistics.quantiles(ms, n=4, method="inclusive")[q] if len(ms) > 1 else ms[0]
    return f


def _self_time(all_spans):
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in all_spans:
        children.setdefault(s[1], []).append((s[4], s[5]))

    def f(spans):
        total = 0.0
        for s in spans:
            covered, reach = 0.0, s[4]
            for start, end in sorted(children.get(s[0], [])):
                start, end = max(start, reach), min(end, s[5])
                if end > start:
                    covered += end - start
                    reach = end
            total += s[5] - s[4] - covered
        return total
    return f


def _repredict_frac(spans):
    chosen = _measured(spans)
    return sum(n for n, _ in chosen) / sum(size for _, size in chosen)


# (metric, unit, source span, value from the source's spans). Spans that
# ``_self_time`` needs are bound at evaluation time.
LAYER_METRICS = [
    ("coco_io.rle_string_decode.count", "count", "coco_io.rle_string_decode", len),
    ("coco_io.rle_string_decode.s", "s", "coco_io.rle_string_decode", _busy),
    ("coco_io.rle_string_decode.us_per_mask", "us", "coco_io.rle_string_decode", _per_call(1e6)),
    ("coco_io.load_results.s", "s", "coco_io.load_results", _busy),
    ("coco_io.load_results.records", "count", "coco_io.load_results", lambda sp: sum(_measured(sp))),
    ("coco_io.load_dataset.s", "s", "coco_io.load_dataset", _busy),
    ("coco_io.dataset_ground_truth.s", "s", "coco_io.dataset_ground_truth", _busy),
    ("coco_io.rle_string_encode.count", "count", "coco_io.rle_string_encode", len),
    ("coco_io.rle_string_encode.s", "s", "coco_io.rle_string_encode", _busy),
    ("coco_io.rle_string_encode.us_per_mask", "us", "coco_io.rle_string_encode", _per_call(1e6)),
    ("coco_io.write_results.s", "s", "coco_io.write_results", _busy),
    ("coco_io.write_results.bytes", "bytes", "coco_io.write_results", lambda sp: sum(_measured(sp))),
    ("coco_io.load_field_archive.s", "s", "coco_io.load_field_archive", _busy),
    ("core.box_iou.pairs", "count", "core.box_iou", len),
    ("core.box_iou.s", "s", "core.box_iou", _busy),
    ("core.box_iou.nonzero_frac", "ratio", "core.box_iou", _frac),
    ("fusion.ensemble.s", "s", "fusion.ensemble", _busy),
    ("fusion.ensemble.self_s", "s", "fusion.ensemble", "self"),
    ("fusion.apply_weights.s", "s", "fusion.apply_weights", _busy),
    ("fusion.groups", "count", "fusion.suppress_group", len),
    ("fusion.group_size_max", "count", "fusion.suppress_group", lambda sp: max(_measured(sp))),
    ("fusion.dets_in", "count", "fusion.apply_weights", lambda sp: sum(_measured(sp))),
    ("fusion.dets_out", "count", "fusion.ensemble", lambda sp: sum(_measured(sp))),
    ("core.mask_iou.pairs", "count", "core.mask_iou", len),
    ("core.mask_iou.s", "s", "core.mask_iou", _busy),
    ("core.mask_iou.us_per_pair", "us", "core.mask_iou", _per_call(1e6)),
    ("core.mask_iou.nonzero_frac", "ratio", "core.mask_iou", _frac),
    ("core.rle_decode.count", "count", "core.rle_decode", len),
    ("core.rle_decode.s", "s", "core.rle_decode", _busy),
    ("core.rle_decode.mb", "MB", "core.rle_decode", lambda sp: sum(_measured(sp)) / 2**20),
    ("fusion.cluster_merge_masks.s", "s", "fusion.cluster_merge_masks", _busy),
    ("fusion.cluster_merge_masks.clusters_merged", "count", "fusion.cluster_merge_masks",
     lambda sp: sum(_measured(sp))),
    ("evaluation.evaluate.s", "s", "evaluation.evaluate", _busy),
    ("evaluation.evaluate.self_s", "s", "evaluation.evaluate", "self"),
    ("evaluation.match_detections.calls", "count", "evaluation.match_detections", len),
    ("evaluation.match_detections.s", "s", "evaluation.match_detections", _busy),
    ("evaluation.average_precision.calls", "count", "evaluation.average_precision", len),
    ("evaluation.average_precision.s", "s", "evaluation.average_precision", _busy),
    ("refine.subdivision_render.count", "count", "refine.subdivision_render", len),
    ("refine.subdivision_render.ms_p50", "ms", "refine.subdivision_render", _quantile(1)),
    ("refine.subdivision_render.ms_p75", "ms", "refine.subdivision_render", _quantile(2)),
    ("refine.select_most_uncertain.calls", "count", "refine.select_most_uncertain", len),
    ("refine.select_most_uncertain.s", "s", "refine.select_most_uncertain", _busy),
    ("refine.upsample_x2.s", "s", "refine.upsample_x2", _busy),
    ("refine.predict.points", "count", "refine.predict", lambda sp: sum(_measured(sp))),
    ("refine.predict.s", "s", "refine.predict", _busy),
    ("refine.repredict_frac", "ratio", "refine.select_most_uncertain", _repredict_frac),
    ("core.resample.calls", "count", "core.resample", len),
    ("core.resample.s", "s", "core.resample", _busy),
    ("core.resample.mpx", "Mpx", "core.resample", lambda sp: sum(_measured(sp)) / 1e6),
    ("core.sample_points.points", "count", "core.sample_points", lambda sp: sum(_measured(sp))),
    ("core.sample_points.s", "s", "core.sample_points", _busy),
    ("cli.self_s", "s", "cli.main", "self"),
    ("cli.thread_overlap", "ratio", "pool.task", "overlap"),
]

PEAK_METRICS = [
    (f"{name}.peak_traced_mb", "MB", name) for _, _, name in TOP_CALLS
]

# Filled in by run.py from the traced and untraced walls.
TRACE_METRICS = [
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def layer_metrics(spans) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Metrics whose source span occurred, and the names of those absent."""
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    self_time = _self_time(spans)
    main_wall = _busy(by_name.get("cli.main", [])) or float("nan")
    metrics, absent = {}, []
    for metric, unit, source, fn in LAYER_METRICS:
        group = by_name.get(source)
        if not group:
            absent.append(metric)
        elif fn == "self":
            metrics[metric] = (self_time(group), unit)
        elif fn == "overlap":
            metrics[metric] = (_busy(group) / main_wall, unit)
        else:
            metrics[metric] = (float(fn(group)), unit)
    dets = by_name.get("fusion.apply_weights"), by_name.get("fusion.ensemble")
    if all(dets):
        kept = sum(_measured(dets[1])) / sum(_measured(dets[0]))
        metrics["fusion.kept_frac"] = (kept, "ratio")
    else:
        absent.append("fusion.kept_frac")
    return metrics, absent


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {m: u for m, u, _, _ in LAYER_METRICS}
    units["fusion.kept_frac"] = "ratio"
    units.update({m: u for m, u, _ in PEAK_METRICS})
    units.update(dict(TRACE_METRICS))
    return units
