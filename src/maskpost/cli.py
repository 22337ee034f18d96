"""Command-line entry point.

Subcommands: ``refine`` (subdivision rendering of score fields),
``ensemble`` (multi-model fusion), ``eval`` (mask AP report) and ``stats``
(box size histogram). Options resolve as CLI flag > config file > built-in
default, and every run writes the resolved configuration next to its
output. Exit codes: 0 success, 1 internal error, 2 usage, input or output error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from .core import BBox, mask_bbox, mask_iou, rle_encode, resample
from .coco_io import (
    FieldInstance,
    SchemaError,
    _load_columns,
    _read_json,
    _write_columns,
    dataset_ground_truth,
    load_dataset,
    load_field_archive,
    median_sqrt_area,
    size_histogram,
    write_results,
)
from .evaluation import EvalConfig, evaluate
from .fusion import Detection, EnsembleConfig, ModelCandidate, SoftNmsConfig, _fuse, model_weights
from .refine import (
    IdentityPredictor,
    OracleFieldPredictor,
    SubdivisionConfig,
    resample_mask,
    subdivision_mask,
)
from .synthetic import parse_corpus_spec, shape_field

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class InputError(Exception):
    """User-facing input problem; reported on stderr with exit code 2."""


# The tunable options of each subcommand: key -> (default, help[, choices]).
# Each key is a --config key and the flag --key-with-dashes; a bool default
# makes the flag a switch. Library defaults and choices come from its configs.
_OPTIONS = {
    "refine": {
        "predictor": ("oracle", "point predictor", ("oracle", "identity")),
        "subdivision_k": (SubdivisionConfig.subdivision_k, "points re-predicted per step = k^2"),
        "target_side": (SubdivisionConfig.target_side, "output resolution"),
        "start_side": (SubdivisionConfig.start_side, "coarse resolution"),
    },
    "ensemble": {
        "strategy": (EnsembleConfig.strategy, None, EnsembleConfig.STRATEGIES),
        "theta_min": (EnsembleConfig.theta_min, None),
        "theta_max": (EnsembleConfig.theta_max, None),
        "nms_method": (SoftNmsConfig.method, None, SoftNmsConfig.METHODS),
        "sigma": (SoftNmsConfig.sigma, "gaussian decay width"),
        "iou_threshold": (SoftNmsConfig.iou_threshold, None),
        "score_floor": (SoftNmsConfig.score_floor, None),
        "class_agnostic": (not SoftNmsConfig.per_category, "suppress across categories"),
        "mask_iou_nms": (SoftNmsConfig.use_mask_iou, "overlap on masks instead of boxes"),
        "merge_masks": (EnsembleConfig.merge_masks, "vote-merge masks of near-duplicate survivors"),
        "cluster_iou": (EnsembleConfig.cluster_iou, None),
    },
    "eval": {
        "iou_on": (EvalConfig.iou_on, None, EvalConfig.IOU_ON),
        "max_dets": (EvalConfig.max_detections_per_image, "detections kept per image and category"),
    },
    "stats": {
        "bin_width": (25.0, "sqrt-area bin width"),
        "sample_n": (10000, "images sampled before counting (0 = all)"),
    },
}
for _options in _OPTIONS.values():
    _options["seed"] = (0, "random seed where sampling applies")
    _options["threads"] = (0, "worker threads (0 = one per available core, default)")


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _config_value_error(value, option: tuple) -> str | None:
    """Why a config-file ``value`` cannot stand in for an ``_OPTIONS`` entry,
    or None. It must have the default's JSON type (an int passes for a float,
    a bool for nothing but a bool) and be one of the option's choices, if any."""
    default, _, *choices = option
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        return f"expected {_JSON_TYPES[kind]}, got {json.dumps(value)}"
    if choices and value not in choices[0]:
        return f"{json.dumps(value)} is not one of {', '.join(choices[0])}"
    return None


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge built-in defaults, --config file values and explicit flags. A
    config key of another subcommand is skipped, so one file can serve all
    of them; a key no subcommand has is an error, and so is a negative
    ``seed``, ``threads`` or ``sample_n``."""
    resolved = {key: default for key, (default, *_) in _OPTIONS[command].items()}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            loaded = _read_json(path)
        except SchemaError as exc:
            raise InputError(f"config file {exc}") from exc
        if not isinstance(loaded, dict):
            raise InputError(f"config file {path}: expected a JSON object")
        for key, value in loaded.items():
            if key in resolved:
                problem = _config_value_error(value, _OPTIONS[command][key])
            elif any(key in options for options in _OPTIONS.values()):
                continue
            else:
                problem = "not an option of any subcommand"
            if problem:
                raise InputError(f"config file {path}: {key}: {problem}")
            resolved[key] = value
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    for key in ("seed", "threads", "sample_n"):
        if resolved.get(key, 0) < 0:
            raise InputError(f"invalid option: {key} must be non-negative, got {resolved[key]}")
    return resolved


def _output_paths(args: argparse.Namespace) -> list[Path]:
    """The files a run writes: ``--out``, then ``eval``'s ``.txt`` report,
    then the ``<out>.config.json`` sidecar. An ``--out`` with no file name
    (``.``, ``/``) is a directory, which the write check refuses, so it gets
    no report path."""
    out = Path(args.out)
    report = [out.with_suffix(".txt")] if args.command == "eval" and out.name else []
    return [out, *report, Path(f"{args.out}.config.json")]


def _check_writable(path: Path) -> None:
    """Open ``path`` for writing, as the run will later, and leave it as it
    was: a file this makes is removed again."""
    try:
        try:
            open(path, "xb").close()
        except FileExistsError:
            open(path, "ab").close()
        else:
            path.unlink()
    except OSError as exc:
        raise InputError(f"{path}: cannot write ({exc.strerror})") from exc


def _worker_count(opts: dict) -> int:
    """Render workers for ``refine``; 0 (the default) means one per core this
    process may run on. The other subcommands record ``--threads`` but run
    serially."""
    threads = int(opts["threads"])
    if threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _require_path(path: str | None, what: str) -> Path:
    if not path:
        raise InputError(f"missing {what}")
    return Path(path)


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def _render_units(args, opts):
    """The render config and one zero-argument build per instance, in
    instance-id order; ``build()`` returns ``(instance, reference field or
    None)``. A synthetic shape's reference is made at ``target_side`` in its
    build, so memory follows the renders in flight, and its coarse field is
    that reference resampled to ``start_side``. An archive instance's
    reference is its oracle field, or None under ``identity``."""
    cfg = SubdivisionConfig(
        subdivision_k=int(opts["subdivision_k"]),
        target_side=int(opts["target_side"]),
        start_side=int(opts["start_side"]),
    )
    side = cfg.start_side

    def shape_unit(i, shape):
        ref = shape_field(shape, cfg.target_side)
        return FieldInstance(f"shape{i:04d}", i + 1, 1, 1.0, resample(ref, side, side)), ref

    if args.synthetic:
        shapes = parse_corpus_spec(args.synthetic)
        order = sorted(range(len(shapes)), key="shape{:04d}".format)  # ids compare as strings
        return cfg, [partial(shape_unit, i, shapes[i]) for i in order]
    coarse_path = _require_path(args.coarse, "--coarse input (or use --synthetic)")
    instances = load_field_archive(coarse_path)
    refs = {}
    if opts["predictor"] == "oracle":
        oracle_path = _require_path(
            args.oracle, "--oracle archive (required with the oracle predictor)"
        )
        refs = {inst.instance_id: inst.field for inst in load_field_archive(oracle_path)}
    for inst in instances:
        if (inst.field.width, inst.field.height) != (side, side):
            raise InputError(
                f"{coarse_path}: instance {inst.instance_id}: coarse field is "
                f"{inst.field.width}x{inst.field.height}, expected {side}x{side} (--start-side)"
            )
        if opts["predictor"] == "oracle" and inst.instance_id not in refs:
            raise InputError(f"oracle archive has no instance {inst.instance_id}")
    instances.sort(key=lambda inst: inst.instance_id)
    # a build of an archive instance returns its loaded pair: tuple(pair) is the pair
    return cfg, [partial(tuple, (inst, refs.get(inst.instance_id))) for inst in instances]


def cmd_refine(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    for flag in ("coarse", "oracle"):
        if args.synthetic and getattr(args, flag):
            raise InputError(f"--synthetic and --{flag} are mutually exclusive")
    try:
        cfg, units = _render_units(args, opts)
    except ValueError as exc:
        raise InputError(str(exc))
    side, oracle = cfg.target_side, opts["predictor"] == "oracle"

    def render(build):
        """Render one instance; with a reference field, also its IoU
        against the reference binarized at the target side."""
        inst, ref = build()
        predictor = OracleFieldPredictor(ref) if oracle else IdentityPredictor()
        mask = subdivision_mask(inst.field, predictor, cfg)
        det = Detection(
            image_id=inst.image_id,
            category_id=inst.category_id,
            score=inst.score,
            bbox=inst.bbox if inst.bbox is not None else mask_bbox(mask),
            mask=rle_encode(mask),
        )
        return det, None if ref is None else mask_iou(mask, resample_mask(ref, side, side))

    with ThreadPoolExecutor(max_workers=_worker_count(opts)) as pool:
        rendered = list(pool.map(render, units))

    dets = [det for det, _ in rendered]
    dets.sort(key=lambda d: (d.image_id, d.category_id, -d.score))
    write_results(args.out, dets)
    ious = [iou for _, iou in rendered if iou is not None]
    summary = f"mean_iou {float(np.mean(ious)):.6f}\n" if ious else ""
    summary += f"rendered {len(dets)} instances -> {args.out}\n"
    return {"coarse": args.coarse, "oracle": args.oracle, "synthetic": args.synthetic}, summary


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def _parse_model_arg(spec: str) -> ModelCandidate:
    path, sep, score = spec.rpartition(":")
    if not sep or not path:
        raise InputError(f"--model expects PATH:SCORE, got {spec!r}")
    try:
        value = float(score)
    except ValueError:
        raise InputError(f"--model {spec!r}: score {score!r} is not a number")
    try:
        return ModelCandidate(model_id=path, validation_score=value, detections=[])
    except ValueError as exc:
        raise InputError(f"--model {spec!r}: {exc}")


def _check_masks(image_ids: list, masks: list, where: str, sizes: dict, flag: str | None) -> None:
    """A mask on every record when ``flag`` needs one, and one mask size per
    image. ``sizes`` maps an image id to ``(width, height, source)``; an
    image it lacks takes its size from the first mask seen. Records are
    named ``{where}results[i]``."""
    for i, (image_id, mask) in enumerate(zip(image_ids, masks)):
        at = f"{where}results[{i}]"
        if mask is None:
            if flag:
                raise InputError(f"{at} has no segmentation, which {flag} needs")
            continue
        w, h = mask.width, mask.height
        w0, h0, source = sizes.setdefault(image_id, (w, h, at))
        if (w, h) != (w0, h0):
            raise InputError(
                f"{at}.segmentation: mask is {w}x{h} but {source} gives "
                f"image {image_id} a {w0}x{h0} mask"
            )


def cmd_ensemble(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    if not args.model:
        raise InputError("at least one --model PATH:SCORE is required")
    models = [_parse_model_arg(spec) for spec in args.model]
    try:
        cfg = EnsembleConfig(
            theta_min=float(opts["theta_min"]),
            theta_max=float(opts["theta_max"]),
            strategy=str(opts["strategy"]),
            nms=SoftNmsConfig(
                method=str(opts["nms_method"]),
                sigma=float(opts["sigma"]),
                iou_threshold=float(opts["iou_threshold"]),
                score_floor=float(opts["score_floor"]),
                per_category=not opts["class_agnostic"],
                use_mask_iou=bool(opts["mask_iou_nms"]),
            ),
            merge_masks=bool(opts["merge_masks"]),
            cluster_iou=float(opts["cluster_iou"]),
        )
        weights = model_weights(models, cfg)
    except ValueError as exc:
        raise InputError(f"invalid option: {exc}")
    tables = [_load_columns(model.model_id) for model in models]
    if len({frozenset(t.image_id) for t in tables}) > 1:
        print("warning: model files cover different image id sets", file=sys.stderr)
    if cfg.nms.use_mask_iou or cfg.merge_masks:
        flag = "--mask-iou-nms" if cfg.nms.use_mask_iou else "--merge-masks"
        sizes = {}
        for model, t in zip(models, tables):
            _check_masks(t.image_id, t.mask, f"{model.model_id}: ", sizes, flag)
    fused = _fuse(tables, [model.model_id for model in models], weights, cfg)
    _write_columns(args.out, fused)
    summary = "".join(f"weight {m.model_id} {w:.6f}\n" for m, w in zip(models, weights))
    return {"models": list(args.model)}, summary + f"fused {len(fused)} detections -> {args.out}\n"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    gt_path = _require_path(args.gt, "--gt dataset file")
    results_path = _require_path(args.results, "--results file")
    try:
        cfg = EvalConfig(max_detections_per_image=int(opts["max_dets"]), iou_on=str(opts["iou_on"]))
    except ValueError as exc:
        raise InputError(f"invalid option: {exc}")
    ds = load_dataset(gt_path)
    gts = dataset_ground_truth(ds)
    cols = _load_columns(results_path)
    cols.wire = [None] * len(cols)  # the report needs no wire string
    sizes = {img.id: (img.width, img.height, gt_path) for img in ds.images}
    for i, image_id in enumerate(cols.image_id):
        if image_id not in sizes:
            raise InputError(f"results[{i}].image_id: image {image_id} is not in {gt_path}")
    flag = "--iou-on mask" if cfg.iou_on == "mask" else None
    _check_masks(cols.image_id, cols.mask, "", sizes, flag)
    report = evaluate(gts, cols, cfg)
    out, text, _ = _output_paths(args)
    summary = report.to_text()
    out.write_text(report.to_json())
    text.write_text(summary)
    return {"gt": args.gt, "results": args.results}, summary


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace, opts: dict) -> tuple[dict, str]:
    gt_path = _require_path(args.gt, "--gt dataset file")
    ds = load_dataset(gt_path)
    sample_n = int(opts["sample_n"])
    image_ids = [img.id for img in ds.images]
    if 0 < sample_n < len(image_ids):
        rng = np.random.default_rng(int(opts["seed"]))
        # sample positions: a numpy array of ids past 2^63 would hold floats
        image_ids = [image_ids[i] for i in rng.choice(len(image_ids), size=sample_n, replace=False)]
    chosen = set(image_ids)
    boxes = [
        BBox(*ann.bbox)
        for ann in ds.annotations
        if ann.image_id in chosen and ann.bbox is not None
    ]
    if not boxes:
        raise InputError("no boxes found in the selected images")
    try:
        hist = size_histogram(boxes, float(opts["bin_width"]))
    except ValueError as exc:
        raise InputError(f"invalid option: {exc}")
    Path(args.out).write_text(hist.to_csv())
    summary = f"median_sqrt_area {median_sqrt_area(boxes):.6f}\nboxes {hist.total} -> {args.out}\n"
    return {"gt": args.gt}, summary


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskpost",
        description="Instance-mask post-processing: rendering, ensembling, evaluation.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("refine", help="render coarse score fields to full resolution")
    p.add_argument("--coarse", help="field archive (.npz) of coarse per-instance logits")
    p.add_argument("--oracle", help="field archive of reference logits for the oracle predictor")
    p.add_argument("--synthetic", help="shape corpus spec, e.g. 'default' or 'disk:10,rect:5'")
    p.set_defaults(handler=cmd_refine)

    p = sub.add_parser("ensemble", help="fuse detection files from several models")
    p.add_argument("--model", action="append", metavar="PATH:SCORE",
                   help="results file and its validation score; repeatable")
    p.set_defaults(handler=cmd_ensemble)

    p = sub.add_parser("eval", help="COCO-style mask AP report")
    p.add_argument("--gt", help="dataset JSON with ground-truth annotations")
    p.add_argument("--results", help="detection results JSON")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("stats", help="box size histogram and median")
    p.add_argument("--gt", help="dataset JSON")
    p.set_defaults(handler=cmd_stats)

    for command, p in sub.choices.items():
        for key, (default, text, *choices) in _OPTIONS[command].items():
            if isinstance(default, bool):
                kind = dict(action="store_const", const=True)
            elif choices:
                kind = dict(choices=choices[0])
            else:
                kind = dict(type=type(default))
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **kind)
        p.add_argument("--config", help="JSON file of option defaults")
        p.add_argument("--out", required=True, help="output file path")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: check that every output path is writable,
    resolve the options, run the handler (it writes its own outputs and
    returns the sidecar's ``inputs`` and its summary), write the sidecar,
    and only then print the summary, so a failed run prints none."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        paths = _output_paths(args)
        if len(set(paths)) < len(paths):  # eval's report is --out with the suffix .txt
            raise InputError(f"{paths[0]}: --out is also the .txt report; give it another suffix")
        for path in paths:
            _check_writable(path)
        opts = _resolve(args, args.command)
        inputs, summary = args.handler(args, opts)
        payload = {"command": args.command, "inputs": inputs, "options": opts}
        paths[-1].write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        sys.stdout.write(summary)
    except (InputError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - report and exit nonzero
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
