"""Command-line entry point.

Subcommands: ``refine`` (subdivision rendering of score fields),
``ensemble`` (multi-model fusion), ``eval`` (mask AP report) and ``stats``
(box size histogram). Options resolve as CLI flag > config file > built-in
default, and every run writes the resolved configuration next to its
output. Exit codes: 0 success, 1 internal error, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .core import BBox, binarize, mask_bbox, mask_iou, rle_encode, resample
from .coco_io import (
    FieldInstance,
    SchemaError,
    dataset_ground_truth,
    load_dataset,
    load_field_archive,
    load_results,
    median_sqrt_area,
    size_histogram,
    write_results,
)
from .evaluation import EvalConfig, evaluate
from .fusion import Detection, EnsembleConfig, ModelCandidate, SoftNmsConfig, ensemble, model_weights
from .refine import IdentityPredictor, OracleFieldPredictor, SubdivisionConfig, subdivision_render
from .synthetic import parse_corpus_spec, shape_field

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class InputError(Exception):
    """User-facing input problem; reported on stderr with exit code 2."""


# The tunable options of each subcommand: key -> (default, help). Each key is
# a --config key and the flag --key-with-dashes; a bool default makes the
# flag a switch. Defaults the library owns are read from its config classes.
_OPTIONS = {
    "refine": {
        "predictor": ("oracle", "point predictor"),
        "subdivision_k": (SubdivisionConfig.subdivision_k, "points re-predicted per step = k^2"),
        "target_side": (SubdivisionConfig.target_side, "output resolution"),
        "start_side": (SubdivisionConfig.start_side, "coarse resolution"),
    },
    "ensemble": {
        "strategy": (EnsembleConfig.strategy, None),
        "theta_min": (EnsembleConfig.theta_min, None),
        "theta_max": (EnsembleConfig.theta_max, None),
        "nms_method": (SoftNmsConfig.method, None),
        "sigma": (SoftNmsConfig.sigma, "gaussian decay width"),
        "iou_threshold": (SoftNmsConfig.iou_threshold, None),
        "score_floor": (SoftNmsConfig.score_floor, None),
        "class_agnostic": (not SoftNmsConfig.per_category, "suppress across categories"),
        "mask_iou_nms": (SoftNmsConfig.use_mask_iou, "overlap on masks instead of boxes"),
        "merge_masks": (EnsembleConfig.merge_masks, "vote-merge masks of near-duplicate survivors"),
        "cluster_iou": (EnsembleConfig.cluster_iou, None),
    },
    "eval": {
        "iou_on": (EvalConfig.iou_on, None),
        "max_dets": (EvalConfig.max_detections_per_image, "detections kept per image and category"),
    },
    "stats": {
        "bin_width": (25.0, "sqrt-area bin width"),
        "sample_n": (10000, "images sampled before counting (0 = all)"),
    },
}
for _options in _OPTIONS.values():
    _options["seed"] = (0, "random seed where sampling applies")
    _options["threads"] = (0, "worker threads (0 = all cores, default)")


# allowed values of the options whose flag takes a fixed set
_CHOICES = {
    "predictor": ("oracle", "identity"),
    "strategy": EnsembleConfig.STRATEGIES,
    "nms_method": SoftNmsConfig.METHODS,
    "iou_on": EvalConfig.IOU_ON,
}


_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _config_value_error(value, default, key: str) -> str | None:
    """Why a config-file ``value`` cannot stand in for ``default``, or None.
    A value has its default's JSON type (an int passes for a float, a bool
    for nothing but a bool) and, for a fixed-choice option, is one of them."""
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        return f"expected {_JSON_TYPES[kind]}, got {json.dumps(value)}"
    if key in _CHOICES and value not in _CHOICES[key]:
        return f"{json.dumps(value)} is not one of {', '.join(_CHOICES[key])}"
    return None


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge built-in defaults, --config file values and explicit flags. A
    config key of another subcommand is skipped, so one file can serve all
    of them; a key no subcommand has is an error, and so is a negative
    ``threads``, which every subcommand takes."""
    resolved = {key: default for key, (default, _) in _OPTIONS[command].items()}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise InputError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path}: invalid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise InputError(f"config file {path}: expected a JSON object")
        for key, value in loaded.items():
            if key in resolved:
                problem = _config_value_error(value, resolved[key], key)
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
    if resolved["threads"] < 0:
        raise InputError(f"invalid option: threads must be non-negative, got {resolved['threads']}")
    return resolved


def _write_sidecar(out_path: str, command: str, resolved: dict, inputs: dict) -> None:
    sidecar = Path(str(out_path) + ".config.json")
    payload = {"command": command, "inputs": inputs, "options": resolved}
    sidecar.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _worker_count(opts: dict) -> int:
    """Render workers for ``refine``; 0 (the default) means one per core.
    The other subcommands record ``--threads`` but run serially."""
    threads = int(opts["threads"])
    return threads if threads > 0 else (os.cpu_count() or 1)


def _require_path(path: str | None, what: str) -> Path:
    if not path:
        raise InputError(f"missing {what}")
    p = Path(path)
    if not p.exists():
        raise InputError(f"{what} not found: {p}")
    return p


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

def _render_units(args, opts):
    """The render config and one ``(instance, reference field or None)``
    pair per instance, sorted by instance id. A synthetic shape's coarse
    field is its reference field resampled to ``start_side``; an archive
    instance's reference is its oracle field, or None under ``identity``."""
    cfg = SubdivisionConfig(
        subdivision_k=int(opts["subdivision_k"]),
        target_side=int(opts["target_side"]),
        start_side=int(opts["start_side"]),
    )
    side = cfg.start_side
    units = []
    if args.synthetic:
        for i, shape in enumerate(parse_corpus_spec(args.synthetic)):
            ref = shape_field(shape, cfg.target_side)
            coarse = resample(ref, side, side)
            units.append((FieldInstance(f"shape{i:04d}", i + 1, 1, 1.0, coarse), ref))
    else:
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
            units.append((inst, refs.get(inst.instance_id)))
    units.sort(key=lambda unit: unit[0].instance_id)
    return cfg, units


def cmd_refine(args: argparse.Namespace) -> None:
    opts = _resolve(args, "refine")
    if args.synthetic and args.coarse:
        raise InputError("--synthetic and --coarse are mutually exclusive")
    try:
        cfg, units = _render_units(args, opts)
    except ValueError as exc:
        raise InputError(str(exc))
    side, oracle = cfg.target_side, opts["predictor"] == "oracle"

    def render(unit):
        """Render one instance; with a reference field, also its IoU
        against the reference binarized at the target side."""
        inst, ref = unit
        predictor = OracleFieldPredictor(ref) if oracle else IdentityPredictor()
        mask = binarize(subdivision_render(inst.field, predictor, cfg))
        det = Detection(
            image_id=inst.image_id,
            category_id=inst.category_id,
            score=inst.score,
            bbox=inst.bbox if inst.bbox is not None else mask_bbox(mask),
            mask=rle_encode(mask),
        )
        return det, None if ref is None else mask_iou(mask, binarize(resample(ref, side, side)))

    with ThreadPoolExecutor(max_workers=_worker_count(opts)) as pool:
        rendered = list(pool.map(render, units))

    dets = [det for det, _ in rendered]
    dets.sort(key=lambda d: (d.image_id, d.category_id, -d.score))
    write_results(args.out, dets)
    ious = [iou for _, iou in rendered if iou is not None]
    if ious:
        print(f"mean_iou {float(np.mean(ious)):.6f}")
    print(f"rendered {len(dets)} instances -> {args.out}")
    _write_sidecar(
        args.out,
        "refine",
        opts,
        {"coarse": args.coarse, "oracle": args.oracle, "synthetic": args.synthetic},
    )


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def _parse_model_arg(spec: str) -> tuple[str, float]:
    path, sep, score = spec.rpartition(":")
    if not sep or not path:
        raise InputError(f"--model expects PATH:SCORE, got {spec!r}")
    try:
        return path, float(score)
    except ValueError:
        raise InputError(f"--model {spec!r}: score {score!r} is not a number")


def _check_masks(models: list[ModelCandidate], flag: str) -> None:
    """Mask soft-NMS and the vote merge need a mask on every record and one
    mask size per image across all model files."""
    first: dict[int, tuple[int, int, str]] = {}
    for model in models:
        for i, det in enumerate(model.detections):
            where = f"{model.model_id}: results[{i}]"
            if det.mask is None:
                raise InputError(f"{where} has no segmentation, which {flag} needs")
            w, h = det.mask.width, det.mask.height
            w0, h0, where0 = first.setdefault(det.image_id, (w, h, where))
            if (w, h) != (w0, h0):
                raise InputError(
                    f"{where}.segmentation: mask is {w}x{h} but {where0} gives "
                    f"image {det.image_id} a {w0}x{h0} mask"
                )


def cmd_ensemble(args: argparse.Namespace) -> None:
    opts = _resolve(args, "ensemble")
    if not args.model:
        raise InputError("at least one --model PATH:SCORE is required")
    models = []
    image_sets = []
    for spec in args.model:
        path, score = _parse_model_arg(spec)
        _require_path(path, "model results file")
        dets = load_results(path)
        try:
            models.append(ModelCandidate(model_id=path, validation_score=score, detections=dets))
        except ValueError as exc:
            raise InputError(f"--model {spec!r}: {exc}")
        image_sets.append({d.image_id for d in dets})
    if len(set(map(frozenset, image_sets))) > 1:
        print("warning: model files cover different image id sets", file=sys.stderr)

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
    except ValueError as exc:
        raise InputError(f"invalid option: {exc}")
    if cfg.nms.use_mask_iou or cfg.merge_masks:
        _check_masks(models, "--mask-iou-nms" if cfg.nms.use_mask_iou else "--merge-masks")
    for model, w in zip(models, model_weights(models, cfg)):
        print(f"weight {model.model_id} {w:.6f}")

    fused = ensemble(models, cfg)
    write_results(args.out, fused)
    print(f"fused {len(fused)} detections -> {args.out}")
    _write_sidecar(args.out, "ensemble", opts, {"models": list(args.model)})


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> None:
    opts = _resolve(args, "eval")
    gt_path = _require_path(args.gt, "--gt dataset file")
    results_path = _require_path(args.results, "--results file")
    ds = load_dataset(gt_path)
    gts = dataset_ground_truth(ds)
    dets = load_results(results_path)
    try:
        cfg = EvalConfig(max_detections_per_image=int(opts["max_dets"]), iou_on=str(opts["iou_on"]))
    except ValueError as exc:
        raise InputError(f"invalid option: {exc}")
    images = ds.image_by_id()
    for i, det in enumerate(dets):
        img = images.get(det.image_id)
        if img is None:
            raise InputError(f"results[{i}].image_id: image {det.image_id} is not in {gt_path}")
        if det.mask is None:
            if cfg.iou_on == "mask":
                raise InputError(f"results[{i}] has no segmentation, which --iou-on mask needs")
        elif (det.mask.width, det.mask.height) != (img.width, img.height):
            raise InputError(
                f"results[{i}].segmentation: mask is {det.mask.width}x{det.mask.height} "
                f"but image {img.id} is {img.width}x{img.height}"
            )
    report = evaluate(gts, dets, cfg)
    out = Path(args.out)
    out.write_text(report.to_json())
    out.with_suffix(".txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    _write_sidecar(args.out, "eval", opts, {"gt": args.gt, "results": args.results})


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> None:
    opts = _resolve(args, "stats")
    gt_path = _require_path(args.gt, "--gt dataset file")
    ds = load_dataset(gt_path)
    sample_n, seed = int(opts["sample_n"]), int(opts["seed"])
    if sample_n < 0:
        raise InputError(f"invalid option: sample_n must be non-negative, got {sample_n}")
    if seed < 0:
        raise InputError(f"invalid option: seed must be non-negative, got {seed}")
    image_ids = [img.id for img in ds.images]
    if 0 < sample_n < len(image_ids):
        rng = np.random.default_rng(seed)
        chosen = set(rng.choice(np.array(image_ids), size=sample_n, replace=False).tolist())
    else:
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
    print(f"median_sqrt_area {median_sqrt_area(boxes):.6f}")
    print(f"boxes {hist.total} -> {args.out}")
    _write_sidecar(args.out, "stats", opts, {"gt": args.gt})


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
        for key, (default, text) in _OPTIONS[command].items():
            if isinstance(default, bool):
                kind = dict(action="store_const", const=True)
            elif key in _CHOICES:
                kind = dict(choices=_CHOICES[key])
            else:
                kind = dict(type=type(default))
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=text, **kind)
        p.add_argument("--config", help="JSON file of option defaults")
        p.add_argument("--out", required=True, help="output file path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        args.handler(args)
    except (InputError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - report and exit nonzero
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
