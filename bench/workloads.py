"""Seeded inputs for the four benchmark workloads.

Every workload is one ``maskpost`` CLI command on generated inputs. The
generator takes the workload seed and writes inputs only through the public
``coco_io.write_field_archive`` writer or as COCO JSON. The JSON masks use
the generator's own wire encoder, so they do not depend on the codec under
test. The same seed always gives byte-identical inputs.
"""
from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 480
CATEGORIES = (1, 2, 3)


@dataclass(frozen=True)
class Prepared:
    """A generated workload: the CLI argv to time, its item count, and the
    files whose bytes the output gate hashes."""

    argv: list[str]
    items: int
    outputs: list[str]
    # (workdir, gated stdout lines) -> error message, or None when sane
    check: Callable[[Path, list[str]], str | None]


# ---------------------------------------------------------------------------
# Masks: rotated, wobbly ellipses rasterized in their own box
# ---------------------------------------------------------------------------

def _wobbly_ellipse(cx, cy, a, b, theta, eps, freq, phase):
    """Pixel-centre membership of one shape, bbox-local.

    A rotated ellipse, ``u**2 + v**2 <= 1`` in its normalised frame, whose
    boundary is pushed in and out by ``2 * eps * sin(.) * cos(.)`` of the
    image coordinates; the wobble is separable in x and y, so it costs one
    outer product instead of per-pixel trig. Returns ``(x0, y0, local)``
    with ``local`` a non-empty boolean array, or None when the shape misses
    the image.
    """
    c, s = math.cos(theta), math.sin(theta)
    grow = 1.0 + eps
    ex, ey = math.hypot(a * c, b * s) * grow, math.hypot(a * s, b * c) * grow
    x0, x1 = max(0, int(math.floor(cx - ex))), min(WIDTH, int(math.ceil(cx + ex)) + 1)
    y0, y1 = max(0, int(math.floor(cy - ey))), min(HEIGHT, int(math.ceil(cy + ey)) + 1)
    if x1 <= x0 or y1 <= y0:
        return None
    xs = (np.arange(x0, x1) + 0.5 - cx).astype(np.float32)
    ys = (np.arange(y0, y1) + 0.5 - cy).astype(np.float32)
    un = (xs * (c / a))[None, :] + (ys * (s / a))[:, None]
    vn = (xs * (-s / b))[None, :] + (ys * (c / b))[:, None]
    wobble = (np.sin(xs * (freq / a) + phase) * (2.0 * eps))[None, :] * np.cos(ys * (freq / b))[:, None]
    local = un * un + vn * vn <= 1.0 + wobble
    if not local.any():
        return None
    return x0, y0, local


def _column_major_counts(x0, y0, local):
    """COCO run lengths of a bbox-local mask placed on the full image."""
    bh, bw = local.shape
    padded = np.zeros((bw, bh + 2), dtype=np.int8)
    padded[:, 1:-1] = local.T
    col, row = np.nonzero(np.diff(padded, axis=1))
    # Transitions alternate start, end within each column; as flat
    # column-major positions they alternate over the whole image.
    bounds = (x0 + col) * HEIGHT + y0 + row
    starts, ends = bounds[0::2], bounds[1::2]
    # A run ending at the bottom of one column continues at the top of the next.
    joined = ends[:-1] == starts[1:]
    if joined.any():
        starts = starts[np.concatenate(([True], ~joined))]
        ends = ends[np.concatenate((~joined, [True]))]
    edges = np.empty(2 * starts.size, dtype=np.int64)
    edges[0::2], edges[1::2] = starts, ends
    counts = np.diff(np.concatenate(([0], edges, [WIDTH * HEIGHT])))
    return counts if counts[-1] else counts[:-1]


def wire_string(counts) -> str:
    """COCO compressed RLE string: counts delta-coded from two back, then
    5-bit little-endian chunks with a continuation flag, offset by '0'."""
    counts = np.asarray(counts, dtype=np.int64)
    x = counts.copy()
    x[3:] -= counts[1:-2]
    # Chunks needed: smallest n with -16 * 32**(n-1) <= x < 16 * 32**(n-1).
    n = np.ones(x.size, dtype=np.int64)
    limit = 16
    while True:
        wider = (x < -limit) | (x >= limit)
        if not wider.any():
            break
        n += wider
        limit *= 32
    j = np.arange(int(n.max()))
    chunks = (x[:, None] >> (5 * j)) & 0x1F
    chunks |= np.where(j < n[:, None] - 1, 0x20, 0)
    return (chunks[j < n[:, None]] + 48).astype(np.uint8).tobytes().decode("ascii")


def _tight_bbox(x0, y0, local):
    rows = np.flatnonzero(local.any(axis=1))
    cols = np.flatnonzero(local.any(axis=0))
    return [float(x0 + cols[0]), float(y0 + rows[0]),
            float(cols[-1] - cols[0] + 1), float(rows[-1] - rows[0] + 1)]


class _Shape:
    """Parameters of one instance in image pixels."""

    def __init__(self, rng, near=None, size_q=None):
        if near is None:
            self.a = 12.0 + 78.0 * size_q
            self.b = self.a * float(rng.uniform(0.45, 1.0))
            self.cx = float(rng.uniform(self.a * 0.5, WIDTH - self.a * 0.5))
            self.cy = float(rng.uniform(self.b * 0.5, HEIGHT - self.b * 0.5))
            self.theta = float(rng.uniform(0, math.pi))
        else:
            # A detection of ``near``: centre, size and angle jittered.
            size = math.sqrt(near.a * near.b)
            self.cx = near.cx + float(rng.normal(0, 0.08 * size))
            self.cy = near.cy + float(rng.normal(0, 0.08 * size))
            self.a = near.a * float(rng.uniform(0.85, 1.15))
            self.b = near.b * float(rng.uniform(0.85, 1.15))
            self.theta = near.theta + float(rng.normal(0, 0.15))
        self.eps = float(rng.uniform(0.0, 0.15))
        self.freq = float(rng.uniform(2.0, 5.0))
        self.phase = float(rng.uniform(0, 2 * math.pi))

    def encode(self):
        """``(segmentation, bbox)`` in COCO layout, or None off-image."""
        shape = _wobbly_ellipse(self.cx, self.cy, self.a, self.b, self.theta,
                                self.eps, self.freq, self.phase)
        if shape is None:
            return None
        seg = {"size": [HEIGHT, WIDTH], "counts": wire_string(_column_major_counts(*shape))}
        return seg, _tight_bbox(*shape)


def _size_quantiles(rng, n):
    """``n`` size quantiles, one in each ``1/n`` stratum, in random order.
    Stratified sizes keep the total mask perimeter, and with it the codec
    work, nearly the same from seed to seed."""
    q = (np.arange(n) + rng.uniform(size=n)) / n
    rng.shuffle(q)
    return q


def _ground_truth(rng, n_images, gt_per_image):
    """Per image, ``gt_per_image`` shapes with categories dealt evenly."""
    images = []
    for image_id in range(1, n_images + 1):
        cats = np.resize(np.array(CATEGORIES), gt_per_image)
        rng.shuffle(cats)
        gts = []
        for cat, size_q in zip(cats, _size_quantiles(rng, gt_per_image)):
            while True:
                shape = _Shape(rng, size_q=size_q)
                encoded = shape.encode()
                if encoded is not None:
                    break
            gts.append((shape, int(cat), encoded))
        images.append((image_id, gts))
    return images


def _model_detections(rng, images, dets_per_image, true_frac=0.6):
    """One model's results: jittered copies of the ground truth (true
    positives, mostly high scores) and random shapes (false positives)."""
    records = []
    for image_id, gts in images:
        n_true = int(round(true_frac * dets_per_image))
        false_sizes = _size_quantiles(rng, dets_per_image - n_true)
        for i in range(dets_per_image):
            if i < n_true:
                gt_shape, cat, _ = gts[i % len(gts)]
                near, score, size_q = gt_shape, rng.beta(5, 2), None
            else:
                near, cat, score = None, int(rng.choice(CATEGORIES)), rng.beta(2, 5)
                size_q = false_sizes[i - n_true]
            while True:
                encoded = _Shape(rng, near, size_q).encode()
                if encoded is not None:
                    break
            seg, bbox = encoded
            records.append({
                "image_id": image_id,
                "category_id": cat,
                "score": round(float(score), 5),
                "bbox": bbox,
                "segmentation": seg,
            })
    return records


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _check_results_file(path: Path, lo: int, hi: int):
    records = json.loads(path.read_text())
    if not lo <= len(records) <= hi:
        return f"{path.name}: {len(records)} records, expected {lo}..{hi}"
    for rec in records:
        if not 0.0 <= rec["score"] <= 1.0 or "segmentation" not in rec:
            return f"{path.name}: malformed record {rec.get('image_id')}"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _prepare_render(seed, workdir: Path, threads, n_instances=12, target_side=896):
    from maskpost.coco_io import FieldInstance, write_field_archive
    from maskpost.core import BBox, ScoreField

    rng = np.random.default_rng([seed, 1])
    coarse, oracle = [], []
    for i in range(n_instances):
        a = float(rng.uniform(0.25, 0.45))
        b = a * float(rng.uniform(0.5, 1.0))
        cx, cy = (float(v) for v in rng.uniform(0.42, 0.58, size=2))
        theta = float(rng.uniform(0, math.pi))
        eps = float(rng.uniform(0.03, 0.15))
        lobes = int(rng.integers(3, 8))
        phase = float(rng.uniform(0, 2 * math.pi))

        def logits(side):
            g = np.linspace(0.0, 1.0, side)
            u, v = g[None, :] - cx, g[:, None] - cy
            c, s = math.cos(theta), math.sin(theta)
            un, vn = (u * c + v * s) / a, (v * c - u * s) / b
            lim = 1.0 + eps * np.sin(lobes * np.arctan2(vn, un) + phase)
            return 4.0 * (lim - np.sqrt(un * un + vn * vn))

        meta = dict(
            instance_id=f"inst{i:04d}",
            image_id=1 + i // 10,
            category_id=CATEGORIES[i % len(CATEGORIES)],
            score=round(float(rng.uniform(0.5, 1.0)), 5),
            bbox=BBox(*(round(float(v), 2) for v in rng.uniform([0, 0, 40, 40], [400, 300, 240, 180]))),
        )
        coarse.append(FieldInstance(field=ScoreField(logits(7)), **meta))
        oracle.append(FieldInstance(field=ScoreField(logits(224)), **meta))
    write_field_archive(workdir / "coarse.npz", coarse)
    write_field_archive(workdir / "oracle.npz", oracle)

    def validate():
        from maskpost.coco_io import load_field_archive

        for name in ("coarse.npz", "oracle.npz"):
            if len(load_field_archive(workdir / name)) != n_instances:
                raise ValueError(f"{name} does not hold {n_instances} instances")

    def check(wd, lines):
        ious = [float(l.split()[1]) for l in lines if l.startswith("mean_iou")]
        if not ious or ious[0] < 0.9:
            return f"mean_iou {ious} below 0.9"
        return _check_results_file(wd / "rendered.json", n_instances, n_instances)

    argv = ["refine", "--coarse", "coarse.npz", "--oracle", "oracle.npz",
            "--target-side", str(target_side), "--threads", str(threads),
            "--out", "rendered.json"]
    return Prepared(argv, n_instances, ["rendered.json"], check), validate


def _prepare_fuse(seed, workdir: Path, threads, n_images, dets_per_image, mask_flags,
                  n_models=3, gt_per_image=10):
    rng = np.random.default_rng([seed, 2 if mask_flags else 3])
    images = _ground_truth(rng, n_images, gt_per_image)
    argv = ["ensemble"]
    n_in = 0
    for m in range(n_models):
        records = _model_detections(rng, images, dets_per_image)
        n_in += len(records)
        _write_json(workdir / f"model{m}.json", records)
        argv += ["--model", f"model{m}.json:{0.35 + 0.05 * m + float(rng.uniform(0, 0.02)):.4f}"]
    if mask_flags:
        argv += ["--mask-iou-nms", "--merge-masks"]
    argv += ["--threads", str(threads), "--out", "fused.json"]

    def validate():
        from maskpost.coco_io import load_results

        total = sum(len(load_results(workdir / f"model{m}.json")) for m in range(n_models))
        if total != n_in:
            raise ValueError(f"models hold {total} detections, expected {n_in}")

    def check(wd, lines):
        return _check_results_file(wd / "fused.json", 1, n_in)

    return Prepared(argv, n_in, ["fused.json"], check), validate


def _prepare_eval(seed, workdir: Path, threads, n_images=12, dets_per_image=100,
                  gt_per_image=10):
    rng = np.random.default_rng([seed, 4])
    images = _ground_truth(rng, n_images, gt_per_image)
    annotations = []
    for image_id, gts in images:
        for _, cat, (seg, bbox) in gts:
            annotations.append({
                "id": len(annotations) + 1, "image_id": image_id, "category_id": cat,
                "segmentation": seg, "bbox": bbox,
            })
    dataset = {
        "images": [{"id": i, "width": WIDTH, "height": HEIGHT, "file_name": f"{i:06d}.jpg"}
                   for i, _ in images],
        "categories": [{"id": c, "name": f"class{c}"} for c in CATEGORIES],
        "annotations": annotations,
    }
    _write_json(workdir / "gt.json", dataset)
    records = _model_detections(rng, images, dets_per_image)
    _write_json(workdir / "dets.json", records)

    def validate():
        from maskpost.coco_io import load_dataset, load_results

        if len(load_dataset(workdir / "gt.json").annotations) != len(annotations):
            raise ValueError("gt.json lost annotations")
        if len(load_results(workdir / "dets.json")) != len(records):
            raise ValueError("dets.json lost detections")

    def check(wd, lines):
        maps = [float(l.split()[1]) for l in lines if l.startswith("mAP")]
        if not maps or not 0.0 < maps[0] <= 1.0:
            return f"mAP {maps} outside (0, 1]"
        return None

    argv = ["eval", "--gt", "gt.json", "--results", "dets.json", "--iou-on", "mask",
            "--threads", str(threads), "--out", "report.json"]
    return Prepared(argv, len(records), ["report.json", "report.txt"], check), validate


WORKLOADS = {
    "render-896": _prepare_render,
    "fuse-box": lambda seed, wd, t: _prepare_fuse(seed, wd, t, n_images=10, dets_per_image=100,
                                                  mask_flags=False),
    "fuse-mask": lambda seed, wd, t: _prepare_fuse(seed, wd, t, n_images=4, dets_per_image=50,
                                                   mask_flags=True),
    "eval-mask": _prepare_eval,
}


def prepare(name: str, seed: int, workdir: Path, threads: int) -> Prepared:
    """Generate the inputs of one workload and check that each loads through
    the public readers before anything is timed."""
    prepared, validate = WORKLOADS[name](seed, workdir, threads)
    validate()
    return prepared
