"""COCO-format data boundary.

Readers tolerate unknown fields and fail with structured errors naming the
offending record; writers emit only the fields this toolkit consumes.
Covers dataset and results JSON, the compressed run-length string codec
used for ``segmentation`` payloads, polygon rasterization, box size
statistics, and a numpy archive format for score fields.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import BBox, RleMask, ScoreField, rle_bbox, rle_encode
from .evaluation import GroundTruthInstance
from .fusion import Detection

__all__ = [
    "SchemaError",
    "ImageInfo",
    "CategoryInfo",
    "AnnotationRecord",
    "DatasetFile",
    "load_dataset",
    "dataset_ground_truth",
    "load_results",
    "write_results",
    "rle_string_encode",
    "rle_string_decode",
    "rasterize_polygon",
    "rasterize_polygons",
    "annotation_mask",
    "Histogram",
    "size_histogram",
    "median_sqrt_area",
    "FieldInstance",
    "write_field_archive",
    "load_field_archive",
]


class SchemaError(ValueError):
    """A data file violates the expected COCO schema; the message names the
    record and field at fault."""


def _require(record: dict, key: str, context: str):
    if key not in record:
        raise SchemaError(f"{context}.{key}: missing")
    return record[key]


def _as_number(value, context: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{context}: expected a number, got {type(value).__name__}")
    return float(value)


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{context}: expected an integer, got {type(value).__name__}")
    return value


def _as_box(value, context: str) -> list[float]:
    """``[x, y, w, h]``: four finite numbers with non-negative sides."""
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SchemaError(f"{context}: expected [x, y, w, h]")
    box = [_as_number(v, f"{context}[{j}]") for j, v in enumerate(value)]
    if not all(math.isfinite(v) for v in box):
        raise SchemaError(f"{context}: non-finite value in {box}")
    if box[2] < 0 or box[3] < 0:
        raise SchemaError(f"{context}: negative side in {box}")
    return box


def _read_json(path):
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageInfo:
    id: int
    width: int
    height: int
    file_name: str = ""


@dataclass(frozen=True)
class CategoryInfo:
    id: int
    name: str = ""


@dataclass
class AnnotationRecord:
    id: int
    image_id: int
    category_id: int
    segmentation: object  # polygon list-of-lists or RLE dict
    bbox: list[float] | None = None
    area: float | None = None


@dataclass
class DatasetFile:
    images: list[ImageInfo]
    annotations: list[AnnotationRecord]
    categories: list[CategoryInfo]

    def image_by_id(self) -> dict[int, ImageInfo]:
        return {img.id: img for img in self.images}


def load_dataset(path) -> DatasetFile:
    """Parse a COCO dataset JSON file.

    Unknown fields are ignored. Annotations referencing a missing image are
    a schema error; boxes poking outside their image only warn.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    images = []
    for i, rec in enumerate(data.get("images", [])):
        ctx = f"images[{i}]"
        images.append(
            ImageInfo(
                id=_as_int(_require(rec, "id", ctx), f"{ctx}.id"),
                width=_as_int(_require(rec, "width", ctx), f"{ctx}.width"),
                height=_as_int(_require(rec, "height", ctx), f"{ctx}.height"),
                file_name=str(rec.get("file_name", "")),
            )
        )
    categories = []
    for i, rec in enumerate(data.get("categories", [])):
        ctx = f"categories[{i}]"
        categories.append(
            CategoryInfo(
                id=_as_int(_require(rec, "id", ctx), f"{ctx}.id"),
                name=str(rec.get("name", "")),
            )
        )
    by_id = {img.id: img for img in images}
    cat_ids = {cat.id for cat in categories}
    annotations = []
    for i, rec in enumerate(data.get("annotations", [])):
        ctx = f"annotations[{i}]"
        image_id = _as_int(_require(rec, "image_id", ctx), f"{ctx}.image_id")
        if image_id not in by_id:
            raise SchemaError(f"{ctx}.image_id: references missing image {image_id}")
        category_id = _as_int(_require(rec, "category_id", ctx), f"{ctx}.category_id")
        if category_id not in cat_ids:
            raise SchemaError(f"{ctx}.category_id: references missing category {category_id}")
        bbox = rec.get("bbox")
        if bbox is not None:
            bbox = _as_box(bbox, f"{ctx}.bbox")
            img = by_id[image_id]
            if bbox[0] < 0 or bbox[1] < 0 or bbox[0] + bbox[2] > img.width or bbox[1] + bbox[3] > img.height:
                warnings.warn(f"{ctx}: bbox {bbox} extends outside image {image_id}")
        area = rec.get("area")
        annotations.append(
            AnnotationRecord(
                id=_as_int(rec.get("id", i), f"{ctx}.id"),
                image_id=image_id,
                category_id=category_id,
                segmentation=rec.get("segmentation"),
                bbox=bbox,
                area=None if area is None else _as_number(area, f"{ctx}.area"),
            )
        )
    return DatasetFile(images=images, annotations=annotations, categories=categories)


def annotation_mask(segmentation, width: int, height: int, context: str = "segmentation") -> RleMask:
    """Decode an annotation's ``segmentation`` payload into an RLE mask.

    Accepts polygon lists (unioned), RLE dicts with a compressed counts
    string, and RLE dicts with a plain counts list.
    """
    if isinstance(segmentation, dict):
        size = _require(segmentation, "size", context)
        if not isinstance(size, (list, tuple)) or len(size) != 2:
            raise SchemaError(f"{context}.size: expected [height, width]")
        h, w = size
        if (h, w) != (height, width):
            raise SchemaError(
                f"{context}.size: mask is {w}x{h} but the image is {width}x{height}"
            )
        counts = _require(segmentation, "counts", context)
        if isinstance(counts, str):
            return rle_string_decode(counts, width, height)
        if isinstance(counts, (list, tuple)):
            try:
                return RleMask(width, height, counts)
            except ValueError as exc:
                raise SchemaError(f"{context}.counts: {exc}") from exc
        raise SchemaError(f"{context}.counts: expected a string or list")
    if isinstance(segmentation, (list, tuple)):
        polys = segmentation
        if polys and isinstance(polys[0], (int, float)):
            polys = [polys]
        try:
            return rle_encode(rasterize_polygons(polys, width, height))
        except ValueError as exc:
            raise SchemaError(f"{context}: {exc}") from exc
    raise SchemaError(f"{context}: expected a polygon list or RLE object")


def dataset_ground_truth(ds: DatasetFile) -> list[GroundTruthInstance]:
    """Turn dataset annotations into evaluable ground-truth instances.

    Masks are decoded (polygons rasterized) at image resolution; the
    instance area is the decoded mask's pixel count regardless of the
    file's ``area`` field.
    """
    by_id = ds.image_by_id()
    out = []
    for i, ann in enumerate(ds.annotations):
        img = by_id[ann.image_id]
        if ann.segmentation is None:
            raise SchemaError(f"annotations[{i}].segmentation: missing (annotation {ann.id})")
        mask = annotation_mask(
            ann.segmentation, img.width, img.height, f"annotations[{i}].segmentation"
        )
        bbox = BBox(*ann.bbox) if ann.bbox is not None else rle_bbox(mask)
        out.append(
            GroundTruthInstance(
                image_id=ann.image_id,
                category_id=ann.category_id,
                mask=mask,
                bbox=bbox,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Results files
# ---------------------------------------------------------------------------

def load_results(path) -> list[Detection]:
    """Parse a COCO results JSON file into detections."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: results file must be a JSON array")
    dets = []
    for i, rec in enumerate(data):
        ctx = f"results[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{ctx}: expected an object")
        score = _as_number(_require(rec, "score", ctx), f"{ctx}.score")
        if not 0.0 <= score <= 1.0:
            raise SchemaError(f"{ctx}.score: {score} outside [0, 1]")
        mask = None
        if "segmentation" in rec:
            seg = rec["segmentation"]
            if not isinstance(seg, dict):
                raise SchemaError(f"{ctx}.segmentation: expected an RLE object")
            size = _require(seg, "size", f"{ctx}.segmentation")
            if not isinstance(size, (list, tuple)) or len(size) != 2:
                raise SchemaError(f"{ctx}.segmentation.size: expected [height, width]")
            h, w = (_as_int(v, f"{ctx}.segmentation.size") for v in size)
            mask = annotation_mask(seg, w, h, f"{ctx}.segmentation")
        bbox = rec.get("bbox")
        if bbox is not None:
            bbox = BBox(*_as_box(bbox, f"{ctx}.bbox"))
        elif mask is not None:
            bbox = rle_bbox(mask)
        else:
            raise SchemaError(f"{ctx}: needs a bbox or a segmentation")
        dets.append(
            Detection(
                image_id=_as_int(_require(rec, "image_id", ctx), f"{ctx}.image_id"),
                category_id=_as_int(_require(rec, "category_id", ctx), f"{ctx}.category_id"),
                score=score,
                bbox=bbox,
                mask=mask,
            )
        )
    return dets


def write_results(path, dets: list[Detection]) -> None:
    """Write detections as COCO results JSON, in the given order."""
    records = []
    for det in dets:
        rec = {
            "image_id": int(det.image_id),
            "category_id": int(det.category_id),
            "score": float(det.score),
            "bbox": det.bbox.to_list(),
        }
        if det.mask is not None:
            rec["segmentation"] = {
                "size": [det.mask.height, det.mask.width],
                "counts": rle_string_encode(det.mask),
            }
        records.append(rec)
    with open(path, "w") as fh:
        json.dump(records, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Compressed RLE strings (the de-facto COCO wire format: 5-bit chunks with a
# continuation flag, offset by char 48, counts delta-coded from two back)
# ---------------------------------------------------------------------------

def rle_string_encode(rle: RleMask) -> str:
    counts = rle.counts
    chars = []
    for i in range(counts.size):
        x = int(counts[i])
        if i > 2:
            x -= int(counts[i - 2])
        while True:
            chunk = x & 0x1F
            x >>= 5
            more = (x != -1) if (chunk & 0x10) else (x != 0)
            if more:
                chunk |= 0x20
            chars.append(chr(48 + chunk))
            if not more:
                break
    return "".join(chars)


def rle_string_decode(s: str, width: int, height: int) -> RleMask:
    counts: list[int] = []
    pos = 0
    while pos < len(s):
        x = 0
        shift = 0
        while True:
            if pos >= len(s):
                raise SchemaError("truncated RLE string")
            chunk = ord(s[pos]) - 48
            if not 0 <= chunk <= 63:
                raise SchemaError(f"invalid RLE character {s[pos]!r}")
            pos += 1
            x |= (chunk & 0x1F) << shift
            shift += 5
            if not chunk & 0x20:
                if chunk & 0x10:
                    x -= 1 << shift
                break
        if len(counts) > 2:
            x += counts[-2]
        counts.append(x)
    try:
        return RleMask(width, height, counts)
    except ValueError as exc:
        raise SchemaError(f"RLE string decodes to invalid counts: {exc}") from exc


# ---------------------------------------------------------------------------
# Polygon rasterization
# ---------------------------------------------------------------------------

def _vertex_array(polygon) -> np.ndarray:
    verts = np.asarray(polygon, dtype=np.float64)
    if verts.ndim == 1:
        if verts.size % 2:
            raise ValueError("flat polygon needs an even number of coordinates")
        verts = verts.reshape(-1, 2)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    return verts


def rasterize_polygon(polygon, width: int, height: int) -> np.ndarray:
    """Scanline-fill one polygon with the even-odd rule.

    A pixel belongs to the polygon when its center ``(col + 0.5, row + 0.5)``
    is inside; spans are half-open on the right so centers exactly on a
    crossing resolve deterministically. Vertices may be a flat COCO-style
    coordinate list or ``(x, y)`` pairs.
    """
    verts = _vertex_array(polygon)
    mask = np.zeros((height, width), dtype=bool)
    crossings: list[list[float]] = [[] for _ in range(height)]
    n = verts.shape[0]
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        if y1 == y2:
            continue  # horizontal edges never cross a scanline transversally
        ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
        r0 = max(0, math.ceil(ylo - 0.5))
        r1 = min(height - 1, math.ceil(yhi - 0.5) - 1)
        for row in range(r0, r1 + 1):
            yc = row + 0.5
            crossings[row].append(x1 + (yc - y1) * (x2 - x1) / (y2 - y1))
    for row, xs in enumerate(crossings):
        if not xs:
            continue
        xs.sort()
        for a, b in zip(xs[::2], xs[1::2]):
            j0 = max(0, math.ceil(a - 0.5))
            j1 = min(width - 1, math.ceil(b - 0.5) - 1)
            if j1 >= j0:
                mask[row, j0 : j1 + 1] = True
    return mask


def rasterize_polygons(polygons, width: int, height: int) -> np.ndarray:
    """Union of several filled polygons (COCO multi-polygon annotations)."""
    mask = np.zeros((height, width), dtype=bool)
    for poly in polygons:
        mask |= rasterize_polygon(poly, width, height)
    return mask


# ---------------------------------------------------------------------------
# Box size statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    """Counts of boxes per sqrt-area interval of width ``bin_width``."""

    bin_width: float
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_csv(self) -> str:
        lines = ["bin_start,bin_end,count"]
        for i, count in enumerate(self.counts):
            lines.append(f"{i * self.bin_width:g},{(i + 1) * self.bin_width:g},{count}")
        return "\n".join(lines) + "\n"


def size_histogram(boxes: list[BBox], bin_width: float) -> Histogram:
    """Histogram box sqrt-areas: bin index is ``floor(sqrt(w*h) / bin_width)``."""
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    if not boxes:
        return Histogram(bin_width=bin_width, counts=())
    idx = np.floor(
        np.array([b.sqrt_area for b in boxes]) / bin_width
    ).astype(np.int64)
    counts = np.bincount(idx)
    return Histogram(bin_width=bin_width, counts=tuple(int(c) for c in counts))


def median_sqrt_area(boxes: list[BBox]) -> float:
    """Lower median of box sqrt-areas; errors on empty input."""
    if not boxes:
        raise ValueError("empty input")
    values = sorted(b.sqrt_area for b in boxes)
    return values[(len(values) - 1) // 2]


# ---------------------------------------------------------------------------
# Score-field archives (numpy .npz with a JSON manifest entry)
# ---------------------------------------------------------------------------

@dataclass
class FieldInstance:
    """One instance's score field plus the metadata needed to emit a result."""

    instance_id: str
    image_id: int
    category_id: int
    score: float
    field: ScoreField
    bbox: BBox | None = None


def write_field_archive(path, instances: list[FieldInstance]) -> None:
    ids = [inst.instance_id for inst in instances]
    if len(set(ids)) != len(ids):
        raise ValueError("instance ids must be unique")
    meta = {
        "instances": [
            {
                "id": inst.instance_id,
                "image_id": inst.image_id,
                "category_id": inst.category_id,
                "score": inst.score,
                "bbox": None if inst.bbox is None else inst.bbox.to_list(),
            }
            for inst in instances
        ]
    }
    arrays = {f"logits:{inst.instance_id}": inst.field.logits for inst in instances}
    np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_field_archive(path) -> list[FieldInstance]:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    with np.load(path) as data:
        if "meta" not in data:
            raise SchemaError(f"{path}: not a field archive (no manifest)")
        meta = json.loads(str(data["meta"][()]))
        instances = []
        for rec in meta["instances"]:
            key = f"logits:{rec['id']}"
            if key not in data:
                raise SchemaError(f"{path}: missing logits for instance {rec['id']}")
            bbox = rec.get("bbox")
            instances.append(
                FieldInstance(
                    instance_id=rec["id"],
                    image_id=int(rec["image_id"]),
                    category_id=int(rec["category_id"]),
                    score=float(rec["score"]),
                    field=ScoreField(data[key]),
                    bbox=None if bbox is None else BBox(*bbox),
                )
            )
    return instances
