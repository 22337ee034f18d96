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
import zipfile
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
    "rle_strings_encode",
    "rle_strings_decode",
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
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise SchemaError(f"{context}: integer too large for a float") from None


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{context}: expected an integer, got {type(value).__name__}")
    return value


def _as_score(record: dict, context: str) -> float:
    score = _as_number(_require(record, "score", context), f"{context}.score")
    if not 0.0 <= score <= 1.0:
        raise SchemaError(f"{context}.score: {score} outside [0, 1]")
    return score


def _as_side(value, context: str) -> int:
    side = _as_int(value, context)
    if side < 1:
        raise SchemaError(f"{context}: expected a positive integer, got {side}")
    return side


def _as_box(value, context: str) -> list[float]:
    """``[x, y, w, h]``: four finite numbers with non-negative sides. Both
    corners and the area lie within half the float range, so that box IoU,
    which subtracts corners of two boxes and adds their areas, stays finite."""
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise SchemaError(f"{context}: expected [x, y, w, h]")
    box = [_as_number(v, f"{context}[{j}]") for j, v in enumerate(value)]
    if not all(math.isfinite(v) for v in box):
        raise SchemaError(f"{context}: non-finite value in {box}")
    x, y, w, h = box
    if w < 0 or h < 0:
        raise SchemaError(f"{context}: negative side in {box}")
    if not all(math.isfinite(2 * v) for v in (x, y, x + w, y + h, w * h)):
        raise SchemaError(f"{context}: coordinates too large in {box}")
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


def _records(data: dict, section: str, where: str = ""):
    """``(context, record)`` for each entry of a section, which must be a
    list of objects; an absent section is empty. Contexts start with
    ``where``."""
    records = data.get(section, [])
    if not isinstance(records, list):
        raise SchemaError(f"{where}{section}: expected a list, got {type(records).__name__}")
    for i, rec in enumerate(records):
        ctx = f"{where}{section}[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{ctx}: expected an object, got {type(rec).__name__}")
        yield ctx, rec


def _check_new_id(first: dict, key, i: int, ctx: str, section: str, noun: str) -> None:
    """Record that ``section[i]`` (context ``ctx``) has id ``key``; a
    repeated id is a schema error naming where it first appeared."""
    j = first.setdefault(key, i)
    if j != i:
        raise SchemaError(f"{ctx}.id: {noun} {json.dumps(key)} already appears at {section}[{j}]")


def load_dataset(path) -> DatasetFile:
    """Parse a COCO dataset JSON file.

    Unknown fields are ignored. A repeated image or category id, an image
    side below 1, annotations referencing a missing image, and crowd
    annotations (``iscrowd`` other than 0), are a schema error; boxes poking
    outside their image only warn.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    images, first = [], {}
    for i, (ctx, rec) in enumerate(_records(data, "images")):
        img = ImageInfo(
            id=_as_int(_require(rec, "id", ctx), f"{ctx}.id"),
            width=_as_side(_require(rec, "width", ctx), f"{ctx}.width"),
            height=_as_side(_require(rec, "height", ctx), f"{ctx}.height"),
            file_name=str(rec.get("file_name", "")),
        )
        _check_new_id(first, img.id, i, ctx, "images", "image")
        images.append(img)
    categories, first = [], {}
    for i, (ctx, rec) in enumerate(_records(data, "categories")):
        cat = CategoryInfo(
            id=_as_int(_require(rec, "id", ctx), f"{ctx}.id"),
            name=str(rec.get("name", "")),
        )
        _check_new_id(first, cat.id, i, ctx, "categories", "category")
        categories.append(cat)
    by_id = {img.id: img for img in images}
    cat_ids = {cat.id for cat in categories}
    annotations = []
    for i, (ctx, rec) in enumerate(_records(data, "annotations")):
        image_id = _as_int(_require(rec, "image_id", ctx), f"{ctx}.image_id")
        if image_id not in by_id:
            raise SchemaError(f"{ctx}.image_id: references missing image {image_id}")
        category_id = _as_int(_require(rec, "category_id", ctx), f"{ctx}.category_id")
        if category_id not in cat_ids:
            raise SchemaError(f"{ctx}.category_id: references missing category {category_id}")
        if rec.get("iscrowd", 0) != 0:
            raise SchemaError(
                f"{ctx}.iscrowd: crowd regions are not supported, got {json.dumps(rec['iscrowd'])}"
            )
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
    mask = _segmentation_mask(segmentation, context, (width, height))
    if isinstance(mask, tuple):
        mask = rle_strings_decode([mask[0]], [mask[1:]], [f"{context}.counts"])[0]
    return mask


def _segmentation_mask(segmentation, context: str, image=None) -> RleMask | tuple[str, int, int]:
    """Check a ``segmentation`` payload. ``image`` is the ``(width, height)``
    it must match; without one, as in a results file, only an RLE object,
    which carries its size, is accepted. A compressed counts string comes
    back as ``(counts, width, height)``, for :func:`_decode_strings`, and
    any other payload as its mask."""
    if isinstance(segmentation, dict):
        size = _require(segmentation, "size", context)
        if not isinstance(size, (list, tuple)) or len(size) != 2:
            raise SchemaError(f"{context}.size: expected [height, width]")
        h, w = (_as_int(v, f"{context}.size") for v in size)
        if image is not None and (w, h) != image:
            raise SchemaError(
                f"{context}.size: mask is {w}x{h} but the image is {image[0]}x{image[1]}"
            )
        counts = _require(segmentation, "counts", context)
        if isinstance(counts, str):
            return counts, w, h
        if isinstance(counts, (list, tuple)):
            for k, count in enumerate(counts):
                _as_int(count, f"{context}.counts[{k}]")
            try:
                return RleMask(w, h, counts)
            except ValueError as exc:
                raise SchemaError(f"{context}.counts: {exc}") from exc
        raise SchemaError(f"{context}.counts: expected a string or list")
    if image is None:
        raise SchemaError(f"{context}: expected an RLE object")
    if isinstance(segmentation, (list, tuple)):
        polys = segmentation
        if polys and isinstance(polys[0], (int, float)):
            polys = [polys]
        try:
            return rle_encode(rasterize_polygons(polys, *image))
        except ValueError as exc:
            raise SchemaError(f"{context}: {exc}") from exc
    raise SchemaError(f"{context}: expected a polygon list or RLE object")


def _decode_strings(masks: list, context) -> None:
    """Replace each ``(counts, width, height)`` left in ``masks`` by its mask,
    decoded in one batched call; entry ``i`` is named ``context(i)`` in
    errors."""
    todo = [i for i, mask in enumerate(masks) if isinstance(mask, tuple)]
    decoded = rle_strings_decode(
        [masks[i][0] for i in todo], [masks[i][1:] for i in todo], [context(i) for i in todo]
    )
    for i, mask in zip(todo, decoded):
        masks[i] = mask


def dataset_ground_truth(ds: DatasetFile) -> list[GroundTruthInstance]:
    """Turn dataset annotations into evaluable ground-truth instances.

    Masks are decoded (polygons rasterized) at image resolution; the
    instance area is the decoded mask's pixel count regardless of the
    file's ``area`` field.
    """
    by_id = ds.image_by_id()
    masks = []
    for i, ann in enumerate(ds.annotations):
        img = by_id[ann.image_id]
        if ann.segmentation is None:
            raise SchemaError(f"annotations[{i}].segmentation: missing (annotation {ann.id})")
        ctx = f"annotations[{i}].segmentation"
        masks.append(_segmentation_mask(ann.segmentation, ctx, (img.width, img.height)))
    _decode_strings(masks, lambda i: f"annotations[{i}].segmentation.counts")
    return [
        GroundTruthInstance(
            image_id=ann.image_id,
            category_id=ann.category_id,
            mask=mask,
            bbox=BBox(*ann.bbox) if ann.bbox is not None else rle_bbox(mask),
        )
        for ann, mask in zip(ds.annotations, masks)
    ]


# ---------------------------------------------------------------------------
# Results files
# ---------------------------------------------------------------------------

def load_results(path) -> list[Detection]:
    """Parse a COCO results JSON file into detections."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: results file must be a JSON array")
    fields, masks = [], []
    for i, rec in enumerate(data):
        ctx = f"results[{i}]"
        if not isinstance(rec, dict):
            raise SchemaError(f"{ctx}: expected an object")
        score = _as_score(rec, ctx)
        mask = None
        if "segmentation" in rec:
            mask = _segmentation_mask(rec["segmentation"], f"{ctx}.segmentation")
        bbox = rec.get("bbox")
        if bbox is not None:
            bbox = BBox(*_as_box(bbox, f"{ctx}.bbox"))
        elif mask is None:
            raise SchemaError(f"{ctx}: needs a bbox or a segmentation")
        image_id = _as_int(_require(rec, "image_id", ctx), f"{ctx}.image_id")
        category_id = _as_int(_require(rec, "category_id", ctx), f"{ctx}.category_id")
        fields.append((image_id, category_id, score, bbox))
        masks.append(mask)
    _decode_strings(masks, lambda i: f"results[{i}].segmentation.counts")
    return [
        Detection(
            image_id=image_id,
            category_id=category_id,
            score=score,
            bbox=rle_bbox(mask) if bbox is None else bbox,
            mask=mask,
        )
        for (image_id, category_id, score, bbox), mask in zip(fields, masks)
    ]


def write_results(path, dets: list[Detection]) -> None:
    """Write detections as COCO results JSON, in the given order."""
    strings = iter(rle_strings_encode(det.mask for det in dets if det.mask is not None))
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
                "counts": next(strings),
            }
        records.append(rec)
    # the same bytes as json.dump(records, sort_keys=True), but through the C
    # encoder (dump runs the pure-Python one) one record at a time, so no
    # fragment list of the whole file is held
    encode = json.JSONEncoder(sort_keys=True).encode
    Path(path).write_text("[" + ", ".join(map(encode, records)) + "]\n")


# ---------------------------------------------------------------------------
# Compressed RLE strings (the de-facto COCO wire format: 5-bit chunks with a
# continuation flag, offset by char 48, counts delta-coded from two back).
# Both directions work on a slice of strings at a time in numpy array passes.
# ---------------------------------------------------------------------------

# Strings are decoded (encoded) in slices of about this many characters
# (counts), which bounds the scratch arrays to a few MB at any file size.
_SLICE_SIZE = 1 << 13
# Twelve 5-bit chunks make 60 bits; a longer value cannot fit an int64.
_MAX_VALUE_CHARS = 12
# A value v needs k + 1 chunks when 16 * 32**(k-1) <= (v or ~v) < 16 * 32**k.
_CHUNK_LIMITS = 16 * 32 ** np.arange(_MAX_VALUE_CHARS, dtype=np.int64)


def _slices(lengths):
    """``(start, stop)`` ranges of consecutive items that together reach
    ``_SLICE_SIZE`` in length (the last range may be shorter)."""
    start = total = 0
    for i, n in enumerate(lengths):
        total += n
        if total >= _SLICE_SIZE:
            yield start, i + 1
            start, total = i + 1, 0
    if start < len(lengths):
        yield start, len(lengths)


def rle_strings_encode(masks) -> list[str]:
    """Compressed counts string of each mask, byte for byte as ``maskApi.c``."""
    masks = list(masks)
    out: list[str] = []
    for a, b in _slices([m.counts.size for m in masks]):
        out += _encode_slice(masks[a:b])
    return out


def _encode_slice(masks) -> list[str]:
    sizes = np.array([m.counts.size for m in masks])
    counts = np.concatenate([m.counts for m in masks])
    firsts = np.cumsum(sizes) - sizes
    rank = np.arange(counts.size) - np.repeat(firsts, sizes)
    values = counts.copy()
    far = np.flatnonzero(rank > 2)
    values[far] -= counts[far - 2]
    chunks = np.searchsorted(_CHUNK_LIMITS, np.where(values < 0, ~values, values), "right") + 1
    ends = np.cumsum(chunks)
    step = np.arange(ends[-1]) - np.repeat(ends - chunks, chunks)
    chars = ((np.repeat(values, chunks) >> (5 * step)) & 0x1F) | 0x20
    chars[ends - 1] &= 0x1F
    text = (chars + 48).astype(np.uint8).tobytes().decode("ascii")
    stops = np.cumsum(np.add.reduceat(chunks, firsts)).tolist()
    return [text[a:b] for a, b in zip([0, *stops], stops)]


def rle_strings_decode(strings, sizes, contexts=None) -> list[RleMask]:
    """Decode compressed counts strings; ``sizes`` holds each mask's
    ``(width, height)``.

    A fault raises :class:`SchemaError` for the first string at fault, named
    by its entry in ``contexts`` (default ``strings[k]``): a character outside
    ``'0'..'o'``, a truncated string, a value longer than 12 characters, a
    value larger in magnitude than the mask's pixel count, or counts that do
    not make a valid mask.
    """
    strings, sizes = list(strings), list(sizes)
    if contexts is None:
        contexts = [f"strings[{k}]" for k in range(len(strings))]
    masks: list[RleMask] = []
    for a, b in _slices([len(s) for s in strings]):
        masks += _decode_slice(strings[a:b], sizes[a:b], contexts[a:b])
    return masks


def _decode_slice(strings, sizes, contexts) -> list[RleMask]:
    """Decode one slice: every check runs over all of its strings, and the
    first string at fault is reported."""
    n = len(strings)
    joined = "".join(strings)
    if joined.isascii():
        chunks = np.frombuffer(joined.encode("ascii"), np.uint8) - 48
    else:  # code points, so that the invalid character can be named
        chunks = np.frombuffer(joined.encode("utf-32-le"), np.uint32) - 48
    lengths = np.array([len(s) for s in strings])
    char_owner = np.repeat(np.arange(n), lengths)
    pixels = np.array([min(w * h, 1 << 60) if w > 0 and h > 0 else 0 for w, h in sizes])
    faults = []  # (first string at fault, message), most important first

    def check(at_fault, message):
        if at_fault.size:
            faults.append((int(at_fault[0]), message(int(at_fault[0]))))

    invalid = np.flatnonzero(chunks > 63)  # a character below '0' wraps around
    check(char_owner[invalid[:1]], lambda k: f"invalid RLE character {joined[invalid[0]]!r}")
    stop = chunks & 0x20 == 0  # the last chunk of a value
    last = np.cumsum(lengths)[lengths > 0] - 1
    check(char_owner[last[~stop[last]]], lambda k: "truncated RLE string")

    stops = np.flatnonzero(stop)
    starts = np.concatenate(([0], stops[:-1] + 1))
    span = stops - starts + 1
    owner = char_owner[stops]
    long = np.flatnonzero(span > _MAX_VALUE_CHARS)
    check(owner[long], lambda k: f"RLE value of {span[long[0]]} characters, more than 12")
    # value = sum of chunk << 5 * step; clipping the step keeps a faulty
    # string's garbage inside int64, and the wrapped cumsum stays exact
    head = stop[: stops[-1] + 1 if stops.size else 0]
    step = np.arange(head.size) - starts[np.cumsum(head) - head]
    bits = (chunks[: head.size] & 0x1F).astype(np.int64)
    bits <<= 5 * np.minimum(step, _MAX_VALUE_CHARS - 1)
    values = np.diff(np.cumsum(bits)[stops], prepend=0)
    negative = chunks[stops] & 0x10 != 0
    values[negative] -= np.int64(1) << 5 * np.minimum(span[negative], _MAX_VALUE_CHARS)
    bad = "RLE string decodes to invalid counts: "
    check(np.flatnonzero(pixels == 0), lambda k: bad + "mask dimensions must be positive")
    over = np.flatnonzero(np.abs(values) > pixels[owner])
    check(owner[over], lambda k: (
        f"RLE value {values[over[0]]} is larger in magnitude than the mask's {pixels[k]} pixels"
    ))

    # undo the two-back deltas: count t (position 3 or later in its string)
    # is value t plus count t - 2, a running sum along every other value
    per_string = np.bincount(owner, minlength=n)
    bounds = np.concatenate(([0], np.cumsum(per_string)))
    first = bounds[owner]
    rank = np.arange(values.size) - first
    chain = np.zeros(values.size + 1, np.int64)  # chain[t + 1] = values t + chain[t - 1]
    chain[1::2] = np.cumsum(values[0::2])
    chain[2::2] = np.cumsum(values[1::2])
    start = np.where(rank & 1, chain[first], chain[first + 1])  # before position 1 or 2
    counts = np.where(rank > 0, chain[1:] - start, values)

    empty = np.flatnonzero(per_string == 0)
    check(empty, lambda k: bad + "counts must be a non-empty 1-D sequence")
    check(owner[counts < 0], lambda k: bad + "counts must be non-negative")
    zero = owner[(counts == 0) & (rank > 0)]
    check(zero, lambda k: bad + "zero-length run beyond the leading position")
    sums = np.diff(np.concatenate(([0], np.cumsum(counts)))[bounds])
    wrong = np.flatnonzero(sums != pixels)
    check(wrong, lambda k: bad + f"counts sum to {sums[k]}, expected {pixels[k]}")
    if faults:
        k, message = min(faults, key=lambda f: f[0])
        raise SchemaError(f"{contexts[k]}: {message}")
    counts.setflags(write=False)
    bounds = bounds.tolist()
    return [
        RleMask._from_checked(w, h, counts[a:b])
        for (w, h), a, b in zip(sizes, bounds, bounds[1:])
    ]


def rle_string_encode(rle: RleMask) -> str:
    """Compressed counts string of one mask; see :func:`rle_strings_encode`."""
    return rle_strings_encode([rle])[0]


def rle_string_decode(s: str, width: int, height: int) -> RleMask:
    """Decode one compressed counts string; see :func:`rle_strings_decode`."""
    return rle_strings_decode([s], [(width, height)], ["counts"])[0]


# ---------------------------------------------------------------------------
# Polygon rasterization
# ---------------------------------------------------------------------------

_POLYGON_RULE = "a polygon is a flat list of numbers or a list of (x, y) pairs"


def _vertex_array(polygon) -> np.ndarray:
    """Float vertices of a polygon: a numeric array, or a list that is
    either all numbers (an even count) or all ``(x, y)`` pairs of numbers,
    as its first entry says. Each coordinate of a list is a number by
    :func:`_as_number`'s rule: booleans and strings are refused, not cast.
    Anything else is refused naming its position and the rule."""
    if isinstance(polygon, (list, tuple)):
        pairs = bool(polygon) and isinstance(polygon[0], (list, tuple))
        coords = []
        for k, v in enumerate(polygon):
            where = f"polygon {'vertex' if pairs else 'coordinate'} {k}"
            listed = isinstance(v, (list, tuple))
            if listed != pairs or listed and len(v) != 2:
                got = f"a list of length {len(v)}" if listed else type(v).__name__
                raise ValueError(f"{where}: got {got}, but {_POLYGON_RULE}")
            coords += [_as_number(c, where) for c in (v if pairs else [v])]
        polygon = coords
    elif not isinstance(polygon, np.ndarray):
        raise ValueError(f"polygon: got {type(polygon).__name__}, but {_POLYGON_RULE}")
    verts = np.asarray(polygon, dtype=np.float64)
    if verts.ndim == 1:
        if verts.size % 2:
            raise ValueError("flat polygon needs an even number of coordinates")
        verts = verts.reshape(-1, 2)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    if not np.isfinite(verts).all():
        raise ValueError("polygon coordinates must be finite")
    return verts


def rasterize_polygon(polygon, width: int, height: int) -> np.ndarray:
    """Fill one polygon with the even-odd rule.

    A pixel belongs to the polygon when an odd number of its row's edge
    crossings lie at or left of its center ``(col + 0.5, row + 0.5)``. An
    edge crosses the rows whose center ``y`` lies in ``[ylo, yhi)``, and a
    crossing at ``x`` counts for the columns from ``ceil(x - 0.5)`` on, so
    centers exactly on an edge or a vertex resolve deterministically.
    Vertices may be a flat COCO-style coordinate list, ``(x, y)`` pairs or
    a numeric array.
    """
    verts = _vertex_array(polygon)
    x1, y1 = verts.T
    x2, y2 = np.roll(verts, -1, axis=0).T
    # rows [r0, r1) of each edge, clipped to the image; empty for a horizontal edge
    r0 = np.clip(np.ceil(np.minimum(y1, y2) - 0.5), 0, height).astype(np.intp)
    r1 = np.clip(np.ceil(np.maximum(y1, y2) - 0.5), 0, height).astype(np.intp)
    spans = r1 - r0
    edge = np.repeat(np.arange(len(verts)), spans)  # one entry per crossing, edge-major
    row = np.arange(edge.size) - np.repeat(np.cumsum(spans) - spans - r0, spans)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        x = x1[edge] + (row + 0.5 - y1[edge]) * (x2[edge] - x1[edge]) / (y2[edge] - y1[edge])
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"polygon edge {edge[k]} crosses pixel row {row[k]} at {float(x[k])}: "
            "coordinates too large"
        )
    # a mark at column ceil(x - 0.5), at least 0; column `width` takes those past the image
    lo, hi = r0.min(), r1.max()
    marks = np.zeros((hi - lo, width + 1), dtype=bool)
    np.logical_xor.at(marks, (row - lo, np.clip(np.ceil(x - 0.5), 0, width).astype(np.intp)), True)
    mask = np.zeros((height, width), dtype=bool)
    np.logical_xor.accumulate(marks[:, :width], axis=1, out=mask[lo:hi])
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


# More bins than this means a bin width far below the box sizes: an input
# error that would otherwise allocate (or overflow) a huge bin array.
_MAX_BINS = 1_000_000


def size_histogram(boxes: list[BBox], bin_width: float) -> Histogram:
    """Histogram box sqrt-areas: bin index is ``floor(sqrt(w*h) / bin_width)``.

    Raises ``ValueError`` when that takes more than ``_MAX_BINS`` bins.
    """
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    if not boxes:
        return Histogram(bin_width=bin_width, counts=())
    with np.errstate(over="ignore"):  # a tiny width may scale a box to inf
        scaled = np.array([b.sqrt_area for b in boxes]) / bin_width
    bins = np.floor(scaled.max()) + 1  # in float, before any int cast
    if bins > _MAX_BINS:
        raise ValueError(
            f"bin_width {bin_width:g} needs {bins:.7g} bins, more than {_MAX_BINS}"
        )
    idx = np.floor(scaled).astype(np.int64)
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

    instance_id: str | int
    image_id: int
    category_id: int
    score: float
    field: ScoreField
    bbox: BBox | None = None


def _archive_records(meta, where: str):
    """The checked fields of each instance record of a field-archive
    manifest, as :class:`FieldInstance` keyword arguments less the field;
    error contexts start with ``where``. The reader and the writer both
    apply it."""
    if not isinstance(meta, dict) or "instances" not in meta:
        raise SchemaError(f"{where}instances: missing from the manifest")
    first: dict = {}
    for i, (ctx, rec) in enumerate(_records(meta, "instances", where)):
        instance_id = _require(rec, "id", ctx)
        if isinstance(instance_id, bool) or not isinstance(instance_id, (str, int)):
            raise SchemaError(
                f"{ctx}.id: expected a string or an integer, got {json.dumps(instance_id)}"
            )
        first_id = next(iter(first), instance_id)
        if type(instance_id) is not type(first_id):
            raise SchemaError(
                f"{ctx}.id: ids must all be strings or all integers, got "
                f"{json.dumps(instance_id)} after {json.dumps(first_id)}"
            )
        _check_new_id(first, instance_id, i, ctx, "instances", "instance")
        bbox = rec.get("bbox")
        yield dict(
            instance_id=instance_id,
            image_id=_as_int(_require(rec, "image_id", ctx), f"{ctx}.image_id"),
            category_id=_as_int(_require(rec, "category_id", ctx), f"{ctx}.category_id"),
            score=_as_score(rec, ctx),
            bbox=None if bbox is None else BBox(*_as_box(bbox, f"{ctx}.bbox")),
        )


def write_field_archive(path, instances: list[FieldInstance]) -> None:
    """Write an archive that :func:`load_field_archive` reads back equal.

    The manifest passes the reader's record checks before anything is
    written: a record they reject is a :class:`SchemaError`, and no file is
    created.
    """
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
    list(_archive_records(meta, f"{path}: "))
    arrays = {f"logits:{inst.instance_id}": inst.field.logits for inst in instances}
    np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


# what numpy raises on a file that is not a readable .npz, or on a member it
# cannot read without unpickling
_UNREADABLE = (OSError, EOFError, ValueError, zipfile.BadZipFile)


def _open_npz(fh, path: Path):
    """The .npz archive in the open binary file ``fh``."""
    try:
        data = np.load(fh)
    except _UNREADABLE as exc:
        raise SchemaError(f"{path}: not a field archive ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise SchemaError(f"{path}: not a field archive (a single .npy array)")
    return data


def load_field_archive(path) -> list[FieldInstance]:
    """Read an archive written by :func:`write_field_archive`.

    Instance ids are strings or integers, all of one type, and unique, since
    each names the ``logits:<id>`` array holding its field. A file numpy
    cannot read as an .npz, a manifest that is not JSON, or a bad record is
    a schema error naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    # numpy leaves a file it opened itself open when the zip is unreadable
    with open(path, "rb") as fh, _open_npz(fh, path) as data:
        if "meta" not in data:
            raise SchemaError(f"{path}: not a field archive (no manifest)")
        try:
            meta = json.loads(str(data["meta"][()]))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: manifest: invalid JSON ({exc})") from exc
        except _UNREADABLE as exc:
            raise SchemaError(f"{path}: not a field archive ({exc})") from exc
        instances = []
        for fields in _archive_records(meta, f"{path}: "):
            instance_id = fields["instance_id"]
            key = f"logits:{instance_id}"
            if key not in data:
                raise SchemaError(f"{path}: missing logits for instance {instance_id}")
            try:
                field = ScoreField(data[key])
            except _UNREADABLE as exc:
                raise SchemaError(f"{path}: instance {instance_id}: {exc}") from exc
            instances.append(FieldInstance(field=field, **fields))
    return instances
