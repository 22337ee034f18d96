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

from .core import BBox, RleMask, ScoreField, rle_encode
from .core import _counts_fault, _mask_pixels, _rle_masks  # the RLE counts rule
from .core import _ranges, _rle_bboxes
from .evaluation import GroundTruthInstance
from .fusion import Detection, _Columns

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
    # a float passes _as_number as it is, so only other values need a name
    box = [v if type(v) is float else _as_number(v, f"{context}[{j}]") for j, v in enumerate(value)]
    if not all(map(math.isfinite, box)):
        raise SchemaError(f"{context}: non-finite value in {box}")
    x, y, w, h = box
    if w < 0 or h < 0:
        raise SchemaError(f"{context}: negative side in {box}")
    if not all(map(math.isfinite, (2 * x, 2 * y, 2 * (x + w), 2 * (y + h), 2 * (w * h)))):
        raise SchemaError(f"{context}: coordinates too large in {box}")
    return box


def _open(path: Path):
    """``path`` opened in binary; any failure to open it is a schema error."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror})") from exc


def _read_json(path):
    """The JSON document in ``path``, decoded as UTF-8 whatever the locale."""
    path = Path(path)
    with _open(path) as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except (ValueError, RecursionError) as exc:
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


def _segmentation_mask(segmentation, context: str, image=None) -> RleMask | tuple[str, int, int]:
    """Check a ``segmentation`` payload. ``image`` is the ``(width, height)``
    it must match; without one, as in a results file, only an RLE object,
    which carries its size, is accepted. A compressed counts string comes
    back as ``(counts, width, height)``, for :func:`_finish`, and any other
    payload as its mask."""
    if isinstance(segmentation, dict):
        size = _require(segmentation, "size", context)
        if not isinstance(size, (list, tuple)) or len(size) != 2:
            raise SchemaError(f"{context}.size: expected [height, width]")
        # an int passes _as_int as it is, so only other values need a name
        h, w = (v if type(v) is int else _as_int(v, f"{context}.size") for v in size)
        if image is not None and (w, h) != image:
            raise SchemaError(
                f"{context}.size: mask is {w}x{h} but the image is {image[0]}x{image[1]}"
            )
        counts = _require(segmentation, "counts", context)
        if isinstance(counts, str):
            return counts, w, h
        if isinstance(counts, (list, tuple)):
            for k, count in enumerate(counts):
                if type(count) is not int:  # as for size: only other values need a name
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


def _finish(masks: list, boxes: list, section: str) -> list[str | None]:
    """Decode every ``(counts, width, height)`` left in ``masks`` in one batched
    call, naming a string at fault ``{section}[i].segmentation.counts``, then
    fill every None in ``boxes`` with its mask's tight box as ``[x, y, w, h]``,
    all in place. Returns each mask's wire string: the string it was decoded
    from when the mask encodes back to exactly that string, else None."""
    todo = [i for i, mask in enumerate(masks) if isinstance(mask, tuple)]
    names = [f"{section}[{i}].segmentation.counts" for i in todo]
    strings, sizes = [masks[i][0] for i in todo], [masks[i][1:] for i in todo]
    wire = [None] * len(masks)
    # rle_strings_decode, with the flags
    for a, b in _slices([len(s) for s in strings], _SLICE_SIZE):
        decoded, canonical = _decode_slice(strings[a:b], sizes[a:b], names[a:b])
        for i, string, mask, kept in zip(todo[a:b], strings[a:b], decoded, canonical):
            masks[i], wire[i] = mask, string if kept else None
    todo = [i for i, box in enumerate(boxes) if box is None]
    for i, box in zip(todo, _rle_bboxes([masks[i] for i in todo])):
        boxes[i] = box.to_list()
    return wire


def dataset_ground_truth(ds: DatasetFile) -> list[GroundTruthInstance]:
    """Turn dataset annotations into evaluable ground-truth instances.

    Masks are decoded (polygons rasterized) at image resolution; the
    instance area is the decoded mask's pixel count regardless of the
    file's ``area`` field.
    """
    sizes = {img.id: (img.width, img.height) for img in ds.images}
    masks = []
    for i, ann in enumerate(ds.annotations):
        if ann.segmentation is None:
            raise SchemaError(f"annotations[{i}].segmentation: missing (annotation {ann.id})")
        ctx = f"annotations[{i}].segmentation"
        masks.append(_segmentation_mask(ann.segmentation, ctx, sizes[ann.image_id]))
    boxes = [ann.bbox for ann in ds.annotations]
    _finish(masks, boxes, "annotations")
    return [
        GroundTruthInstance(image_id=ann.image_id, category_id=ann.category_id, mask=mask, bbox=BBox(*box))
        for ann, mask, box in zip(ds.annotations, masks, boxes)
    ]


# ---------------------------------------------------------------------------
# Results files
# ---------------------------------------------------------------------------

def load_results(path) -> list[Detection]:
    """Parse a COCO results JSON file into detections."""
    return _load_columns(path).detections()


def _load_columns(path) -> _Columns:
    """:func:`load_results` as columns; a mask read from a canonical string
    keeps that string in ``wire``. The column pass takes each record of the
    common shape (:func:`_common_record`) whose box passes :func:`_as_box`'s
    rules, checked in one array pass; every other record goes through
    :func:`_result_record` in index order, the only check that names a fault."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: results file must be a JSON array")
    records = [_common_record(rec) for rec in data]
    boxed = [k for k, rec in enumerate(records) if rec is not None and rec[3] is not None]
    x, y, w, h = np.array([records[k][3] for k in boxed], np.float64).reshape(-1, 4).T
    with np.errstate(over="ignore", invalid="ignore"):  # _as_box's rules; finite x + w makes w finite
        doubled = 2 * np.array([x, y, x + w, y + h, w * h])
    fine = np.isfinite(doubled).all(axis=0) & (w >= 0) & (h >= 0)
    for k in np.compress(~fine, boxed).tolist():
        records[k] = None
    for i, rec in enumerate(records):
        if rec is None:
            try:
                records[i] = _result_record(data[i])
            except SchemaError as exc:  # named here, so a record that passes formats no name
                raise SchemaError(f"results[{i}]{exc}") from exc.__cause__
    columns = [list(c) for c in zip(*records)] or [[] for _ in range(5)]
    image_ids, category_ids, scores, boxes, masks = columns
    wire = _finish(masks, boxes, "results")
    scores, boxes = np.array(scores, np.float64), np.array(boxes, np.float64).reshape(-1, 4)
    return _Columns(image_ids, category_ids, scores, boxes, masks, wire, [None] * len(masks))


def _result_record(rec) -> tuple:
    """``(image_id, category_id, score, bbox, mask)`` of one results record,
    ``bbox`` an ``[x, y, w, h]`` list, or None when the record has none; a
    refusal names the field within the record (``.score: ...``)."""
    if not isinstance(rec, dict):
        raise SchemaError(": expected an object")
    score = _as_score(rec, "")
    mask = None
    if "segmentation" in rec:
        mask = _segmentation_mask(rec["segmentation"], ".segmentation")
    bbox = rec.get("bbox")
    if bbox is not None:
        bbox = _as_box(bbox, ".bbox")
    elif mask is None:
        raise SchemaError(": needs a bbox or a segmentation")
    image_id = _as_int(_require(rec, "image_id", ""), ".image_id")
    category_id = _as_int(_require(rec, "category_id", ""), ".category_id")
    return image_id, category_id, score, bbox, mask


def _common_record(rec) -> tuple | None:
    """:func:`_result_record` of a record of the shape results files have,
    its box not yet checked, else None: an int or float score in [0, 1],
    int ids, a ``segmentation`` with two int sizes and string counts, and a
    box that is absent, None or four floats."""
    if type(rec) is not dict:
        return None
    score, seg, box = rec.get("score"), rec.get("segmentation"), rec.get("bbox")
    image_id, category_id = rec.get("image_id"), rec.get("category_id")
    if not (type(score) in (int, float) and 0 <= score <= 1 and type(image_id) is int
            and type(category_id) is int and type(seg) is dict):
        return None
    size, counts = seg.get("size"), seg.get("counts")
    if not (type(counts) is str and type(size) is list and list(map(type, size)) == [int, int]):
        return None
    if box is not None and not (type(box) is list and list(map(type, box)) == [float] * 4):
        return None
    return image_id, category_id, score, box, (counts, size[1], size[0])


def write_results(path, dets: list[Detection]) -> None:
    """Write detections as COCO results JSON, in the given order."""
    _write_columns(path, _Columns.of(dets))


def _write_columns(path, cols: _Columns) -> None:
    """:func:`write_results` of columns: a mask with a wire string is
    written as that string, and only the others are encoded."""
    strings = list(cols.wire)
    todo = [k for k, (mask, s) in enumerate(zip(cols.mask, strings)) if mask is not None and s is None]
    for k, string in zip(todo, rle_strings_encode(cols.mask[k] for k in todo)):
        strings[k] = string
    records = []
    for i, c, score, box, mask, string in zip(
        cols.image_id, cols.category_id, cols.score.tolist(), cols.box.tolist(), cols.mask, strings
    ):
        rec = {"image_id": int(i), "category_id": int(c), "score": score, "bbox": box}
        if mask is not None:
            rec["segmentation"] = {"size": [mask.height, mask.width], "counts": string}
        records.append(rec)
    Path(path).write_text(json.dumps(records, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Compressed RLE strings (the de-facto COCO wire format: 5-bit chunks with a
# continuation flag, offset by char 48, counts delta-coded from two back).
# Both directions work on a slice of strings at a time in numpy array passes.
# ---------------------------------------------------------------------------

# Strings are decoded in slices of about this many characters, and encoded in
# slices of a quarter as many counts, which bounds the scratch arrays to about
# 2 MB at any file size. A decode slice costs about 60 numpy calls whatever its
# size: fuse-box's 3 000 seed-0 strings decoded in 22.7, 17.7, 16.6 and 14.7 ms
# at 2**13 to 2**16 characters (medians of two fresh processes each, shared
# 2-CPU Xeon). Encoding those masks took 20 ms in slices of 2**13 or 2**14
# counts but 33 ms in 2**15, whose arrays the allocator maps afresh each time.
_SLICE_SIZE = 1 << 15
# Twelve 5-bit chunks make 60 bits; a longer value cannot fit an int64.
_MAX_VALUE_CHARS = 12
# A value v needs k + 1 chunks when 16 * 32**(k-1) <= (v or ~v) < 16 * 32**k.
_CHUNK_LIMITS = 16 * 32 ** np.arange(_MAX_VALUE_CHARS, dtype=np.int64)


def _slices(lengths, size: int):
    """``(start, stop)`` ranges of consecutive items that together reach
    ``size`` in length (the last range may be shorter)."""
    start = total = 0
    for i, n in enumerate(lengths):
        total += n
        if total >= size:
            yield start, i + 1
            start, total = i + 1, 0
    if start < len(lengths):
        yield start, len(lengths)


def rle_strings_encode(masks) -> list[str]:
    """Compressed counts string of each mask, byte for byte as ``maskApi.c``."""
    masks = list(masks)
    out: list[str] = []
    for a, b in _slices([m.counts.size for m in masks], _SLICE_SIZE >> 2):
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
    strings = list(strings)
    sizes = [(int(w), int(h)) for w, h in sizes]  # as the masks keep them
    if contexts is None:
        contexts = [f"strings[{k}]" for k in range(len(strings))]
    masks: list[RleMask] = []
    for a, b in _slices([len(s) for s in strings], _SLICE_SIZE):
        masks += _decode_slice(strings[a:b], sizes[a:b], contexts[a:b])[0]
    return masks


def _decode_slice(strings, sizes, contexts) -> tuple[list[RleMask], list[bool]]:
    """Decode one slice: every wire check runs over all of its strings, and
    the counts rule of ``core`` over the counts they decode to; the first
    string at fault is reported. Returns the masks and whether each string
    is canonical: exactly what :func:`rle_strings_encode` writes for its mask."""
    joined = "".join(strings)
    # one entry per code point, so that an invalid character can be named
    chunks = np.frombuffer(joined.encode("utf-32-le"), np.uint32) - 48
    ends = np.cumsum([0, *map(len, strings)])  # string k is characters ends[k]:ends[k + 1]
    pixels = _mask_pixels(sizes)  # 0 for a size the counts rule refuses
    faults = []  # (first string at fault, message), most important first

    def check(at_fault, message):
        if at_fault.size:
            faults.append((int(at_fault[0]), message(int(at_fault[0]))))

    invalid = np.flatnonzero(chunks > 63)  # a character below '0' wraps around
    check(np.searchsorted(ends, invalid[:1], "right") - 1,
          lambda k: f"invalid RLE character {joined[invalid[0]]!r}")
    stop = chunks & 0x20 == 0  # the last chunk of a value
    filled = np.flatnonzero(ends[1:] > ends[:-1])
    check(filled[~stop[ends[filled + 1] - 1]], lambda k: "truncated RLE string")

    # a value belongs to the string holding its last character: string k's
    # values are bounds[k]:bounds[k + 1]
    stops = np.flatnonzero(stop)
    bounds = np.searchsorted(stops, ends)
    held = np.flatnonzero(bounds[1:] > bounds[:-1])  # the strings with values
    span = np.diff(stops, prepend=-1)
    long = np.flatnonzero(span > _MAX_VALUE_CHARS)
    check(np.searchsorted(bounds, long[:1], "right") - 1,
          lambda k: f"RLE value of {span[long[0]]} characters, more than 12")
    # the last chunk holds a value's top 5 bits, sign-extended; each longer
    # value then shifts in its next lower chunk, up to 12 in all (a faulty
    # string's longer values keep garbage that stays inside int64)
    values = ((chunks[stops] & 0x1F).astype(np.int64) ^ 0x10) - 0x10
    more = np.flatnonzero(span > 1)
    # the encoder writes each value in the fewest chunks, so a string is
    # canonical unless some value's last chunk only sign-extends the chunk
    # below: 0 over a chunk with bit 4 clear, 31 over one with it set
    below = chunks[stops[more] - 1]
    padded = more[(below >> 4 & 1) * 0x1F == chunks[stops[more]] & 0x1F]
    canonical = np.ones(len(strings), bool)
    canonical[np.searchsorted(bounds, padded, "right") - 1] = False
    for j in range(1, _MAX_VALUE_CHARS):
        more = more[span[more] > j]
        if not more.size:
            break
        values[more] = values[more] << 5 | chunks[stops[more] - j] & 0x1F
    magnitude = np.abs(values)
    peak = np.maximum.reduceat(magnitude, bounds[held])
    over = held[(peak > pixels[held]) & (pixels[held] > 0)]

    def too_large(k):
        t = bounds[k] + np.argmax(magnitude[bounds[k] : bounds[k + 1]] > pixels[k])
        return f"RLE value {values[t]} is larger in magnitude than the mask's {pixels[k]} pixels"

    check(over, too_large)

    # undo the two-back deltas: count t (position 3 or later in its string)
    # is value t plus count t - 2. Among the values of one parity, a string's
    # counts are then a running sum of its values less the sum before the
    # string, its first value (position 0) left out of the sum.
    heads = bounds[held]
    counts = np.empty_like(values)
    lead = values[heads]
    values[heads] = 0
    for p in (0, 1):
        run = np.zeros((values.size + 1 - p) // 2 + 1, np.int64)
        np.cumsum(values[p::2], out=run[1:])
        lo = (bounds + 1 - p) // 2  # string k: values[p::2][lo[k]:lo[k + 1]]
        counts[p::2] = run[1:] - np.repeat(run[lo[:-1]], np.diff(lo))
    counts[heads] = lead

    fault = _counts_fault(sizes, counts, bounds, pixels)
    if fault:
        faults.append((fault[0], "RLE string decodes to invalid counts: " + fault[1]))
    if faults:
        k, message = min(faults, key=lambda f: f[0])
        raise SchemaError(f"{contexts[k]}: {message}")
    return _rle_masks(sizes, counts, bounds.tolist()), canonical.tolist()


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
    """Float vertices of a polygon: a list that is either all numbers (an
    even count) or all ``(x, y)`` pairs of numbers, as its first entry says.
    A numpy array is read as its nested list. Each coordinate is a number by
    :func:`_as_number`'s rule: booleans and strings are refused, not cast.
    Anything else is refused naming its position and the rule."""
    if isinstance(polygon, np.ndarray):
        polygon = polygon.tolist()
    if not isinstance(polygon, (list, tuple)):
        raise ValueError(f"polygon: got {type(polygon).__name__}, but {_POLYGON_RULE}")
    pairs = bool(polygon) and isinstance(polygon[0], (list, tuple))
    kind = "vertex" if pairs else "coordinate"
    coords = []
    for k, v in enumerate(polygon):
        listed = isinstance(v, (list, tuple))
        if listed != pairs or listed and len(v) != 2:
            got = f"a list of length {len(v)}" if listed else type(v).__name__
            raise ValueError(f"polygon {kind} {k}: got {got}, but {_POLYGON_RULE}")
        # a float passes _as_number as it is, so only other values need a name
        for c in v if pairs else [v]:
            coords.append(c if type(c) is float else _as_number(c, f"polygon {kind} {k}"))
    if len(coords) % 2:
        raise ValueError("flat polygon needs an even number of coordinates")
    if len(coords) < 6:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    verts = np.array(coords).reshape(-1, 2)
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
    row = _ranges(r0, spans)
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


# what numpy raises on a file that is not a readable .npz (an unknown zip
# version or method included), or on a member it cannot read without unpickling
_UNREADABLE = (OSError, EOFError, ValueError, NotImplementedError, zipfile.BadZipFile)


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
    # numpy leaves a file it opened itself open when the zip is unreadable
    with _open(path) as fh, _open_npz(fh, path) as data:
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
