"""Mask, box and score-field primitives shared by the rendering, fusion and
evaluation stages.

Binary masks are plain boolean numpy arrays of shape ``(height, width)``.
Run-length encoded masks use the COCO column-major layout and hold only their
counts; tight box, IoU and vote merge read run tables, without decoding, that
each call builds once for its whole list of masks. ``rle_iou_matrix`` alone
decides which mask pairs are read: those whose tight boxes, as integer pixel
ranges, share a pixel.
Score fields hold mask logits (logit 0 corresponds to foreground probability
0.5) and support continuous bilinear sampling over the closed unit square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SMALL_MEDIUM_SIDE",
    "MEDIUM_LARGE_SIDE",
    "DomainError",
    "BBox",
    "SizeBucket",
    "ScoreField",
    "RleMask",
    "grid_coords",
    "bilinear_sample",
    "sample_points",
    "resample",
    "binarize",
    "rle_encode",
    "rle_decode",
    "rle_bbox",
    "rle_iou",
    "rle_iou_matrix",
    "rle_merge",
    "mask_iou",
    "box_iou",
    "box_iou_matrix",
    "mask_bbox",
    "size_bucket",
]

# Side (sqrt-area) thresholds of the instance size buckets, in pixels.
SMALL_MEDIUM_SIDE = 113
MEDIUM_LARGE_SIDE = 256


class DomainError(ValueError):
    """A sample coordinate left the closed unit square."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in COCO layout: top-left corner plus width/height, pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box sides must be non-negative, got {self.w}x{self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def sqrt_area(self) -> float:
        return math.sqrt(self.w * self.h)

    def to_list(self) -> list[float]:
        return [float(self.x), float(self.y), float(self.w), float(self.h)]


class SizeBucket(Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def size_bucket(
    area: float,
    thresholds: tuple[float, float] = (SMALL_MEDIUM_SIDE, MEDIUM_LARGE_SIDE),
) -> SizeBucket:
    """Classify an instance area (px^2) as small, medium or large.

    ``thresholds`` are the side lengths of the two split points; the medium
    bucket is closed on both ends, so areas of exactly ``t1**2`` or ``t2**2``
    are medium.
    """
    if area < 0:
        raise ValueError(f"area must be non-negative, got {area}")
    return list(SizeBucket)[_bucket_codes([area], thresholds)[0]]


def _bucket_codes(areas, thresholds) -> np.ndarray:
    """:func:`size_bucket` of each area, as its position in ``SizeBucket``:
    0 small, 1 medium, 2 large. Each area is compared as the object it is,
    so an int past 2^53 meets a float threshold exactly, and NaN is large."""
    areas = np.asarray(areas, dtype=object)
    t1, t2 = thresholds
    with np.errstate(invalid="ignore"):  # Python's own NaN comparisons flag it
        return np.where(areas < t1 * t1, 0, np.where(areas <= t2 * t2, 1, 2))


class ScoreField:
    """Rectangular grid of mask logits with continuous-coordinate sampling.

    Sampling uses the align-corners convention: a point ``(u, v)`` in the
    closed unit square maps to pixel-center coordinates
    ``(u * (width - 1), v * (height - 1))``, so ``(0, 0)`` is the center of
    pixel (row 0, col 0) and ``(1, 1)`` the center of the bottom-right pixel.
    ``u`` runs along columns, ``v`` along rows. Instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("logits",)

    def __init__(self, logits) -> None:
        arr = np.array(logits, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("logits must be a non-empty 2-D array")
        self._own(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> ScoreField:
        """Take ownership of a non-empty 2-D float64 array that no one else
        holds, without copying it; it is still checked for finiteness and
        becomes read-only."""
        self = object.__new__(cls)
        self._own(arr)
        return self

    def _own(self, arr: np.ndarray) -> None:
        if not np.isfinite(arr).all():
            raise ValueError("logits must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "logits", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ScoreField is immutable")

    @property
    def height(self) -> int:
        return self.logits.shape[0]

    @property
    def width(self) -> int:
        return self.logits.shape[1]

    @classmethod
    def from_flat(cls, width: int, height: int, values) -> "ScoreField":
        """Build from a row-major flat sequence of ``width * height`` logits."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != width * height:
            raise ValueError(f"expected {width * height} logits, got {arr.size}")
        return cls(arr.reshape(height, width))

    @classmethod
    def constant(cls, width: int, height: int, value: float = 0.0) -> "ScoreField":
        return cls(np.full((height, width), value, dtype=np.float64))

    def __repr__(self) -> str:
        return f"ScoreField({self.width}x{self.height})"


def grid_coords(side: int) -> np.ndarray:
    """Unit-interval coordinates of the ``side`` pixel centers of one axis
    under the align-corners convention: ``i / (side - 1)``, and 0 for a
    one-pixel axis."""
    return np.arange(side) / max(side - 1, 1)


def _taps(coords: np.ndarray, n: int):
    """Bilinear taps of unit-interval ``coords`` on an axis of ``n`` pixels:
    the lower and upper pixel indices and the weight of the upper one."""
    g = coords * (n - 1)
    # not np.clip, whose Python wrapper costs about twice as much per call
    i0 = np.minimum(np.maximum(np.floor(g).astype(np.intp), 0), max(n - 2, 0))
    i1 = np.minimum(i0 + 1, n - 1)
    return i0, i1, g - i0


def sample_points(field: ScoreField, points) -> np.ndarray:
    """Bilinearly sample ``field`` at an ``(n, 2)`` array of unit-square points.

    Points are ``(u, v)`` pairs under the align-corners convention documented
    on :class:`ScoreField`. Queries landing exactly on a pixel center return
    that pixel's logit. Raises :class:`DomainError` for coordinates outside
    the closed unit square.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    # written so that NaN, which fails every comparison, is outside too
    if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
        bad = pts[~((pts >= 0.0) & (pts <= 1.0)).all(axis=1)][0]
        raise DomainError(f"point ({bad[0]}, {bad[1]}) outside the unit square")
    h, w = field.logits.shape
    return _interpolate(field.logits, _taps(pts[:, 1], h), _taps(pts[:, 0], w))


def _interpolate(v: np.ndarray, ty, tx) -> np.ndarray:
    """Bilinear values of the 2-D array ``v`` at row taps ``ty`` and column
    taps ``tx``, each ``(i0, i1, weight of i1)`` as :func:`_taps` gives them,
    in the order of operations of :func:`resample`, so bit for bit equal."""
    (y0, y1, fy), (x0, x1, fx), w = ty, tx, v.shape[1]
    y0, y1, fx0 = y0 * w, y1 * w, 1.0 - fx  # flat indices take faster than pairs
    top = v.take(y0 + x0) * fx0 + v.take(y0 + x1) * fx
    bot = v.take(y1 + x0) * fx0 + v.take(y1 + x1) * fx
    return top * (1.0 - fy) + bot * fy


def bilinear_sample(field: ScoreField, point) -> float:
    """Sample one unit-square point; scalar convenience over :func:`sample_points`."""
    return float(sample_points(field, np.asarray(point, dtype=np.float64).reshape(1, 2))[0])


def resample(field: ScoreField, height: int, width: int) -> ScoreField:
    """Bilinearly resample a field onto a ``height x width`` align-corners grid."""
    if height < 1 or width < 1:
        raise ValueError("target dimensions must be positive")
    v = field.logits
    h, w = v.shape
    x0, x1, fx = _taps(grid_coords(width), w)
    y0, y1, fy = _taps(grid_coords(height), h)
    # cols = v[:, x0] * (1 - fx) + v[:, x1] * fx, then the same along rows,
    # built in place so a step holds two output-sized arrays, not six
    cols = np.take(v, x0, axis=1)  # (h, width)
    cols *= 1.0 - fx
    tap = np.take(v, x1, axis=1)
    tap *= fx
    cols += tap
    out = np.take(cols, y0, axis=0)  # (height, width)
    out *= (1.0 - fy)[:, None]
    tap = np.take(cols, y1, axis=0)
    tap *= fy[:, None]
    out += tap
    return ScoreField._wrap(out)


def binarize(field: ScoreField) -> np.ndarray:
    """Foreground where a logit is strictly greater than 0."""
    return field.logits > 0.0


class RleMask:
    """Column-major run-length encoded binary mask (COCO convention).

    ``counts`` alternate background/foreground runs over the column-major
    pixel sequence, starting with background; only the leading count may be
    zero, and the counts must sum to ``width * height``.
    """

    __slots__ = ("width", "height", "counts")

    def __init__(self, width: int, height: int, counts) -> None:
        arr = np.asarray(counts)
        if arr.ndim != 1:
            arr = np.zeros(0, np.int64)  # refused by the counts rule
        # refused, not cast: a cast would truncate floats and wrap large values
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers in the int64 range, got {arr.dtype} values")
        if arr.size and arr.max() >= 1 << 63:  # past int64
            raise ValueError(f"count {arr.max()} exceeds the {width * height} pixels of the mask")
        arr = arr.astype(np.int64)
        fault = _counts_fault([(width, height)], arr, [0, arr.size], _mask_pixels([(width, height)]))
        if fault:
            raise ValueError(fault[1])
        arr.setflags(write=False)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "counts", arr)

    def __setattr__(self, name, value):
        raise AttributeError("RleMask is immutable")

    @property
    def area(self) -> int:
        """Foreground pixel count."""
        return int(self.counts[1::2].sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RleMask):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.counts, other.counts)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"RleMask({self.width}x{self.height}, {self.counts.size} runs)"


def _mask_pixels(sizes) -> np.ndarray:
    """Pixel count of each ``(width, height)``; 0 for a side below 1, or for
    ``2**59`` pixels or more, past a 12-character wire value (60 bits, signed)."""
    pixels = [w * h if w > 0 and h > 0 and w * h < 1 << 59 else 0 for w, h in sizes]
    return np.array(pixels, np.int64)


def _counts_fault(sizes, counts: np.ndarray, bounds, pixels) -> tuple[int, str] | None:
    """The RLE counts rule: ``(k, reason)`` for the first mask that breaks it,
    mask ``k`` being ``sizes[k]`` over int64 ``counts[bounds[k]:bounds[k + 1]]``,
    and ``reason`` the first part it breaks, in the order of the messages
    below; else None. ``pixels`` is ``_mask_pixels(sizes)``."""
    bounds = np.asarray(bounds)
    held = bounds[:-1] < bounds[1:]  # the masks with counts
    starts = bounds[:-1][held]
    sums, wraps = np.zeros(len(sizes), np.int64), np.zeros(len(sizes), bool)
    if starts.size:
        sums[held] = np.add.reduceat(counts, starts)  # int64 sums wrap round
        # a mask that breaks no part before the last, its counts non-negative
        # and their int64 sum its pixel count, passes the pixels only on the
        # way past 2**63, where the running total wraps round negative; its
        # true sum is then 2**64 or more, not below 2**59, and its float sum
        # tells which
        wraps[held] = np.add.reduceat(counts, starts, dtype=np.float64) > 2.0**63
    zeros = counts == 0
    zeros[starts] = False  # a mask's leading run may be empty
    # the first mask at fault under each part; a count names its mask
    broken = [
        np.flatnonzero(pixels == 0)[:1],
        np.flatnonzero(~held)[:1],
        np.searchsorted(bounds, np.flatnonzero(counts < 0)[:1], "right") - 1,
        np.searchsorted(bounds, np.flatnonzero(zeros)[:1], "right") - 1,
        np.flatnonzero(sums != pixels)[:1],
        np.flatnonzero(wraps)[:1],
    ]
    found = [(int(m[0]), rule) for rule, m in enumerate(broken) if m.size]
    if not found:
        return None
    k, rule = min(found)
    w, h = sizes[k]
    return k, [
        "mask dimensions must be positive" if w < 1 or h < 1
        else f"mask of {w * h} pixels, more than 2**59 - 1",
        "counts must be a non-empty 1-D sequence",
        "counts must be non-negative",
        "zero-length run beyond the leading position",
        f"counts sum to {sums[k]}, expected {pixels[k]}",
        f"running total exceeds the {pixels[k]} pixels of the mask",
    ][rule]


def _rle_masks(sizes, counts: np.ndarray, bounds) -> list[RleMask]:
    """The masks of :func:`_counts_fault`'s layout over ``counts``, which
    must pass the rule, without a copy; ``sizes`` holds Python ints."""
    counts.setflags(write=False)
    masks = [object.__new__(RleMask) for _ in sizes]
    # the slot descriptors, past RleMask.__setattr__'s refusal
    width, height, runs = RleMask.width.__set__, RleMask.height.__set__, RleMask.counts.__set__
    for mask, (w, h), a, b in zip(masks, sizes, bounds, bounds[1:]):
        width(mask, w)
        height(mask, h)
        runs(mask, counts[a:b])
    return masks


def rle_encode(mask) -> RleMask:
    """Run-length encode a boolean ``(height, width)`` mask, column-major."""
    bits = np.asarray(mask)
    if bits.ndim != 2 or bits.size == 0:
        raise ValueError("mask must be a non-empty 2-D array")
    bits = bits.astype(bool, copy=False)
    h, w = bits.shape
    flat = bits.ravel(order="F")
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], edges, [flat.size]))
    counts = np.diff(bounds)
    if flat[0]:
        counts = np.concatenate(([0], counts))
    return RleMask(w, h, counts)


def rle_decode(rle: RleMask) -> np.ndarray:
    """Decode back to a boolean ``(height, width)`` mask."""
    pattern = (np.arange(rle.counts.size) % 2).astype(bool)
    flat = np.repeat(pattern, rle.counts)
    return flat.reshape((rle.height, rle.width), order="F")


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``arange(f, f + c)`` for each pair, laid end to end."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(first + count - ends, count)


def _geometry(masks):
    """Run tables of every mask in the list ``masks``, built together for one
    call; raises unless the masks share one size.

    Returns ``bounds, fg_before, at``. Mask ``k``'s run table is
    ``bounds[at[k]:at[k + 1]]`` and ``fg_before[at[k]:at[k + 1]]``: its run
    ``r`` covers column-major pixels ``[bounds[r], bounds[r + 1])``, odd ``r``
    are foreground, and ``fg_before[r]`` is the number of foreground pixels
    before ``bounds[r]``. Every table has an even length, so a slot has the
    same parity in its table and in the list: a mask with an even number of
    counts ends in one more, empty, background run.
    """
    sizes = [(rle.height, rle.width) for rle in masks]
    for size in sizes[1:]:
        if size != sizes[0]:
            raise ValueError(f"mask shapes differ: {sizes[0]} vs {size}")
    zero = np.zeros(1, np.int64)
    parts, lengths = [zero[:0]], [0]  # an empty first part, so no masks concatenate too
    for rle in masks:  # a leading 0, the counts, and a 0 to an even length
        pad = 1 - rle.counts.size % 2
        parts += [zero, rle.counts, zero[:pad]]
        lengths.append(rle.counts.size + 1 + pad)
    at = np.cumsum(lengths)
    table = np.zeros((2, at[-1]), np.int64)
    np.concatenate(parts, out=table[0])
    table[1, ::2] = table[0, ::2]  # a foreground count, one slot after its run
    # the list-wide sums may wrap round past 2**63; each mask's own totals
    # fit, so subtracting its base gives them exactly
    np.cumsum(table, axis=1, out=table)
    table -= np.repeat(table[:, at[:-1]], np.diff(at), axis=1)
    return table[0], table[1], at


def _boxes(bounds: np.ndarray, at: np.ndarray, height: int) -> np.ndarray:
    """The tight box of each mask of :func:`_geometry`'s ``bounds, at``, as
    inclusive pixel ranges ``x0, y0, x1, y1``; ``0, 0, -1, -1`` for an empty
    mask. A run that spans a column break covers the bottom of one column
    and the top of the next, so it reaches both the first and the last row."""
    runs = np.diff(at) // 2 - 1  # foreground runs of each mask
    # slots 1 to 2 * runs of a table hold its foreground runs' starts and ends
    first, end = bounds[_ranges(at[:-1] + 1, 2 * runs)].reshape(-1, 2).T
    (x0, y0), (x1, y1) = np.divmod(first, height), np.divmod(end - 1, height)
    spans = x0 != x1
    filled = runs > 0
    starts = (np.cumsum(runs) - runs)[filled]
    lo = np.minimum.reduceat(np.stack([x0, np.where(spans, 0, y0)]), starts, axis=1)
    hi = np.maximum.reduceat(np.stack([x1, np.where(spans, height - 1, y1)]), starts, axis=1)
    boxes = np.zeros((runs.size, 4), np.int64)
    boxes[:, 2:] = -1
    boxes[filled] = np.concatenate([lo, hi]).T
    return boxes


def rle_bbox(rle: RleMask) -> BBox:
    """Tight bounding box of a run-length mask; zero box for an empty mask.

    Equal to ``mask_bbox(rle_decode(rle))``. A run that spans a column break
    covers the bottom of one column and the top of the next, so it reaches
    both the first and the last row.
    """
    return _rle_bboxes([rle])[0]


# masks per _geometry call of _rle_bboxes, which bounds its scratch arrays
_BBOX_BATCH = 1024


def _rle_bboxes(masks) -> list[BBox]:
    """:func:`rle_bbox` of each mask in the list ``masks``, which may differ
    in size: the masks of one size are measured together, from one
    :func:`_geometry` pass per ``_BBOX_BATCH`` of them."""
    by_size: dict[tuple[int, int], list[int]] = {}
    for k, rle in enumerate(masks):
        by_size.setdefault((rle.height, rle.width), []).append(k)
    out: list = [None] * len(masks)
    for (height, _), ks in by_size.items():
        for a in range(0, len(ks), _BBOX_BATCH):
            batch = ks[a : a + _BBOX_BATCH]
            bounds, _, at = _geometry([masks[k] for k in batch])
            for k, (x0, y0, x1, y1) in zip(batch, _boxes(bounds, at, height).tolist()):
                out[k] = BBox(float(x0), float(y0), float(x1 - x0 + 1), float(y1 - y0 + 1))
    return out


def rle_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union of two equally sized run-length masks."""
    return float(rle_iou_matrix([a], [b])[0, 0])


def rle_iou_matrix(a, b) -> np.ndarray:
    """IoU of every mask in ``a`` (rows) with every mask in ``b`` (columns),
    all of one size, checked first. Only pairs whose tight boxes share a
    pixel are read (masks whose tight boxes share none cannot intersect); the
    rest are 0. When ``b is a`` each is read once, above the diagonal, and
    mirrored, and the diagonal is 1 for a mask with pixels, 0 for an empty
    one. A pair's intersection is the count of ``b``'s foreground pixels in
    each foreground run of ``a``, read off run tables built once per call for
    all the masks, and its IoU is a ratio of Python integers, so it equals
    ``mask_iou`` of the decoded masks bit for bit."""
    masks = a if b is a else [*a, *b]
    bounds, fg_before, at = _geometry(masks)
    boxes = _boxes(bounds, at, masks[0].height if masks else 1)
    first = 0 if b is a else len(a)  # b's masks follow a's
    # near: the column ranges and the row ranges of the two tight boxes overlap
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = boxes[: len(a)].T[..., None], boxes[first:].T
    near = (ax0 <= bx1) & (bx0 <= ax1) & (ay0 <= by1) & (by0 <= ay1)
    cols, rows = np.nonzero((np.triu(near, 1) if b is a else near).T)  # the pairs read
    # pair p reads count[p] points of its row, the starts and ends of the
    # row's foreground runs (slots at[row] + 1 onwards), numbered from edge[p]
    count = np.diff(at)[rows] - 2
    edge = np.concatenate(([0], np.cumsum(count)))
    # b's foreground pixels before a point p in run k: fg_before[k], plus
    # p - bounds[k] when the run is foreground (k odd)
    offset = fg_before.copy()
    offset[1::2] -= bounds[1::2]
    inter = np.empty(rows.size, np.int64)
    split = np.searchsorted(cols, np.arange(len(b) + 1)).tolist()  # column j's first pair
    table_at = at[first:].tolist()
    for j, (p0, p1) in enumerate(zip(split, split[1:])):
        if p1 > p0:
            points = bounds[_ranges(at[rows[p0:p1]] + 1, count[p0:p1])]
            # one search: the list-wide slot of the column's run holding each point
            slot = np.searchsorted(bounds[table_at[j] : table_at[j + 1]], points, side="right")
            slot += table_at[j] - 1
            before = points * (slot & 1)
            before += offset[slot]
            first_run = (edge[p0:p1] - edge[p0]) // 2  # of each pair, in the column
            inter[p0:p1] = np.add.reduceat(before[1::2] - before[::2], first_run)
    areas = fg_before[at[1:] - 1]
    union = areas[rows] + areas[first + cols] - inter  # > 0: a read row has pixels
    ious = np.zeros(near.shape)
    ious[rows, cols] = [x / u for x, u in zip(inter.tolist(), union.tolist())]
    if b is a:  # a pair's IoU is a ratio of integers, the same either way round
        ious += ious.T
        np.fill_diagonal(ious, boxes[:, 2] >= 0)
    return ious


def rle_merge(masks, weights) -> RleMask:
    """Weighted per-pixel vote of equally sized run-length masks.

    A pixel is foreground when the weights of the masks covering it sum to
    strictly more than half the total weight. Votes are summed per segment
    between consecutive run boundaries of all masks, in member order, so the
    result equals the dense ``sum(w * decoded) > 0.5 * sum(w)`` bit for bit.
    """
    masks = list(masks)
    weights = list(weights)
    if not masks:
        raise ValueError("rle_merge needs at least one mask")
    if len(weights) != len(masks):
        raise ValueError(f"{len(masks)} masks but {len(weights)} weights")
    all_bounds, _, at = _geometry(masks)
    at = at.tolist()
    bounds = np.sort(all_bounds)  # not np.unique: numpy 2.3+ hashes before it sorts, ~9x slower
    bounds = bounds[np.concatenate(([True], bounds[1:] != bounds[:-1]))]
    seg_starts = bounds[:-1]
    votes = np.zeros(seg_starts.size)
    total = 0.0
    for lo, hi, weight in zip(at, at[1:], weights):
        covered = (np.searchsorted(all_bounds[lo:hi], seg_starts, side="right") - 1) % 2
        votes = votes + weight * covered
        total += weight
    fg = votes > 0.5 * total
    edges = np.flatnonzero(fg[1:] != fg[:-1]) + 1
    counts = np.add.reduceat(np.diff(bounds), np.concatenate(([0], edges)))
    if fg[0]:
        counts = np.concatenate(([0], counts))
    return RleMask(masks[0].width, masks[0].height, counts)


def mask_iou(a, b) -> float:
    """Intersection over union of two equally sized boolean masks.

    Two empty masks have IoU 0 by convention, keeping downstream AP math
    free of NaNs.
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return np.count_nonzero(a & b) / union


def box_iou_matrix(a, b) -> np.ndarray:
    """IoU of every box in ``a`` (rows) with every box in ``b`` (columns);
    0 where the union is degenerate."""
    return _box_ious(*(
        np.array([(q.x, q.y, q.w, q.h) for q in boxes], dtype=np.float64).reshape(-1, 4)
        for boxes in (a, b)
    ))


def _box_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`box_iou_matrix` of two ``(n, 4)`` float64 arrays of
    ``[x, y, w, h]`` rows."""
    (ax, ay, aw, ah), (bx, by, bw, bh) = a.T, b.T
    ix = np.minimum.outer(ax + aw, bx + bw) - np.maximum.outer(ax, bx)
    iy = np.minimum.outer(ay + ah, by + bh) - np.maximum.outer(ay, by)
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    union = np.add.outer(aw * ah, bw * bh) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union <= 0.0, 0.0, inter / union)


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when the union is degenerate."""
    return float(box_iou_matrix([a], [b])[0, 0])


def mask_bbox(mask) -> BBox:
    """Tight bounding box of a boolean mask; zero box for an empty mask."""
    bits = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(bits.any(axis=1))
    cols = np.flatnonzero(bits.any(axis=0))
    if rows.size == 0:
        return BBox(0.0, 0.0, 0.0, 0.0)
    y0, y1 = int(rows[0]), int(rows[-1])
    x0, x1 = int(cols[0]), int(cols[-1])
    return BBox(float(x0), float(y0), float(x1 - x0 + 1), float(y1 - y0 + 1))
