"""Mask, box and score-field primitives shared by the rendering, fusion and
evaluation stages.

Binary masks are plain boolean numpy arrays of shape ``(height, width)``.
Run-length encoded masks use the COCO column-major layout; their area, tight
box, IoU and vote merge read a run table each mask builds once, without decoding.
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
    t1, t2 = thresholds
    if area < t1 * t1:
        return SizeBucket.SMALL
    if area <= t2 * t2:
        return SizeBucket.MEDIUM
    return SizeBucket.LARGE


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
    i0 = np.clip(np.floor(g).astype(np.intp), 0, max(n - 2, 0))
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
    v = field.logits
    h, w = v.shape
    x0, x1, fx = _taps(pts[:, 0], w)
    y0, y1, fy = _taps(pts[:, 1], h)
    top = v[y0, x0] * (1.0 - fx) + v[y0, x1] * fx
    bot = v[y1, x0] * (1.0 - fx) + v[y1, x1] * fx
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


def binarize(field: ScoreField, threshold: float = 0.0) -> np.ndarray:
    """Threshold a score field into a boolean mask; strictly greater-than."""
    return field.logits > threshold


class RleMask:
    """Column-major run-length encoded binary mask (COCO convention).

    ``counts`` alternate background/foreground runs over the column-major
    pixel sequence, starting with background; only the leading count may be
    zero, and the counts must sum to ``width * height``.
    """

    __slots__ = ("width", "height", "counts", "_table")

    def __init__(self, width: int, height: int, counts) -> None:
        if width < 1 or height < 1:
            raise ValueError("mask dimensions must be positive")
        arr = np.asarray(counts)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a non-empty 1-D sequence")
        # refused, not cast: a cast would truncate floats and wrap large
        # values, and a count over the pixel count could wrap the sum below
        if arr.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers in the int64 range, got {arr.dtype} values")
        if arr.max() > width * height:
            raise ValueError(f"count {arr.max()} exceeds the {width * height} pixels of the mask")
        arr = arr.astype(np.int64)
        if (arr < 0).any():
            raise ValueError("counts must be non-negative")
        if arr.size > 1 and (arr[1:] == 0).any():
            raise ValueError("zero-length run beyond the leading position")
        total = int(arr.sum())
        if total != width * height:
            raise ValueError(f"counts sum to {total}, expected {width * height}")
        arr.setflags(write=False)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "counts", arr)

    @classmethod
    def _from_checked(cls, width: int, height: int, counts: np.ndarray) -> RleMask:
        """Wrap read-only int64 ``counts`` that already pass the checks of
        ``__init__``, without copying or checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "counts", counts)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RleMask is immutable")

    @property
    def area(self) -> int:
        """Foreground pixel count."""
        return int(_run_table(self)[1][-1])

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


def _run_table(rle: RleMask) -> tuple[np.ndarray, np.ndarray]:
    """``(bounds, fg_before)`` of ``rle``, built on first use from its
    immutable counts and kept: run ``k`` covers column-major pixels
    ``[bounds[k], bounds[k + 1])``, odd ``k`` are foreground, and
    ``fg_before[k]`` is the number of foreground pixels before ``bounds[k]``.
    Threads that race on a cold mask build equal tables; either is kept."""
    table = getattr(rle, "_table", None)
    if table is None:
        fg_counts = rle.counts.copy()
        fg_counts[::2] = 0
        table = tuple(np.concatenate(([0], np.cumsum(c))) for c in (rle.counts, fg_counts))
        for arr in table:
            arr.setflags(write=False)
        object.__setattr__(rle, "_table", table)
    return table


def _check_same_size(a: RleMask, b: RleMask) -> None:
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"mask shapes differ: {(a.height, a.width)} vs {(b.height, b.width)}"
        )


def rle_bbox(rle: RleMask) -> BBox:
    """Tight bounding box of a run-length mask; zero box for an empty mask.

    Equal to ``mask_bbox(rle_decode(rle))``. A run that spans a column break
    covers the bottom of one column and the top of the next, so it reaches
    both the first and the last row.
    """
    bounds = _run_table(rle)[0]
    starts, lasts = bounds[1:-1:2], bounds[2::2] - 1
    if starts.size == 0:
        return BBox(0.0, 0.0, 0.0, 0.0)
    h = rle.height
    spans = starts // h != lasts // h
    x0, x1 = int(starts[0] // h), int(lasts[-1] // h)
    y0 = int(np.where(spans, 0, starts % h).min())
    y1 = int(np.where(spans, h - 1, lasts % h).max())
    return BBox(float(x0), float(y0), float(x1 - x0 + 1), float(y1 - y0 + 1))


def rle_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union of two equally sized run-length masks, read
    without the box prefilter of :func:`rle_iou_matrix`."""
    return float(rle_iou_matrix([a], [b], np.ones((1, 1), bool))[0, 0])


def rle_iou_matrix(a, b, near=None) -> np.ndarray:
    """IoU of every mask in ``a`` (rows) with every mask in ``b`` (columns).

    Only the pairs set in the boolean ``near`` matrix are read; the rest are
    0. ``near`` defaults to tight-box IoU > 0: masks whose tight boxes share
    no pixel cannot intersect. A pair's intersection is the count of ``b``'s
    foreground pixels inside each foreground run of ``a``, read off the run
    tables, so it equals ``mask_iou`` of the decoded masks bit for bit."""
    if near is None:
        near = box_iou_matrix([rle_bbox(m) for m in a], [rle_bbox(m) for m in b]) > 0
    ious = np.zeros((len(a), len(b)))
    for i, j in zip(*np.nonzero(near)):
        _check_same_size(a[i], b[j])
        (a_bounds, a_fg), (b_bounds, b_fg) = _run_table(a[i]), _run_table(b[j])
        k = np.searchsorted(b_bounds, a_bounds, side="right") - 1
        inside = np.diff(b_fg[k] + (a_bounds - b_bounds[k]) * (k % 2))
        inter = int(inside[1::2].sum())
        union = int(a_fg[-1]) + int(b_fg[-1]) - inter
        ious[i, j] = inter / union if union else 0.0
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
    for rle in masks[1:]:
        _check_same_size(masks[0], rle)
    bounds = np.unique(np.concatenate([_run_table(rle)[0] for rle in masks]))
    seg_starts = bounds[:-1]
    votes = np.zeros(seg_starts.size)
    total = 0.0
    for rle, weight in zip(masks, weights):
        covered = (np.searchsorted(_run_table(rle)[0], seg_starts, side="right") - 1) % 2
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
    (ax, ay, aw, ah), (bx, by, bw, bh) = (
        np.array([(q.x, q.y, q.w, q.h) for q in boxes], dtype=np.float64).reshape(-1, 4).T
        for boxes in (a, b)
    )
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
