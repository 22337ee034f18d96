"""Coarse-to-fine subdivision rendering of mask score fields.

Each subdivision step doubles the grid resolution by bilinear upsampling,
then re-predicts only the most uncertain points (those with logits closest
to zero) through a :class:`PointPredictor`. Iterating the step renders a
low-resolution mask up to the target resolution while spending prediction
budget almost exclusively on instance boundaries.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from .core import ScoreField, _interpolate, _ranges, _taps, binarize, grid_coords, resample, sample_points

__all__ = [
    "PointPredictor",
    "OracleFieldPredictor",
    "IdentityPredictor",
    "SubdivisionConfig",
    "select_most_uncertain",
    "upsample_x2",
    "plain_upsample",
    "subdivision_step",
    "subdivision_render",
    "subdivision_mask",
    "resample_mask",
]


class PointPredictor(ABC):
    """Produces refined logits for continuous unit-square query points.

    ``predict`` receives the query points (box-normalized, align-corners
    convention) together with the current interpolated logits at those
    points, and returns one finite logit per point. Implementations must be
    deterministic for a fixed instance; both bundled implementations are
    immutable and therefore safe to share across concurrently running
    renders.
    """

    @abstractmethod
    def predict(self, points: np.ndarray, current: np.ndarray) -> np.ndarray:
        """Return refined logits, shape ``(n,)``, for ``(n, 2)`` query points."""


class OracleFieldPredictor(PointPredictor):
    """Answers queries by sampling a fixed high-resolution reference field."""

    def __init__(self, field: ScoreField) -> None:
        self.field = field

    def predict(self, points: np.ndarray, current: np.ndarray) -> np.ndarray:
        return sample_points(self.field, points)


class IdentityPredictor(PointPredictor):
    """Keeps the interpolated logit, turning refinement into plain upsampling."""

    def predict(self, points: np.ndarray, current: np.ndarray) -> np.ndarray:
        return np.array(current, dtype=np.float64, copy=True)


@dataclass(frozen=True)
class SubdivisionConfig:
    """Rendering schedule: ``subdivision_k`` squared points are re-predicted
    per doubling step while the grid grows from ``start_side`` to
    ``target_side`` (which must be ``start_side * 2**m``)."""

    subdivision_k: int = 28
    target_side: int = 224
    start_side: int = 7

    def __post_init__(self) -> None:
        if self.subdivision_k < 1:
            raise ValueError("subdivision_k must be >= 1")
        if self.start_side < 1:
            raise ValueError("start_side must be >= 1")
        if self.start_side << self.num_steps != self.target_side:
            raise ValueError(
                f"target_side {self.target_side} is not start_side {self.start_side} "
                "times a power of two"
            )

    @property
    def num_steps(self) -> int:
        """Doublings from ``start_side`` toward ``target_side``; 0 for a
        smaller target, which ``__post_init__`` then rejects."""
        return max(self.target_side // self.start_side, 1).bit_length() - 1


def select_most_uncertain(field: ScoreField, n: int) -> np.ndarray:
    """Row-major flat indices of the ``n`` pixels with logits closest to
    zero, ties toward the lowest index: ``np.argsort(|logits|,
    kind="stable")[:n]``, element for element, from a partial selection
    instead of a full sort.
    """
    a = np.abs(field.logits.ravel())
    if n > a.size:
        raise ValueError(f"cannot select {n} points from {a.size} pixels")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return np.empty(0, np.intp)
    cut = np.partition(a, n - 1)[n - 1]
    below = np.flatnonzero(a < cut)
    ties = np.flatnonzero(a == cut)[: n - below.size]
    idx = np.concatenate([below, ties])
    # each of the two parts is in index order, so a stable sort by value
    # breaks ties toward the lowest index
    return idx[np.argsort(a[idx], kind="stable")]


def upsample_x2(field: ScoreField) -> ScoreField:
    """Bilinear align-corners upsample to double width and height."""
    return resample(field, 2 * field.height, 2 * field.width)


def plain_upsample(field: ScoreField, target_side: int) -> ScoreField:
    """No-refinement baseline: the chain of x2 upsamples a render would take.

    This is exactly ``subdivision_render`` with an :class:`IdentityPredictor`
    (or a zero point budget) and is the reference the rendering gain is
    measured against.
    """
    if field.width != field.height:
        raise ValueError("plain_upsample expects a square field")
    cfg = SubdivisionConfig(target_side=target_side, start_side=field.height)
    for _ in range(cfg.num_steps):
        field = upsample_x2(field)
    return field


def subdivision_step(
    field: ScoreField, predictor: PointPredictor, n_points: int
) -> ScoreField:
    """One refinement step: upsample x2, re-predict the most uncertain pixels.

    The ``n_points`` pixels of the upsampled grid with logits closest to zero
    are queried on the predictor at their normalized center coordinates and
    overwritten with its output; every other logit keeps its interpolated
    value.
    """
    up = upsample_x2(field)
    if n_points == 0:
        return up
    idx = select_most_uncertain(up, n_points)
    rows, cols = np.divmod(idx, up.width)
    logits = up.logits.copy()
    logits[rows, cols] = _repredict(predictor, up.logits.ravel()[idx], rows, cols, up.logits.shape)
    return ScoreField._wrap(logits)


def _repredict(predictor, current, rows, cols, shape) -> np.ndarray:
    """The predictor's logits for pixels ``(rows, cols)`` of a ``shape``
    grid, queried at their centers, checked for shape and finiteness."""
    points = np.stack([grid_coords(shape[1])[cols], grid_coords(shape[0])[rows]], axis=1)
    refined = np.asarray(predictor.predict(points, current), dtype=np.float64)
    if refined.shape != (rows.size,):
        raise ValueError(f"predictor returned shape {refined.shape}, expected ({rows.size},)")
    if not np.isfinite(refined).all():
        raise ValueError("predictor returned non-finite logits")
    return refined


def subdivision_render(
    coarse: ScoreField, predictor: PointPredictor, cfg: SubdivisionConfig
) -> ScoreField:
    """Render a coarse square field up to ``cfg.target_side``.

    Applies :func:`subdivision_step` once per doubling with a per-step budget
    of ``cfg.subdivision_k ** 2`` points, clamped to the step's pixel count.
    With ``target_side == start_side`` the coarse field is returned
    unchanged.
    """
    if coarse.width != cfg.start_side or coarse.height != cfg.start_side:
        raise ValueError(
            f"coarse field is {coarse.width}x{coarse.height}, expected "
            f"{cfg.start_side}x{cfg.start_side}"
        )
    budget = cfg.subdivision_k ** 2
    field = coarse
    for _ in range(cfg.num_steps):
        step_pixels = 4 * field.width * field.height
        field = subdivision_step(field, predictor, min(budget, step_pixels))
    return field


def subdivision_mask(
    coarse: ScoreField, predictor: PointPredictor, cfg: SubdivisionConfig
) -> np.ndarray:
    """``binarize(subdivision_render(coarse, predictor, cfg))``, column-major:
    the steps up to ``target_side / 4`` run dense, and the last two (the one,
    on a one-step render) compute pixel values only in bands, as a chain of
    :func:`_band_signs`."""
    if cfg.num_steps == 0:
        return np.asfortranarray(binarize(subdivision_render(coarse, predictor, cfg)))
    banded = min(cfg.num_steps, 2)
    field = subdivision_render(coarse, predictor, replace(cfg, target_side=cfg.target_side >> banded))
    shapes = [(field.height << k, field.width << k) for k in range(1, banded + 1)]
    return _band_signs(field, shapes, predictor, [min(cfg.subdivision_k**2, h * w) for h, w in shapes])


def resample_mask(field: ScoreField, height: int, width: int) -> np.ndarray:
    """``binarize(resample(field, height, width))``, column-major, with pixel
    values computed only in the cells whose sign is open: the one-level
    chain of :func:`_band_signs` at budget 0."""
    if height < 1 or width < 1:
        raise ValueError("target dimensions must be positive")
    return _band_signs(field, [(height, width)])


def _band_signs(
    field: ScoreField, shapes, predictor: PointPredictor | None = None, budgets=(0,)
) -> np.ndarray:
    """``binarize`` of the last level of a chain, bit for bit and column-major,
    with pixel values computed only in bands. Level 0 is ``field``, and level
    k is level k - 1 resampled to ``shapes[k - 1]`` with its ``budgets[k - 1]``
    pixels of least ``|value|`` re-predicted, as :func:`subdivision_step`
    does; each level after the first doubles the one before, and every
    budget but the last is positive.

    A cell is the 2x2 taps ``(y0, x0)`` of ``core._taps`` on a level. A
    level-k pixel's block is the field cells between its lowest and its
    highest tap chain, at most 2 per axis. When each cell of the block has
    four taps of one sign in [2^-1000, 2^1000] in magnitude, they share that
    sign (neighbouring cells share a tap), and the pixel, two convex
    combinations per level that lose at most 6 ulps each, has it too and
    ``|value| >= min|tap| * (1 - 2^-40)^k``, the cells' bound at level k;
    any other cell has bound 0. That holds while no pixel of its chain was
    re-predicted. But a re-predicted pixel's block holds a cell with bound
    at most its level's cut, and each level starts at the cut of the level
    before, so that cell stays inside. The band to ``cut`` is thus the
    pixels whose block holds a cell with bound <= cut (see
    :func:`_ranked_band`), and a pixel outside has the sign of its block.
    """
    v = field.logits
    lo, bound = _cell_bounds(v)
    # per axis, the field cells at the two ends of the block of each cell
    # of the level below
    ends = [(np.arange(cells),) * 2 for cells in bound.shape]
    levels, below, cut = [], v.shape, 0.0
    for shape, n in zip(shapes, budgets):
        bound *= 1 - 2.0**-40  # the margin of one more level
        ty, tx = _taps(grid_coords(shape[0]), below[0]), _taps(grid_coords(shape[1]), below[1])
        band = _band(v, levels, ends, bound, below, ty, tx)
        rows, cols, vals, idx, cut = _ranked_band(band, bound, predictor, n, shape, cut)
        idx = np.sort(idx)  # row-major, as the band
        levels.append((ty, tx, shape[1], rows[idx] * shape[1] + cols[idx], vals[idx]))
        # the ends of each pixel's block, then of each cell's: the low end of
        # its first pixel's and the high end of its last one's
        pixel_ends = [(low[t[0]], high[t[0]]) for (low, high), t in zip(ends, (ty, tx))]
        ends = [(low[: max(k - 1, 1)], high[min(k, 2) - 1 :]) for (low, high), k in zip(pixel_ends, shape)]
        below = shape
    (sy, _), (sx, _) = pixel_ends
    mask = np.take(np.take(lo > 0.0, sy, axis=0).T, sx, axis=0).T
    mask[rows, cols] = vals > 0.0
    return mask


def _band(v, levels, ends, bound, below, ty, tx):
    """``band(cut)`` of the next level of :func:`_band_signs`'s chain, whose
    pixels have taps ``ty``, ``tx`` on the ``below`` grid of the last of
    ``levels``: the pixels, row-major, whose block holds a cell with bound
    <= cut, and their values. Each of its cells on the level below has its
    four corners computed once (:func:`_values`), and its pixels take
    their values from them."""
    (ylo, yhi), (xlo, xhi) = ends
    nx = bound.shape[1]
    count = np.bincount(tx[0], minlength=xlo.size)  # each cell column's pixel columns
    first = np.cumsum(count) - count
    # the cell columns whose blocks hold field cell column c are span[0][c]
    # to span[1][c] - 1; on level 1, c alone
    if levels:
        span = np.searchsorted(xhi, np.arange(nx)), np.searchsorted(xlo, np.arange(nx), "right")
    oy = np.arange(2).reshape(2, 1, 1) * (below[0] > 1)  # a cell's corners, one on a 1-pixel axis
    ox = np.arange(2).reshape(1, 2, 1) * (below[1] > 1)

    def band(cut):
        inside = bound <= cut
        if not levels:  # the cells of the level below are the field's
            cj, cl = np.divmod(np.flatnonzero(inside), nx)
        else:  # the cell rows against the field cell columns their blocks hold
            at = np.flatnonzero(inside[ylo] | inside[yhi])
            cj, c = np.divmod(at, nx)
            after = np.concatenate([[False], at[1:] - at[:-1] == 1]) & (c > 0)  # so is column c - 1
            start = np.where(after, span[1][c - 1], span[0][c])
            cj, cl = np.repeat(cj, span[1][c] - start), _ranges(start, span[1][c] - start)
        corners = _values(v, levels, len(levels), cj + oy, cl + ox).reshape(2, -1)
        rows, cols, cell = _expand(cj, first[cl], count[cl], ty[0], ylo.size)
        vals = _interpolate(corners, (0, 1, ty[2][rows]), (cell, cell + cj.size, tx[2][cols]))
        if not np.isfinite(vals).all():  # as resample's own field check
            raise ValueError("logits must be finite")
        return rows, cols, vals

    return band


def _values(v, levels, m, rows, cols):
    """The values of level ``m`` of :func:`_band_signs`'s chain at pixels
    ``(rows, cols)``, broadcast together: ``v`` at level 0, else the bilinear
    values of level m - 1 in ``core._interpolate``'s arithmetic, with the
    level's re-predicted pixels written over them."""
    if m == 0:
        return v.take(rows * v.shape[1] + cols)
    ty, tx, width, moved, moved_to = levels[m - 1]
    ty, tx, below = [t[rows] for t in ty], [t[cols] for t in tx], v
    if m > 1:  # the taps' values, laid out as a (2, 2 * taps) grid
        below = _values(v, levels, m - 1, np.stack(ty[:2])[:, None], np.stack(tx[:2])[None])
        below = below.reshape(2, -1)
        at = np.arange(below.size // 4).reshape(np.broadcast_shapes(rows.shape, cols.shape))
        ty, tx = (0, 1, ty[2]), (at, at + at.size, tx[2])
    vals = _interpolate(below, ty, tx)
    key = rows * width + cols
    found = np.minimum(np.searchsorted(moved, key), moved.size - 1)
    hit = moved[found] == key
    vals[hit] = moved_to[found[hit]]
    return vals


def _cell_bounds(v: np.ndarray):
    """``(lo, bound)`` of each cell of ``v``, its 2x2 taps: the least tap, and
    ``min|tap|`` when the four share a sign and lie in [2^-1000, 2^1000] in
    magnitude, else 0."""
    h, w = v.shape
    # each cell's taps: columns (b, b + 1) and rows (a, a + 1), one on a 1-pixel axis
    left, right = v[:, : max(w - 1, 1)], v[:, min(w, 2) - 1 :]
    lo, hi = np.minimum(left, right), np.maximum(left, right)
    top, bottom = slice(0, max(h - 1, 1)), slice(min(h, 2) - 1, None)
    # reduced in place: a row is written only after it and the row below are read
    lo = np.minimum(lo[top], lo[bottom], out=lo[top])
    hi = np.maximum(hi[top], hi[bottom], out=hi[top])
    far = (hi > 2.0**1000) | (lo < -(2.0**1000))
    # min|tap| when the four share a sign, else <= 0; written over hi, as lo
    # gives the cell signs
    bound = np.maximum(lo, np.negative(hi, out=hi), out=hi)
    bound[(bound < 2.0**-1000) | far] = 0.0
    return lo, bound


def _ranked_band(band, bound, predictor, n: int, shape, cut=0.0):
    """The band that decides the ``n`` pixels of least ``|value|`` on a
    ``shape`` grid, with their values re-predicted: its rows, columns and
    values, row-major, the indices re-predicted, and its cut. ``band(cut)``
    lists the pixels of the cells with bound <= cut, a pixel outside having
    ``|value| > cut`` and its cell's sign; any start >= 0 will do. The band
    grows at most once, to t, the n-th smallest ``|value|`` in it: a pixel
    outside then has ``|value| > t``, so it is not selected, nor tied with
    one that is.
    """
    rows, cols, vals = band(cut)
    if rows.size < n:  # widen to the n cells of least bound: each holds a pixel
        cut = np.partition(bound, n - 1, axis=None)[n - 1] if n <= bound.size else np.inf
        rows, cols, vals = band(cut)
    idx = np.empty(0, np.intp)
    if n:
        t = np.partition(np.abs(vals), n - 1)[n - 1]  # the n-th smallest |value| in the band
        if t > cut:  # grown once: the band to t holds this one, so its n-th smallest is <= t
            cut = t
            rows, cols, vals = band(cut)
        idx = select_most_uncertain(ScoreField._wrap(vals[None]), n)
        vals[idx] = _repredict(predictor, vals[idx], rows[idx], cols[idx], shape)
    return rows, cols, vals, idx, cut


def _expand(ys, first, count, row_class, classes: int):
    """The pixels, row-major, of column runs listed row-major: run e is the
    ``count[e]`` columns from ``first[e]`` of each row r with
    ``row_class[r] == ys[e]``, ``row_class`` being non-decreasing and below
    ``classes``. Also the run of each pixel."""
    # the runs' columns lie class row after class row; row r takes the slice
    # ends[row_class[r]]:ends[row_class[r] + 1] of them
    ends = np.concatenate([[0], np.cumsum(count)])[np.searchsorted(ys, np.arange(classes + 1))]
    n = ends[row_class + 1] - ends[row_class]
    at = _ranges(ends[row_class], n)
    rows, run = np.repeat(np.arange(row_class.size), n), np.repeat(np.arange(ys.size), count)[at]
    return rows, _ranges(first, count)[at], run
