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

from .core import ScoreField, _ranges, _taps, binarize, grid_coords, resample, sample_points

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
    """``binarize(subdivision_render(coarse, predictor, cfg))``: the steps
    before the last run dense, and the last computes pixel values only in
    the band where a sign or a rank is still open (see :func:`_band_signs`).
    """
    if cfg.num_steps == 0:
        return binarize(subdivision_render(coarse, predictor, cfg))
    field = subdivision_render(coarse, predictor, replace(cfg, target_side=cfg.target_side // 2))
    n = min(cfg.subdivision_k ** 2, 4 * field.width * field.height)
    return _band_signs(field, 2 * field.height, 2 * field.width, predictor, n)


def resample_mask(field: ScoreField, height: int, width: int) -> np.ndarray:
    """``binarize(resample(field, height, width))``, with pixel values
    computed only in the cells whose sign is open (see :func:`_band_signs`)."""
    if height < 1 or width < 1:
        raise ValueError("target dimensions must be positive")
    return _band_signs(field, height, width)


def _band_signs(
    field: ScoreField,
    height: int,
    width: int,
    predictor: PointPredictor | None = None,
    n: int = 0,
) -> np.ndarray:
    """``binarize(subdivision_step(field, predictor, n))`` for ``n > 0``, where
    ``height x width`` is twice the field's size, and
    ``binarize(resample(field, height, width))`` for ``n == 0``, bit for bit,
    with pixel values computed only in a band.

    A cell is the 2x2 taps ``(y0, x0)`` of ``core._taps``. When its four taps
    share a sign and lie in [2^-1000, 2^1000] in magnitude, each pixel of the
    cell, two convex combinations of the taps that lose at most 6 ulps, has
    that sign and ``|value| >= bound = min|tap| * (1 - 2^-40)``. Every other
    cell has bound 0 and is always in the band. The band grows until it is
    every cell with bound <= t, t being the n-th smallest ``|value|`` in it:
    a pixel outside then has ``|value| > t``, so it is not selected, ties
    with none that is, and has its cell's sign. Band values come from
    ``sample_points``, which equals ``resample`` at grid points bit for bit.
    """
    v = field.logits
    (h, w), gy, gx = v.shape, grid_coords(height), grid_coords(width)
    y0, x0 = _taps(gy, h)[0], _taps(gx, w)[0]
    # each cell's taps: columns (b, b + 1) and rows (a, a + 1), one on a 1-pixel axis
    left, right = v[:, : max(w - 1, 1)], v[:, min(w, 2) - 1 :]
    lo, hi = np.minimum(left, right), np.maximum(left, right)
    top, bottom = slice(0, max(h - 1, 1)), slice(min(h, 2) - 1, None)
    # reduced in place: a row is written only after it and the row below are read
    lo = np.minimum(lo[top], lo[bottom], out=lo[top])
    hi = np.maximum(hi[top], hi[bottom], out=hi[top])
    far = (hi > 2.0**1000) | (lo < -(2.0**1000))
    # min|tap| when the four share a sign, else <= 0; written over hi, as lo
    # gives the cell signs below
    bound = np.maximum(lo, np.negative(hi, out=hi), out=hi)
    bound[(bound < 2.0**-1000) | far] = 0.0
    bound *= 1 - 2.0**-40
    cx = np.bincount(x0, minlength=bound.shape[1])
    first = np.cumsum(cx) - cx  # each cell column's first output column

    def band(cut):
        """The output pixels, row-major, of the cells with bound <= cut, and
        their values."""
        ys, xs = np.divmod(np.flatnonzero(bound <= cut), bound.shape[1])
        # the band's columns lie cell row after cell row; output row r takes
        # the slice ends[y0[r]]:ends[y0[r] + 1] of them
        ends = np.searchsorted(ys, np.arange(bound.shape[0] + 1))
        ends = np.concatenate([[0], np.cumsum(cx[xs])])[ends]
        count = ends[y0 + 1] - ends[y0]
        cols = _ranges(first[xs], cx[xs])[_ranges(ends[y0], count)]
        rows = np.repeat(np.arange(height), count)
        vals = sample_points(field, np.stack([gx[cols], gy[rows]], axis=1))
        if not np.isfinite(vals).all():  # as resample's own field check
            raise ValueError("logits must be finite")
        return rows, cols, vals

    cut = 0.0
    rows, cols, vals = band(cut)
    if rows.size < n:  # widen to the n cells of least bound: on a x2 step each holds a pixel
        cut = np.partition(bound, n - 1, axis=None)[n - 1] if n <= bound.size else np.inf
        rows, cols, vals = band(cut)
    if n:
        t = np.partition(np.abs(vals), n - 1)[n - 1]  # the n-th smallest |value| in the band
        if t > cut:  # grown once: the band to t holds this one, so its n-th smallest is <= t
            rows, cols, vals = band(t)
        idx = select_most_uncertain(ScoreField._wrap(vals[None]), n)
        vals[idx] = _repredict(predictor, vals[idx], rows[idx], cols[idx], (height, width))
    # outside the band a pixel has its cell's sign, and there lo > 0 means positive
    mask = np.take(np.take(lo > 0.0, x0, axis=1), y0, axis=0)
    mask[rows, cols] = vals > 0.0
    return mask
