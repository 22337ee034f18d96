"""Coarse-to-fine subdivision rendering of mask score fields.

Each subdivision step doubles the grid resolution by bilinear upsampling,
then re-predicts only the most uncertain points (those with logits closest
to zero) through a :class:`PointPredictor`. Iterating the step renders a
low-resolution mask up to the target resolution while spending prediction
budget almost exclusively on instance boundaries.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import ScoreField, grid_coords, resample, sample_points

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
    h2, w2 = up.height, up.width
    rows, cols = np.divmod(idx, w2)
    points = np.stack([grid_coords(w2)[cols], grid_coords(h2)[rows]], axis=1)
    current = up.logits.ravel()[idx]
    refined = np.asarray(predictor.predict(points, current), dtype=np.float64)
    if refined.shape != (idx.size,):
        raise ValueError(f"predictor returned shape {refined.shape}, expected ({idx.size},)")
    if not np.isfinite(refined).all():
        raise ValueError("predictor returned non-finite logits")
    logits = up.logits.copy()
    logits[rows, cols] = refined
    return ScoreField._wrap(logits)


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
