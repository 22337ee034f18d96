"""Multi-model detection ensembling.

Each model is reweighted from its validation score (linear interpolation
between a floor and ceiling coefficient, or rank-based spacing), the scaled
detections are pooled, and overlaps are resolved with soft-NMS. Mask-level
merging of near-duplicate detections is available behind a flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import BBox, RleMask, _box_ious, rle_iou_matrix, rle_merge

__all__ = [
    "Detection",
    "ModelCandidate",
    "SoftNmsConfig",
    "EnsembleConfig",
    "linear_interpolation_weights",
    "linear_reweight_weights",
    "model_weights",
    "apply_weights",
    "soft_nms",
    "cluster_merge_masks",
    "ensemble",
]


@dataclass(frozen=True)
class Detection:
    """One instance hypothesis: where, what, and how confident."""

    image_id: int
    category_id: int
    score: float
    bbox: BBox
    mask: RleMask | None = None
    source_model: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


@dataclass
class _Columns:
    """Detections as columns, as the commands carry them: ids as the Python
    ints they are, scores and ``[x, y, w, h]`` boxes as float64 arrays, and
    ``wire``, the string each mask was read from when it encodes back to
    exactly that string, else None. The list routines are views of these."""

    image_id: list
    category_id: list
    score: np.ndarray
    box: np.ndarray
    mask: list
    wire: list
    source: list

    @classmethod
    def of(cls, dets) -> _Columns:
        """The columns of detections; no mask keeps a wire string."""
        dets = list(dets)
        boxes = np.array([(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h) for d in dets], np.float64)
        return cls([d.image_id for d in dets], [d.category_id for d in dets],
                   np.array([d.score for d in dets], np.float64), boxes.reshape(-1, 4),
                   [d.mask for d in dets], [None] * len(dets), [d.source_model for d in dets])

    @classmethod
    def joined(cls, tables) -> _Columns:
        """The rows of every table, in order."""
        tables = [cls.of([]), *tables]
        return cls(*(
            np.concatenate([getattr(t, f) for t in tables]) if f in ("score", "box")
            else [x for t in tables for x in getattr(t, f)]
            for f in cls.__dataclass_fields__
        ))

    def __len__(self) -> int:
        return len(self.mask)

    def take(self, rows: list[int]) -> _Columns:
        """The given rows, in the given order."""
        return _Columns(*(
            getattr(self, f)[rows] if f in ("score", "box") else [getattr(self, f)[k] for k in rows]
            for f in self.__dataclass_fields__
        ))

    def detections(self) -> list[Detection]:
        """The rows as detections."""
        return [
            Detection(i, c, s, BBox(*box), mask, source)
            for i, c, s, box, mask, source in zip(self.image_id, self.category_id, self.score.tolist(),
                                                  self.box.tolist(), self.mask, self.source)
        ]


@dataclass
class ModelCandidate:
    """One ensemble member: its identifier, validation score and detections."""

    model_id: str
    validation_score: float
    detections: list[Detection]

    def __post_init__(self) -> None:
        if not np.isfinite(self.validation_score):
            raise ValueError("validation_score must be finite")


@dataclass(frozen=True)
class SoftNmsConfig:
    """Soft-NMS behavior.

    ``method`` is one of ``gaussian`` (decay ``exp(-iou**2 / sigma)``),
    ``linear`` (decay ``max(1 - iou, 0)`` past ``iou_threshold``) or ``hard``
    (classic suppression past ``iou_threshold``). Detections whose decayed
    score drops below ``score_floor`` are discarded. Overlap is measured on
    boxes unless ``use_mask_iou`` is set.
    """

    METHODS: ClassVar[tuple[str, ...]] = ("gaussian", "linear", "hard")
    method: str = "gaussian"
    sigma: float = 0.5
    iou_threshold: float = 0.5
    score_floor: float = 0.001
    per_category: bool = True
    use_mask_iou: bool = False

    def __post_init__(self) -> None:
        if self.method not in self.METHODS:
            raise ValueError(f"unknown soft-NMS method: {self.method!r}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must lie in [0, 1], got {self.iou_threshold}")
        if np.isnan(self.score_floor):
            raise ValueError("score_floor must be a number, got nan")


@dataclass(frozen=True)
class EnsembleConfig:
    STRATEGIES: ClassVar[tuple[str, ...]] = ("linear_interpolation", "linear_reweight")
    theta_min: float = 0.6
    theta_max: float = 1.0
    strategy: str = "linear_interpolation"
    nms: SoftNmsConfig = field(default_factory=SoftNmsConfig)
    merge_masks: bool = False
    cluster_iou: float = 0.5

    def __post_init__(self) -> None:
        if not np.isfinite([self.theta_min, self.theta_max]).all():
            raise ValueError(
                f"theta_min and theta_max must be finite, got {self.theta_min}, {self.theta_max}"
            )
        if self.theta_min > self.theta_max:
            raise ValueError(
                f"theta_min ({self.theta_min}) must not exceed theta_max ({self.theta_max})"
            )
        if self.strategy not in self.STRATEGIES:
            raise ValueError(f"unknown ensemble strategy: {self.strategy!r}")
        if not 0.0 <= self.cluster_iou <= 1.0:
            raise ValueError(f"cluster_iou must lie in [0, 1], got {self.cluster_iou}")


def _model_scores(scores) -> np.ndarray:
    """Validation scores as a non-empty, finite 1-D float array."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return s


def linear_interpolation_weights(
    scores, theta_min: float = EnsembleConfig.theta_min, theta_max: float = EnsembleConfig.theta_max
) -> np.ndarray:
    """Per-model weights, affine in the validation scores.

    The lowest-scoring model gets ``theta_min``, the highest ``theta_max``,
    everything else is linearly interpolated in between. When all scores are
    equal every model gets ``theta_max``, so a single-model ensemble keeps
    its confidences scaled by the ceiling.
    """
    s = _model_scores(scores)
    lo, hi = s.min(), s.max()
    if hi == lo:
        return np.full(s.shape, theta_max)
    return theta_min + (theta_max - theta_min) * (s - lo) / (hi - lo)


def linear_reweight_weights(
    scores, theta_min: float = EnsembleConfig.theta_min, theta_max: float = EnsembleConfig.theta_max
) -> np.ndarray:
    """Rank-based weights, evenly spaced over ``[theta_min, theta_max]``.

    Models are ranked ascending by score; tied scores share the mean of
    their rank positions. A single model gets ``theta_max``.
    """
    s = _model_scores(scores)
    n = s.size
    if n == 1:
        return np.array([theta_max])
    ordered = np.sort(s)
    # a value's mean sorted position: the midpoint of its first and last, a half-integer
    ranks = (np.searchsorted(ordered, s) + np.searchsorted(ordered, s, side="right") - 1) / 2
    return theta_min + (theta_max - theta_min) * ranks / (n - 1)


def model_weights(models: list[ModelCandidate], cfg: EnsembleConfig) -> np.ndarray:
    """Weights from the validation scores, by ``cfg.strategy``; ValueError if any overflows."""
    scores = [m.validation_score for m in models]
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.strategy == "linear_interpolation":
            weights = linear_interpolation_weights(scores, cfg.theta_min, cfg.theta_max)
        else:
            weights = linear_reweight_weights(scores, cfg.theta_min, cfg.theta_max)
    if not np.isfinite(weights).all():
        raise ValueError(
            f"model weights overflow: theta_min {cfg.theta_min}, theta_max {cfg.theta_max}, "
            f"validation scores {min(scores)} to {max(scores)}"
        )
    return weights


def apply_weights(models: list[ModelCandidate], weights) -> list[Detection]:
    """Scale every detection's score by its model weight and pool the lot.

    Scores are clamped to [0, 1]; each pooled detection is tagged with its
    model of origin.
    """
    tables = [_Columns.of(model.detections) for model in models]
    return _pool(tables, [model.model_id for model in models], weights).detections()


def _pool(tables: list[_Columns], names: list[str], weights) -> _Columns:
    """:func:`apply_weights` on columns, one table per model."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size != len(tables):
        raise ValueError(f"{len(tables)} models but {w.size} weights")
    pooled = _Columns.joined(tables)
    with np.errstate(invalid="ignore"):  # 0 * inf is nan, as in Python, and then refused
        pooled.score *= np.repeat(w, [len(t) for t in tables])
    # min(max(s, 0.0), 1.0), which keeps a -0.0 (a zero score times a
    # negative weight), while np.clip and np.maximum give +0.0
    pooled.score = np.where(pooled.score < 0.0, 0.0, np.minimum(pooled.score, 1.0))
    pooled.source = [name for name, t in zip(names, tables) for _ in range(len(t))]
    return pooled


def _decay(ious: np.ndarray, cfg: SoftNmsConfig) -> np.ndarray:
    if cfg.method == "gaussian":
        return np.exp(-(ious * ious) / cfg.sigma)
    if cfg.method == "linear":
        # an IoU that rounds above 1 must not turn a score negative
        return np.where(ious > cfg.iou_threshold, np.maximum(1.0 - ious, 0.0), 1.0)
    return np.where(ious > cfg.iou_threshold, 0.0, 1.0)


def _suppress_group(rows: np.ndarray, cols: _Columns, cfg: SoftNmsConfig) -> list[int]:
    """Soft-NMS over one image (and category) worth of rows of ``cols``,
    listed in tie order: on equal scores argmax keeps the first. Returns the
    rows kept, as they are picked, and writes their scores into ``cols``.
    The group's IoU matrix is built once, of the masks or of the boxes.
    """
    masks = [cols.mask[k] for k in rows] if cfg.use_mask_iou else []
    if any(mask is None for mask in masks):
        raise ValueError("use_mask_iou requires every detection to carry a mask")
    boxes = cols.box[rows]
    ious = rle_iou_matrix(masks, masks) if cfg.use_mask_iou else _box_ious(boxes, boxes)
    # a subnormal gaussian sigma overflows iou**2 / sigma to inf, and
    # exp(-inf) = 0 is the intended decay
    with np.errstate(over="ignore"):
        decay = _decay(ious, cfg)
    # the decayed scores in input order, -inf once picked or dropped: a live
    # score is at least 0, so argmax meets the live rows alone
    scores = cols.score[rows]
    picked, final = [], []
    with np.errstate(invalid="ignore"):  # -inf * 0 is nan on a row already out; put back
        while (best := scores[i := np.argmax(scores)]) != -np.inf:
            picked.append(i)
            final.append(best)
            scores[i] = -np.inf
            scores *= decay[i]
            np.putmask(scores, ~(scores >= cfg.score_floor), -np.inf)
    kept = rows[picked]
    cols.score[kept] = final
    return kept.tolist()


def soft_nms(dets: list[Detection], cfg: SoftNmsConfig | None = None) -> list[Detection]:
    """Score-decaying non-maximum suppression.

    Detections are grouped per image (and per category unless configured
    class-agnostic). Within a group the highest-scoring detection is kept
    and every remaining one has its score decayed by the configured overlap
    penalty; anything falling below ``score_floor`` is dropped. Boxes and
    masks are never altered. The output is sorted by final score,
    descending.
    """
    return _soft_nms(_Columns.of(dets), cfg or SoftNmsConfig()).detections()


def _soft_nms(cols: _Columns, cfg: SoftNmsConfig) -> _Columns:
    """:func:`soft_nms` on columns; it writes the decayed scores into ``cols``."""
    keys = list(zip(cols.image_id, cols.category_id) if cfg.per_category else zip(cols.image_id))
    # one stable sort gives every group its tie order: source model, then input position
    groups: dict[tuple, list[int]] = {}
    for k in sorted(range(len(cols)), key=[s or "" for s in cols.source].__getitem__):
        groups.setdefault(keys[k], []).append(k)
    kept: list[int] = []
    for rows in groups.values():
        kept += _suppress_group(np.array(rows), cols, cfg)
    scores = cols.score.tolist()
    kept.sort(key=lambda k: (-scores[k], cols.image_id[k], cols.category_id[k], cols.source[k] or ""))
    return cols.take(kept)


def cluster_merge_masks(dets: list[Detection], cluster_iou: float = 0.5) -> list[Detection]:
    """Merge near-duplicate detections of one image into single masks.

    Detections are clustered greedily by descending score: each joins the
    first existing cluster of the same category whose representative box
    overlaps it by at least ``cluster_iou``. A cluster keeps its
    representative's box and score and votes per pixel, weighting each
    member mask by its score; pixels carrying strictly more than half the
    total weight are foreground.
    """
    return _cluster_merge(_Columns.of(dets), cluster_iou).detections()


def _cluster_merge(cols: _Columns, cluster_iou: float) -> _Columns:
    """:func:`cluster_merge_masks` on columns; a merged mask has no wire string."""
    if any(mask is None for mask in cols.mask):
        raise ValueError("cluster_merge_masks requires every detection to carry a mask")
    scores = cols.score.tolist()
    order = sorted(range(len(cols)), key=lambda i: (-scores[i], cols.source[i] or "", i))
    groups: dict[tuple[int, int], list[int]] = {}
    for i in order:
        groups.setdefault((cols.image_id[i], cols.category_id[i]), []).append(i)
    clusters: dict[int, list[int]] = {}  # representative row -> member rows
    for idxs in groups.values():
        ious = _box_ious(cols.box[idxs], cols.box[idxs])
        reps: list[int] = []  # group positions of the representatives
        for pos, i in enumerate(idxs):
            joined = np.flatnonzero(ious[reps, pos] >= cluster_iou)
            if joined.size:
                clusters[idxs[reps[joined[0]]]].append(i)
            else:
                reps.append(pos)
                clusters[i] = [i]
    heads = [i for i in order if i in clusters]  # the representatives, in rank order
    merged = cols.take(heads)
    for k, members in enumerate(clusters[i] for i in heads):
        if len(members) > 1:
            merged.mask[k] = rle_merge([cols.mask[j] for j in members], [scores[j] for j in members])
            merged.wire[k] = None
    return merged


def ensemble(models: list[ModelCandidate], cfg: EnsembleConfig | None = None) -> list[Detection]:
    """Run the full fusion pipeline over a set of model candidates.

    Weights are derived from the validation scores per the configured
    strategy, detections are pooled with scaled confidences, soft-NMS
    resolves overlaps per image, and (optionally) surviving near-duplicates
    have their masks merged. Deterministic for fixed inputs; output is
    ordered by image, then score descending.
    """
    cfg = cfg or EnsembleConfig()
    if not models:
        raise ValueError("ensemble requires at least one model")
    weights = model_weights(models, cfg)
    tables = [_Columns.of(m.detections) for m in models]
    return _fuse(tables, [m.model_id for m in models], weights, cfg).detections()


def _fuse(tables: list[_Columns], names: list[str], weights, cfg: EnsembleConfig) -> _Columns:
    """:func:`ensemble` on columns, one table per model, with its weights."""
    fused = _soft_nms(_pool(tables, names, weights), cfg.nms)
    if cfg.merge_masks:
        fused = _cluster_merge(fused, cfg.cluster_iou)
    scores = fused.score.tolist()
    return fused.take(sorted(
        range(len(fused)),
        key=lambda k: (fused.image_id[k], -scores[k], fused.category_id[k], fused.source[k] or ""),
    ))
