"""Multi-model detection ensembling.

Each model is reweighted from its validation score (linear interpolation
between a floor and ceiling coefficient, or rank-based spacing), the scaled
detections are pooled, and overlaps are resolved with soft-NMS. Mask-level
merging of near-duplicate detections is available behind a flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .core import BBox, RleMask, box_iou_matrix, rle_iou_matrix, rle_merge

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
    w = np.asarray(weights, dtype=np.float64)
    if w.size != len(models):
        raise ValueError(f"{len(models)} models but {w.size} weights")
    pooled: list[Detection] = []
    for model, weight in zip(models, w.tolist()):
        pooled += [
            Detection(d.image_id, d.category_id, min(max(d.score * weight, 0.0), 1.0),
                      d.bbox, d.mask, model.model_id)
            for d in model.detections
        ]
    return pooled


def _decay(ious: np.ndarray, cfg: SoftNmsConfig) -> np.ndarray:
    if cfg.method == "gaussian":
        return np.exp(-(ious * ious) / cfg.sigma)
    if cfg.method == "linear":
        # an IoU that rounds above 1 must not turn a score negative
        return np.where(ious > cfg.iou_threshold, np.maximum(1.0 - ious, 0.0), 1.0)
    return np.where(ious > cfg.iou_threshold, 0.0, 1.0)


def _suppress_group(dets: list[Detection], cfg: SoftNmsConfig) -> list[Detection]:
    """Soft-NMS over one image (and category) worth of detections, listed
    in tie order: on equal scores argmax keeps the first.

    The group's IoU matrix is built once, of the masks or of the declared
    boxes.
    """
    masks = [det.mask for det in dets]
    if cfg.use_mask_iou and any(mask is None for mask in masks):
        raise ValueError("use_mask_iou requires every detection to carry a mask")
    boxes = [det.bbox for det in dets]
    ious = rle_iou_matrix(masks, masks) if cfg.use_mask_iou else box_iou_matrix(boxes, boxes)
    # a subnormal gaussian sigma overflows iou**2 / sigma to inf, and
    # exp(-inf) = 0 is the intended decay
    with np.errstate(over="ignore"):
        decay = _decay(ious, cfg)
    # the detections still live, in input order, and their decayed scores
    live = np.arange(len(dets))
    scores = np.array([det.score for det in dets], dtype=np.float64)
    kept: list[Detection] = []
    while live.size:
        i = np.argmax(scores)
        det, score = dets[live[i]], float(scores[i])
        if det.score != score:
            det = Detection(det.image_id, det.category_id, score, det.bbox, det.mask, det.source_model)
        kept.append(det)
        scores *= decay[live[i], live]
        stay = scores >= cfg.score_floor
        stay[i] = False
        live, scores = live[stay], scores[stay]
    return kept


def soft_nms(dets: list[Detection], cfg: SoftNmsConfig | None = None) -> list[Detection]:
    """Score-decaying non-maximum suppression.

    Detections are grouped per image (and per category unless configured
    class-agnostic). Within a group the highest-scoring detection is kept
    and every remaining one has its score decayed by the configured overlap
    penalty; anything falling below ``score_floor`` is dropped. Boxes and
    masks are never altered. The output is sorted by final score,
    descending.
    """
    cfg = cfg or SoftNmsConfig()
    # one stable sort gives every group its tie order: source model, then input position
    groups: dict[tuple, list[Detection]] = {}
    for det in sorted(dets, key=lambda d: d.source_model or ""):
        key = (det.image_id, det.category_id) if cfg.per_category else (det.image_id,)
        groups.setdefault(key, []).append(det)
    out: list[Detection] = []
    for members in groups.values():
        out.extend(_suppress_group(members, cfg))
    out.sort(key=lambda d: (-d.score, d.image_id, d.category_id, d.source_model or ""))
    return out


def cluster_merge_masks(dets: list[Detection], cluster_iou: float = 0.5) -> list[Detection]:
    """Merge near-duplicate detections of one image into single masks.

    Detections are clustered greedily by descending score: each joins the
    first existing cluster of the same category whose representative box
    overlaps it by at least ``cluster_iou``. A cluster keeps its
    representative's box and score and votes per pixel, weighting each
    member mask by its score; pixels carrying strictly more than half the
    total weight are foreground.
    """
    for det in dets:
        if det.mask is None:
            raise ValueError("cluster_merge_masks requires every detection to carry a mask")
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].source_model or "", i),
    )
    groups: dict[tuple[int, int], list[int]] = {}
    for i in order:
        groups.setdefault((dets[i].image_id, dets[i].category_id), []).append(i)
    clusters: dict[int, list[Detection]] = {}  # representative index -> members
    for idxs in groups.values():
        boxes = [dets[i].bbox for i in idxs]
        ious = box_iou_matrix(boxes, boxes)
        reps: list[int] = []  # group positions of the representatives
        for pos, i in enumerate(idxs):
            joined = np.flatnonzero(ious[reps, pos] >= cluster_iou)
            if joined.size:
                clusters[idxs[reps[joined[0]]]].append(dets[i])
            else:
                reps.append(pos)
                clusters[i] = [dets[i]]
    merged: list[Detection] = []
    for members in (clusters[i] for i in order if i in clusters):
        rep = members[0]
        if len(members) > 1:
            fused = rle_merge([det.mask for det in members], [det.score for det in members])
            rep = replace(rep, mask=fused)
        merged.append(rep)
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
    survivors = soft_nms(apply_weights(models, model_weights(models, cfg)), cfg.nms)
    if cfg.merge_masks:
        survivors = cluster_merge_masks(survivors, cfg.cluster_iou)
    survivors.sort(
        key=lambda d: (d.image_id, -d.score, d.category_id, d.source_model or "")
    )
    return survivors
