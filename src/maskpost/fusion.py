"""Multi-model detection ensembling.

Each model is reweighted from its validation score (linear interpolation
between a floor and ceiling coefficient, or rank-based spacing), the scaled
detections are pooled, and overlaps are resolved with soft-NMS. Mask-level
merging of near-duplicate detections is available behind a flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import BBox, RleMask, box_iou, rle_bbox, rle_iou, rle_merge

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
    ``linear`` (decay ``1 - iou`` past ``iou_threshold``) or ``hard``
    (classic suppression past ``iou_threshold``). Detections whose decayed
    score drops below ``score_floor`` are discarded. Overlap is measured on
    boxes unless ``use_mask_iou`` is set.
    """

    method: str = "gaussian"
    sigma: float = 0.5
    iou_threshold: float = 0.5
    score_floor: float = 0.001
    per_category: bool = True
    use_mask_iou: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("gaussian", "linear", "hard"):
            raise ValueError(f"unknown soft-NMS method: {self.method!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class EnsembleConfig:
    theta_min: float = 0.6
    theta_max: float = 1.0
    strategy: str = "linear_interpolation"
    nms: SoftNmsConfig = field(default_factory=SoftNmsConfig)
    merge_masks: bool = False
    cluster_iou: float = 0.5

    def __post_init__(self) -> None:
        if self.theta_min > self.theta_max:
            raise ValueError("theta_min must not exceed theta_max")
        if self.strategy not in ("linear_interpolation", "linear_reweight"):
            raise ValueError(f"unknown ensemble strategy: {self.strategy!r}")


def linear_interpolation_weights(
    scores, theta_min: float = 0.6, theta_max: float = 1.0
) -> np.ndarray:
    """Per-model weights, affine in the validation scores.

    The lowest-scoring model gets ``theta_min``, the highest ``theta_max``,
    everything else is linearly interpolated in between. When all scores are
    equal every model gets ``theta_max``, so a single-model ensemble keeps
    its confidences scaled by the ceiling.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    lo, hi = s.min(), s.max()
    if hi == lo:
        return np.full(s.shape, theta_max)
    return theta_min + (theta_max - theta_min) * (s - lo) / (hi - lo)


def linear_reweight_weights(
    scores, theta_min: float = 0.6, theta_max: float = 1.0
) -> np.ndarray:
    """Rank-based weights, evenly spaced over ``[theta_min, theta_max]``.

    Models are ranked ascending by score; tied scores share the mean of
    their rank positions. A single model gets ``theta_max``.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    n = s.size
    if n == 1:
        return np.array([theta_max])
    order = np.argsort(s, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(n, dtype=np.float64)
    for value in np.unique(s):
        tied = s == value
        if np.count_nonzero(tied) > 1:
            ranks[tied] = ranks[tied].mean()
    return theta_min + (theta_max - theta_min) * ranks / (n - 1)


def model_weights(models: list[ModelCandidate], cfg: EnsembleConfig) -> np.ndarray:
    """Per-model weights from the validation scores, by ``cfg.strategy``."""
    scores = [m.validation_score for m in models]
    if cfg.strategy == "linear_interpolation":
        return linear_interpolation_weights(scores, cfg.theta_min, cfg.theta_max)
    return linear_reweight_weights(scores, cfg.theta_min, cfg.theta_max)


def apply_weights(models: list[ModelCandidate], weights) -> list[Detection]:
    """Scale every detection's score by its model weight and pool the lot.

    Scores are clamped to [0, 1]; each pooled detection is tagged with its
    model of origin.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size != len(models):
        raise ValueError(f"{len(models)} models but {w.size} weights")
    pooled: list[Detection] = []
    for model, weight in zip(models, w):
        for det in model.detections:
            scaled = min(max(det.score * float(weight), 0.0), 1.0)
            pooled.append(replace(det, score=scaled, source_model=model.model_id))
    return pooled


def _decay_factor(iou: float, cfg: SoftNmsConfig) -> float:
    if cfg.method == "gaussian":
        return float(np.exp(-(iou * iou) / cfg.sigma))
    if cfg.method == "linear":
        return 1.0 - iou if iou > cfg.iou_threshold else 1.0
    return 0.0 if iou > cfg.iou_threshold else 1.0


def _suppress_group(group: list[tuple[Detection, int]], cfg: SoftNmsConfig) -> list[Detection]:
    """Soft-NMS over one image (and category) worth of detections.

    Mask overlap is computed on the runs. Each mask's tight box is found
    once; a pair whose boxes share no pixel has IoU 0 without further work.
    """
    dets = [det for det, _ in group]
    if cfg.use_mask_iou:
        if any(det.mask is None for det in dets):
            raise ValueError("use_mask_iou requires every detection to carry a mask")
        boxes = [rle_bbox(det.mask) for det in dets]

    def overlap(i: int, j: int) -> float:
        if not cfg.use_mask_iou:
            return box_iou(dets[i].bbox, dets[j].bbox)
        if not boxes[i].overlaps(boxes[j]):
            return 0.0
        return rle_iou(dets[i].mask, dets[j].mask)

    # (score, det, source key, input index, group position); ties go to the
    # lexically first source model, then the earliest input position.
    live = [
        [det.score, det, det.source_model or "", idx, pos]
        for pos, (det, idx) in enumerate(group)
    ]
    kept: list[Detection] = []
    while live:
        best_at = min(range(len(live)), key=lambda i: (-live[i][0], live[i][2], live[i][3]))
        score, det, _, _, det_pos = live.pop(best_at)
        kept.append(det if det.score == score else replace(det, score=score))
        survivors = []
        for rec in live:
            rec[0] *= _decay_factor(overlap(det_pos, rec[4]), cfg)
            if rec[0] >= cfg.score_floor:
                survivors.append(rec)
        live = survivors
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
    groups: dict[tuple, list[tuple[Detection, int]]] = {}
    for idx, det in enumerate(dets):
        key = (det.image_id, det.category_id) if cfg.per_category else (det.image_id,)
        groups.setdefault(key, []).append((det, idx))
    out: list[Detection] = []
    for key in sorted(groups):
        out.extend(_suppress_group(groups[key], cfg))
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
    clusters: list[list[Detection]] = []
    for i in order:
        det = dets[i]
        for members in clusters:
            rep = members[0]
            if rep.image_id != det.image_id or rep.category_id != det.category_id:
                continue
            if box_iou(rep.bbox, det.bbox) >= cluster_iou:
                members.append(det)
                break
        else:
            clusters.append([det])
    merged: list[Detection] = []
    for members in clusters:
        rep = members[0]
        if len(members) == 1:
            merged.append(rep)
            continue
        fused = rle_merge([det.mask for det in members], [det.score for det in members])
        merged.append(replace(rep, mask=fused))
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
