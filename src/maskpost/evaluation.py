"""COCO-style average precision over masks or boxes, with size buckets.

AP is the mean of interpolated precision sampled at 101 evenly spaced recall
points, averaged over IoU thresholds 0.50:0.05:0.95 and over categories.
The small/medium/large breakdowns restrict ground truth and detections to
one size bucket; bucket membership uses mask pixel area (a matched
detection inherits its ground truth's bucket, an unmatched one is bucketed
by its own area).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import MEDIUM_LARGE_SIDE, SMALL_MEDIUM_SIDE
from .core import BBox, RleMask, SizeBucket, box_iou_matrix, rle_iou_matrix, size_bucket
from .fusion import Detection

__all__ = [
    "GroundTruthInstance",
    "EvalConfig",
    "MetricReport",
    "match_detections",
    "average_precision",
    "evaluate",
]

UNDEFINED = -1.0  # sentinel for metrics with no ground truth to measure against


@dataclass(frozen=True)
class GroundTruthInstance:
    """An annotated instance. ``area`` is the mask's foreground pixel count
    and is derived from the mask when not supplied."""

    image_id: int
    category_id: int
    mask: RleMask
    bbox: BBox
    area: int | None = None

    def __post_init__(self) -> None:
        pixels = self.mask.area
        if self.area is None:
            object.__setattr__(self, "area", pixels)
        elif self.area != pixels:
            raise ValueError(
                f"area {self.area} does not match mask foreground count {pixels}"
            )


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings. The COCO grid is fixed: ten IoU thresholds
    0.50:0.05:0.95 (0.50 and 0.75 are entries 0 and 5) and 101 recall points."""

    iou_thresholds: ClassVar[tuple[float, ...]] = (
        0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95
    )
    recall_points: ClassVar[tuple[float, ...]] = tuple(i / 100 for i in range(101))
    IOU_ON: ClassVar[tuple[str, ...]] = ("mask", "bbox")
    bucket_thresholds: tuple[float, float] = (SMALL_MEDIUM_SIDE, MEDIUM_LARGE_SIDE)
    max_detections_per_image: int = 100
    iou_on: str = "mask"

    def __post_init__(self) -> None:
        if self.iou_on not in self.IOU_ON:
            allowed = " or ".join(map(repr, self.IOU_ON))
            raise ValueError(f"iou_on must be {allowed}, got {self.iou_on!r}")
        if self.max_detections_per_image < 1:
            raise ValueError(
                f"max_detections_per_image must be at least 1, got {self.max_detections_per_image}"
            )


@dataclass
class MetricReport:
    """The metric table: overall mAP, the two fixed-threshold APs, and the
    size-bucket breakdowns. Undefined entries hold the -1 sentinel."""

    map: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float
    per_category: dict[int, float] = field(default_factory=dict)
    skipped_categories: tuple[int, ...] = ()

    # (label, attribute) of the headline metrics, in report order
    _HEADLINE: ClassVar[tuple[tuple[str, str], ...]] = (
        ("mAP", "map"), ("AP50", "ap50"), ("AP75", "ap75"),
        ("APs", "ap_small"), ("APm", "ap_medium"), ("APl", "ap_large"),
    )

    def to_dict(self) -> dict:
        return {
            **{label: getattr(self, attr) for label, attr in self._HEADLINE},
            "per_category": {str(k): v for k, v in sorted(self.per_category.items())},
            "skipped_categories": list(self.skipped_categories),
        }

    def to_text(self) -> str:
        lines = [f"{label:<7}{getattr(self, attr):.6f}" for label, attr in self._HEADLINE]
        for cat in sorted(self.per_category):
            lines.append(f"AP[category {cat}]  {self.per_category[cat]:.6f}")
        if self.skipped_categories:
            noted = ", ".join(str(c) for c in self.skipped_categories)
            lines.append(f"categories without ground truth (excluded): {noted}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def match_detections(ious: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy detection-to-ground-truth assignment.

    ``ious`` has one row per detection (rows ordered by descending score)
    and one column per ground truth. Each detection takes the still
    unmatched ground truth with the highest IoU at or above the threshold
    (ties toward the lowest index); the rest are false positives. Returns
    the matched column per row, -1 where unmatched.
    """
    ious = np.asarray(ious, dtype=np.float64)
    n_det, n_gt = ious.shape
    matches = np.full(n_det, -1, dtype=np.int64)
    taken = np.zeros(n_gt, dtype=bool)
    for d in range(n_det):
        best, best_iou = -1, iou_threshold
        for g in range(n_gt):
            if taken[g]:
                continue
            if ious[d, g] > best_iou or (best == -1 and ious[d, g] >= iou_threshold):
                best, best_iou = g, ious[d, g]
        if best >= 0:
            matches[d] = best
            taken[best] = True
    return matches


def average_precision(scores, tp_flags, n_gt: int) -> float:
    """Interpolated AP from per-detection labels.

    Detections are ranked by descending score (stable on ties); interpolated
    precision at recall r is the maximum precision at any recall >= r, and
    AP averages it over ``EvalConfig.recall_points``. With no ground truth
    the metric is undefined and the -1 sentinel is returned.
    """
    if n_gt == 0:
        return UNDEFINED
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(tp_flags, dtype=bool)
    if scores.shape != flags.shape:
        raise ValueError("scores and tp_flags must have identical shapes")
    if scores.size == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    flags = flags[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    best_ahead = np.maximum.accumulate(precision[::-1])[::-1]
    pts = np.asarray(EvalConfig.recall_points, dtype=np.float64)
    idx = np.searchsorted(recall, pts, side="left")
    sampled = np.where(idx < recall.size, best_ahead[np.minimum(idx, recall.size - 1)], 0.0)
    return float(sampled.mean())


def evaluate(
    gts: list[GroundTruthInstance],
    dets: list[Detection],
    cfg: EvalConfig | None = None,
) -> MetricReport:
    """Score detections against ground truth.

    Matching is greedy per image, category and IoU threshold; AP is computed
    per (category, threshold) pooling detections across images, and the
    report aggregates means over categories and thresholds. Categories with
    no ground truth are excluded from every mean and listed in the report.
    Deterministic: detections are ordered internally by score (ties by input
    position), so with distinct scores the result does not depend on input
    order.
    """
    cfg = cfg or EvalConfig()
    if cfg.iou_on == "mask" and any(det.mask is None for det in dets):
        raise ValueError("mask IoU requested but a detection has no mask")

    cats = sorted({g.category_id for g in gts})
    cat_pos = {c: i for i, c in enumerate(cats)}
    skipped = tuple(sorted({d.category_id for d in dets if d.category_id not in cat_pos}))
    buckets = (SizeBucket.SMALL, SizeBucket.MEDIUM, SizeBucket.LARGE)

    def code(area) -> int:
        return buckets.index(size_bucket(area, cfg.bucket_thresholds))

    # ground-truth positions per (image, category), and counts per (category, bucket)
    gt_groups: dict[tuple[int, int], list[int]] = {}
    for j, gt in enumerate(gts):
        gt_groups.setdefault((gt.image_id, gt.category_id), []).append(j)
    gt_code = np.array([code(gt.area) for gt in gts], dtype=np.int64)
    gt_cat = np.array([cat_pos[gt.category_id] for gt in gts], dtype=np.int64)
    n_gt = np.zeros((len(cats), len(buckets)), dtype=np.int64)
    np.add.at(n_gt, (gt_cat, gt_code), 1)

    score = np.array([d.score for d in dets], dtype=np.float64)
    cat_of = np.array([cat_pos.get(d.category_id, -1) for d in dets], dtype=np.int64)
    # a detection's bucket area: mask pixels when it has a mask, box area otherwise
    det_code = np.array(
        [code(d.bbox.area if d.mask is None else d.mask.area) for d in dets], dtype=np.int64
    )
    empty = np.zeros(0, dtype=np.int64)

    # input positions per (image, category), ranked once: score descending, ties by position
    det_groups: dict[tuple[int, int], list[int]] = {}
    for idx in np.argsort(-score, kind="stable").tolist():
        if cat_of[idx] >= 0:
            det_groups.setdefault((dets[idx].image_id, dets[idx].category_id), []).append(idx)
    # ``iou_on`` names the compared attribute, "mask" or "bbox"
    overlap = rle_iou_matrix if cfg.iou_on == "mask" else box_iou_matrix

    # one visit per group: its IoU matrix, matched at every threshold. A
    # matched detection is a TP in its ground truth's bucket, an unmatched
    # one an FP in its own; row t of ``tp`` and ``bucket_of`` is threshold t
    tp = np.zeros((len(cfg.iou_thresholds), len(dets)), dtype=bool)
    bucket_of = np.tile(det_code, (len(cfg.iou_thresholds), 1))
    kept_by_group = [empty]
    for key in sorted(det_groups):
        idx = np.array(det_groups[key][: cfg.max_detections_per_image])
        gt_idx = gt_groups.get(key, empty)
        ious = overlap(
            [getattr(dets[i], cfg.iou_on) for i in idx],
            [getattr(gts[j], cfg.iou_on) for j in gt_idx],
        )
        for t, thr in enumerate(cfg.iou_thresholds):
            g = match_detections(ious, thr)
            hit = g >= 0
            tp[t, idx[hit]] = True
            bucket_of[t, idx[hit]] = gt_code[gt_idx][g[hit]]
        kept_by_group.append(idx)

    # pooled order per category: score descending, ties by image (the key
    # order of the groups) then input position
    kept = np.concatenate(kept_by_group)
    order = kept[np.argsort(-score[kept], kind="stable")]
    pooled_by_cat = [order[cat_of[order] == c] for c in range(len(cats))]

    # AP per (category, threshold, restriction): restriction 0 is all sizes,
    # 1 + b the size bucket b
    ap = np.zeros((len(cats), len(cfg.iou_thresholds), 1 + len(buckets)))
    for t in range(len(cfg.iou_thresholds)):
        for c, pooled in enumerate(pooled_by_cat):
            scores, flags, codes = score[pooled], tp[t, pooled], bucket_of[t, pooled]
            ap[c, t, 0] = average_precision(scores, flags, int(n_gt[c].sum()))
            for b in range(len(buckets)):
                sel = codes == b
                ap[c, t, 1 + b] = average_precision(scores[sel], flags[sel], int(n_gt[c, b]))

    def _mean(cells: np.ndarray) -> float:
        # C-order flattening keeps the summation order category-major
        return float(np.mean(cells.ravel())) if cells.size else UNDEFINED

    has_gt = n_gt > 0
    return MetricReport(
        map=_mean(ap[:, :, 0]),
        ap50=_mean(ap[:, 0, 0]),
        ap75=_mean(ap[:, 5, 0]),
        ap_small=_mean(ap[has_gt[:, 0], :, 1]),
        ap_medium=_mean(ap[has_gt[:, 1], :, 2]),
        ap_large=_mean(ap[has_gt[:, 2], :, 3]),
        per_category={c: _mean(ap[i, :, 0]) for i, c in enumerate(cats)},
        skipped_categories=skipped,
    )
