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
from .core import BBox, RleMask, SizeBucket, _box_ious, _bucket_codes, rle_iou_matrix
from .fusion import Detection, _Columns

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
    """An annotated instance."""

    image_id: int
    category_id: int
    mask: RleMask
    bbox: BBox

    @property
    def area(self) -> int:
        """The mask's foreground pixel count."""
        return self.mask.area


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
    # a row with no value at or above the threshold (NaN included) never matches
    for d in np.flatnonzero((ious >= iou_threshold).any(axis=1)).tolist():
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
    Deterministic: detections are ranked once by score, ties by image id and
    then input position, so with distinct scores the result does not depend
    on input order.
    """
    cfg = cfg or EvalConfig()
    cols = dets if isinstance(dets, _Columns) else _Columns.of(dets)  # ``eval`` passes its table
    if cfg.iou_on == "mask" and any(mask is None for mask in cols.mask):
        raise ValueError("mask IoU requested but a detection has no mask")

    cats = sorted({g.category_id for g in gts})
    cat_pos = {c: i for i, c in enumerate(cats)}
    skipped = tuple(sorted({c for c in cols.category_id if c not in cat_pos}))

    # ground-truth positions per (image, category), and counts per (category, bucket)
    gt_groups: dict[tuple[int, int], list[int]] = {}
    for j, gt in enumerate(gts):
        gt_groups.setdefault((gt.image_id, gt.category_id), []).append(j)
    gt_code = _bucket_codes([gt.area for gt in gts], cfg.bucket_thresholds)
    gt_cat = np.array([cat_pos[gt.category_id] for gt in gts], dtype=np.int64)
    n_gt = np.zeros((len(cats), len(SizeBucket)), dtype=np.int64)
    np.add.at(n_gt, (gt_cat, gt_code), 1)

    score_of = cols.score.tolist()
    cat_of = [cat_pos.get(c, -1) for c in cols.category_id]
    # a detection's bucket area: mask pixels when it has a mask, box area otherwise
    areas = [w * h if mask is None else mask.area for (*_, w, h), mask in zip(cols.box.tolist(), cols.mask)]
    det_code = _bucket_codes(areas, cfg.bucket_thresholds)

    # one ranking, as the reference's ``accumulate`` pools: score descending,
    # then image id (compared as the int it is), then input position. Each
    # group keeps its first ``max_detections_per_image``, pooled per category
    det_groups: dict[tuple[int, int], list[int]] = {}
    pooled_by_cat: list[list[int]] = [[] for _ in cats]
    for i in sorted(range(len(cols)), key=lambda i: (-score_of[i], cols.image_id[i])):
        if cat_of[i] >= 0:
            members = det_groups.setdefault((cols.image_id[i], cols.category_id[i]), [])
            if len(members) < cfg.max_detections_per_image:
                members.append(i)
                pooled_by_cat[cat_of[i]].append(i)
    # ``iou_on`` names the compared column, "mask" or "bbox": boxes as (n, 4) arrays
    gt_boxes = np.array([gt.bbox.to_list() for gt in gts]).reshape(-1, 4) if cfg.iou_on == "bbox" else None

    # one visit per group: its IoU matrix, matched at every threshold;
    # ``matched[t, d]`` is the ground truth detection d takes at threshold t, or -1
    matched = np.full((len(cfg.iou_thresholds), len(cols)), -1, dtype=np.int64)
    for key, members in det_groups.items():
        idx = np.array(members)
        gt_idx = np.array(gt_groups.get(key, []), dtype=np.int64)
        if cfg.iou_on == "mask":
            ious = rle_iou_matrix([cols.mask[i] for i in members], [gts[j].mask for j in gt_idx])
        else:
            ious = _box_ious(cols.box[idx], gt_boxes[gt_idx])
        g = np.array([match_detections(ious, thr) for thr in cfg.iou_thresholds])
        t, col = np.nonzero(g >= 0)
        matched[t, idx[col]] = gt_idx[g[t, col]]

    # a matched detection is a TP in its ground truth's bucket, an unmatched
    # one an FP in its own; row t of ``tp`` and ``bucket_of`` is threshold t
    tp = matched >= 0
    bucket_of = np.tile(det_code, (len(cfg.iou_thresholds), 1))
    bucket_of[tp] = gt_code[matched[tp]]

    # AP per (category, threshold, restriction): restriction 0 is all sizes,
    # 1 + b the size bucket b
    ap = np.zeros((len(cats), len(cfg.iou_thresholds), 1 + len(SizeBucket)))
    for c, pooled in enumerate(pooled_by_cat):
        scores, flags, codes = cols.score[pooled], tp[:, pooled], bucket_of[:, pooled]
        for t in range(len(cfg.iou_thresholds)):
            ap[c, t, 0] = average_precision(scores, flags[t], int(n_gt[c].sum()))
            for b in range(len(SizeBucket)):
                sel = codes[t] == b
                ap[c, t, 1 + b] = average_precision(scores[sel], flags[t, sel], int(n_gt[c, b]))

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
