"""Constructed multi-model scenario with complementary per-image errors.

Three models cover six single-instance images; each model misplaces its
detection on a disjoint pair of images (zero IoU with the truth) while the
other two stay correct, so pooling plus soft-NMS recovers every instance.
Wrong detections always score below correct ones, and every score is
distinct, keeping the arithmetic tie-free. ``pad_value`` respells a
compressed counts string as no encoder writes it.
"""
from __future__ import annotations

import numpy as np

from maskpost import BBox, Detection, GroundTruthInstance, ModelCandidate, rle_encode

CANVAS = 24
N_IMAGES = 6


def _square_mask(row0: int, col0: int, side: int) -> np.ndarray:
    mask = np.zeros((CANVAS, CANVAS), dtype=bool)
    mask[row0 : row0 + side, col0 : col0 + side] = True
    return mask


GOOD_MASK = _square_mask(4, 4, 8)
BAD_MASK = _square_mask(14, 14, 8)
GOOD_BBOX = BBox(4.0, 4.0, 8.0, 8.0)
BAD_BBOX = BBox(14.0, 14.0, 8.0, 8.0)


def good_score(image_id: int) -> float:
    return 0.70 + 0.02 * image_id


def bad_score(image_id: int) -> float:
    return 0.50 + 0.01 * image_id


def build_ground_truth() -> list[GroundTruthInstance]:
    return [
        GroundTruthInstance(
            image_id=img,
            category_id=1,
            mask=rle_encode(GOOD_MASK),
            bbox=GOOD_BBOX,
        )
        for img in range(1, N_IMAGES + 1)
    ]


def build_models() -> list[ModelCandidate]:
    models = []
    for m in range(3):
        bad_images = {2 * m + 1, 2 * m + 2}
        dets = []
        for img in range(1, N_IMAGES + 1):
            if img in bad_images:
                dets.append(
                    Detection(
                        image_id=img,
                        category_id=1,
                        score=bad_score(img),
                        bbox=BAD_BBOX,
                        mask=rle_encode(BAD_MASK),
                    )
                )
            else:
                dets.append(
                    Detection(
                        image_id=img,
                        category_id=1,
                        score=good_score(img),
                        bbox=GOOD_BBOX,
                        mask=rle_encode(GOOD_MASK),
                    )
                )
        models.append(
            ModelCandidate(model_id=f"m{m}", validation_score=60.0 + m, detections=dets)
        )
    return models


def pad_value(counts: str, j: int) -> str:
    """The compressed counts string ``counts`` with its ``j``-th value (``j``
    taken modulo the number of values) spelled one character longer: its
    last character gets the continuation flag, and a new last character only
    sign-extends it, so the value is unchanged but no encoder writes it so."""
    ends = [k for k, ch in enumerate(counts) if (ord(ch) - 48) & 0x20 == 0]
    k = ends[j % len(ends)]
    chunk = ord(counts[k]) - 48
    extension = 0x1F if chunk & 0x10 else 0
    return counts[:k] + chr(48 + (chunk | 0x20)) + chr(48 + extension) + counts[k + 1 :]
