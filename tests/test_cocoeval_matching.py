"""The greedy matching loop of the COCO reference evaluator against
``match_detections``.

``evaluate_img_matches`` transcribes the matching loop of cocoapi's
``COCOeval.evaluateImg`` (Lin et al. 2014) without crowd regions or ignore
flags, which maskpost does not have. The two agree wherever no row of the
IoU matrix repeats a value. On an exact tie they differ: the reference
replaces its match when ``ious[d, g] >= best``, so the later ground truth
wins, while ``match_detections`` keeps the lowest index.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from maskpost import (
    BBox,
    Detection,
    EvalConfig,
    GroundTruthInstance,
    average_precision,
    box_iou_matrix,
    evaluate,
    match_detections,
    rle_encode,
)


def evaluate_img_matches(ious, iou_threshold):
    """cocoapi's ``dtMatches`` row for one threshold, as ground-truth
    positions (-1 where unmatched); rows of ``ious`` are in score order."""
    n_det, n_gt = ious.shape
    taken = [False] * n_gt
    matches = [-1] * n_det
    for d in range(n_det):
        iou = min(iou_threshold, 1 - 1e-10)
        m = -1
        for g in range(n_gt):
            if taken[g]:
                continue
            if ious[d, g] < iou:
                continue
            iou, m = ious[d, g], g
        if m == -1:
            continue
        taken[m] = True
        matches[d] = m
    return matches


# quarter steps and the thresholds themselves are likely values, so a row
# often holds one exactly at a threshold
iou_values = st.sampled_from([0.0, 0.25, 0.5, 0.55, 0.75, 0.95, 1.0]) | st.floats(0.0, 1.0)


@given(st.data())
def test_matching_equals_the_reference_when_no_row_repeats_a_value(data):
    n_det, n_gt = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 6))
    rows = data.draw(
        st.lists(
            st.lists(iou_values, min_size=n_gt, max_size=n_gt, unique=True),
            min_size=n_det,
            max_size=n_det,
        )
    )
    ious = np.array(rows, dtype=np.float64).reshape(n_det, n_gt)
    for thr in EvalConfig.iou_thresholds:
        assert match_detections(ious, thr).tolist() == evaluate_img_matches(ious, thr)


def _instance(box, width=16, height=10):
    bits = np.zeros((height, width), dtype=bool)
    x, y, w, h = box
    bits[y : y + h, x : x + w] = True
    return rle_encode(bits), BBox(*map(float, box))


def test_an_exact_iou_tie_goes_to_the_lower_index_not_the_later_ground_truth():
    truth = [_instance([0, 0, 10, 10]), _instance([2, 0, 10, 10])]
    a = Detection(1, 1, 0.9, BBox(1.0, 0.0, 10.0, 10.0))  # IoU 9/11 with both
    b = Detection(1, 1, 0.8, BBox(4.0, 0.0, 10.0, 10.0))  # 2/3 with gt1, 3/7 with gt0
    ious = box_iou_matrix([a.bbox, b.bbox], [box for _, box in truth])
    assert ious[0, 0] == ious[0, 1] == 9 / 11
    assert ious[1].tolist() == [3 / 7, 2 / 3]

    assert match_detections(ious, 0.5).tolist() == [0, 1]
    assert evaluate_img_matches(ious, 0.5) == [1, -1]

    gts = [GroundTruthInstance(1, 1, mask, box) for mask, box in truth]
    report = evaluate(gts, [a, b], EvalConfig(iou_on="bbox"))
    assert report.ap50 == 1.0
    # the reference's matches would leave b a false positive at recall 1/2
    assert average_precision([0.9, 0.8], [True, False], 2) == 51 / 101


def test_an_iou_just_below_0_9_matches_at_the_reference_ninth_threshold_only():
    """cocoapi's ``iouThrs`` are ``np.linspace(.5, .95, 10)``, whose ninth
    entry is 0.8999999999999999; maskpost's is the literal 0.9."""
    reference_ninth = np.linspace(0.5, 0.95, 10)[8]
    assert reference_ninth == 0.8999999999999999 < EvalConfig.iou_thresholds[8] == 0.9
    mask, box = _instance([0, 0, 1, 1])
    det = Detection(1, 1, 0.9, BBox(0.0, 0.0, 0.8999999999999999, 1.0))
    ious = box_iou_matrix([det.bbox], [box])
    assert ious[0, 0] == 0.8999999999999999

    assert evaluate_img_matches(ious, reference_ninth) == [0]
    assert match_detections(ious, 0.9).tolist() == [-1]

    report = evaluate([GroundTruthInstance(1, 1, mask, box)], [det], EvalConfig(iou_on="bbox"))
    assert report.map == 0.8  # matched at the first eight thresholds
    reference = [
        average_precision([0.9], [evaluate_img_matches(ious, thr) == [0]], 1)
        for thr in np.linspace(0.5, 0.95, 10)
    ]
    assert np.mean(reference) == 0.9  # and at nine
