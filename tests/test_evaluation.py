from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maskpost import (
    Detection,
    EvalConfig,
    GroundTruthInstance,
    MetricReport,
    average_precision,
    evaluate,
    mask_bbox,
    match_detections,
    rle_encode,
)
from oracles import ap_bruteforce, evaluate_bruteforce


def _mask(rows, cols, h=12, w=12):
    bits = np.zeros((h, w), dtype=bool)
    bits[rows, cols] = True
    return bits


def _gt(image_id=1, category_id=1, bits=None):
    bits = _mask(slice(2, 8), slice(2, 8)) if bits is None else bits
    return GroundTruthInstance(
        image_id=image_id,
        category_id=category_id,
        mask=rle_encode(bits),
        bbox=mask_bbox(bits),
    )


def _det(image_id=1, category_id=1, score=0.9, bits=None):
    bits = _mask(slice(2, 8), slice(2, 8)) if bits is None else bits
    return Detection(
        image_id=image_id,
        category_id=category_id,
        score=score,
        bbox=mask_bbox(bits),
        mask=rle_encode(bits),
    )


def random_micro_case(rng):
    """A tiny random eval problem spanning all three size buckets."""
    n_images = int(rng.integers(1, 6))
    n_cats = int(rng.integers(1, 4))
    gts, dets = [], []
    for img in range(1, n_images + 1):
        for _ in range(int(rng.integers(0, 4))):
            bits = rng.random((20, 20)) < rng.uniform(0.05, 0.6)
            gts.append(
                GroundTruthInstance(
                    image_id=img,
                    category_id=int(rng.integers(1, n_cats + 1)),
                    mask=rle_encode(bits),
                    bbox=mask_bbox(bits),
                )
            )
        for _ in range(int(rng.integers(0, 5))):
            bits = rng.random((20, 20)) < rng.uniform(0.05, 0.6)
            dets.append(
                Detection(
                    image_id=img,
                    category_id=int(rng.integers(1, n_cats + 1)),
                    score=float(rng.random()),
                    bbox=mask_bbox(bits),
                    mask=rle_encode(bits),
                )
            )
    cfg = EvalConfig(
        bucket_thresholds=(6, 12),
        iou_on="mask" if rng.random() < 0.7 else "bbox",
        max_detections_per_image=int(rng.integers(2, 6)),
    )
    return gts, dets, cfg


def assert_matches_oracle(gts, dets, cfg, tol=1e-10):
    report = evaluate(gts, dets, cfg)
    ref = evaluate_bruteforce(gts, dets, cfg)
    assert report.map == pytest.approx(ref["mAP"], abs=tol)
    assert report.ap50 == pytest.approx(ref["AP50"], abs=tol)
    assert report.ap75 == pytest.approx(ref["AP75"], abs=tol)
    assert report.ap_small == pytest.approx(ref["APs"], abs=tol)
    assert report.ap_medium == pytest.approx(ref["APm"], abs=tol)
    assert report.ap_large == pytest.approx(ref["APl"], abs=tol)
    assert set(report.per_category) == set(ref["per_category"])
    for cat, value in ref["per_category"].items():
        assert report.per_category[cat] == pytest.approx(value, abs=tol)


class TestEvalConfig:
    def test_coco_grid_is_fixed(self):
        cfg = EvalConfig()
        assert [f.name for f in fields(EvalConfig)] == [
            "bucket_thresholds",
            "max_detections_per_image",
            "iou_on",
        ]
        assert cfg.iou_thresholds == tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
        assert cfg.recall_points == tuple(i / 100 for i in range(101))
        assert cfg.bucket_thresholds == (113, 256)
        with pytest.raises(TypeError):
            EvalConfig(iou_thresholds=(0.5,))
        with pytest.raises(TypeError):
            EvalConfig(recall_points=(0.0, 1.0))


class TestMatchDetections:
    def test_perfect_match(self):
        assert match_detections(np.array([[1.0]]), 0.5).tolist() == [0]

    def test_greedy_keeps_first(self):
        # both detections hit the single gt; the higher-ranked row wins
        ious = np.array([[0.9], [0.8]])
        assert match_detections(ious, 0.5).tolist() == [0, -1]

    def test_takes_highest_iou_gt(self):
        ious = np.array([[0.6, 0.8]])
        assert match_detections(ious, 0.5).tolist() == [1]

    def test_below_threshold_unmatched(self):
        assert match_detections(np.array([[0.4]]), 0.5).tolist() == [-1]

    def test_exactly_threshold_matches(self):
        assert match_detections(np.array([[0.5]]), 0.5).tolist() == [0]

    def test_second_best_falls_back(self):
        # row 0 takes gt 0 (0.9); row 1's best remaining is gt 1 at 0.2 < thr
        ious = np.array([[0.9, 0.85], [0.88, 0.2]])
        assert match_detections(ious, 0.5).tolist() == [0, -1]


def match_every_row(ious, iou_threshold):
    """``match_detections`` visiting every row, unmatched ones included."""
    matches, taken = [-1] * len(ious), set()
    for d, row in enumerate(ious.tolist()):
        best, best_iou = -1, iou_threshold
        for g, iou in enumerate(row):
            if g not in taken and (iou > best_iou or (best == -1 and iou >= iou_threshold)):
                best, best_iou = g, iou
        if best >= 0:
            matches[d] = best
            taken.add(best)
    return matches


# quarter steps make ties with each other and with the thresholds likely
iou_values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, float("nan")]) | st.floats(0.0, 1.0)


@given(st.data(), st.sampled_from([0.25, 0.5, 0.75, 0.95]))
def test_match_detections_equals_every_row(data, iou_threshold):
    n_det, n_gt = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 6))
    values = data.draw(st.lists(iou_values, min_size=n_det * n_gt, max_size=n_det * n_gt))
    ious = np.array(values, dtype=np.float64).reshape(n_det, n_gt)
    assert match_detections(ious, iou_threshold).tolist() == match_every_row(ious, iou_threshold)


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([0.9], [True], 1) == 1.0

    def test_fp_then_tp(self):
        assert average_precision([0.9, 0.8], [False, True], 1) == pytest.approx(0.5, abs=1e-12)

    def test_no_detections(self):
        assert average_precision([], [], 1) == 0.0

    def test_no_ground_truth_sentinel(self):
        assert average_precision([0.9], [True], 0) == -1.0

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(7)
        points = EvalConfig().recall_points
        for _ in range(100):
            n = int(rng.integers(1, 12))
            scores = rng.random(n).tolist()
            flags = (rng.random(n) < 0.5).tolist()
            n_gt = int(rng.integers(1, 8))
            ours = average_precision(scores, flags, n_gt)
            ref = ap_bruteforce(scores, flags, n_gt, points)
            assert ours == pytest.approx(ref, abs=1e-12)


class TestEvaluate:
    def test_perfect_detections(self):
        gts = [_gt(image_id=i, category_id=c) for i in (1, 2) for c in (1, 2)]
        dets = [_det(image_id=i, category_id=c) for i in (1, 2) for c in (1, 2)]
        report = evaluate(gts, dets)
        assert report.map == 1.0
        assert report.ap50 == 1.0
        assert report.ap75 == 1.0
        assert report.ap_small == 1.0  # 36 px masks, all small
        assert report.ap_medium == -1.0
        assert report.ap_large == -1.0
        assert report.per_category == {1: 1.0, 2: 1.0}

    def test_no_detections(self):
        report = evaluate([_gt()], [])
        assert report.map == 0.0

    def test_detection_order_invariance(self):
        rng = np.random.default_rng(11)
        gts, dets, cfg = random_micro_case(rng)
        report_a = evaluate(gts, dets, cfg)
        report_b = evaluate(gts, list(reversed(dets)), cfg)
        assert report_a.map == report_b.map
        assert report_a.per_category == report_b.per_category

    @given(st.data())
    def test_permutation_invariance(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gts, dets, cfg = random_micro_case(rng)
        # scores from a coarse grid: ties across images and categories, none
        # within one (image, category) group, where input order breaks them
        groups = {}
        for i, det in enumerate(dets):
            groups.setdefault((det.image_id, det.category_id), []).append(i)
        grid = st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0])
        for members in groups.values():
            scores = data.draw(st.lists(grid, min_size=len(members), max_size=len(members), unique=True))
            for i, score in zip(members, scores):
                dets[i] = replace(dets[i], score=score)
        shuffled = data.draw(st.permutations(dets))
        assert evaluate(gts, shuffled, cfg) == evaluate(gts, dets, cfg)

    def test_low_score_zero_iou_fp_never_raises_ap(self):
        gts = [_gt(image_id=1), _gt(image_id=2)]
        dets = [_det(image_id=1, score=0.9), _det(image_id=2, score=0.8)]
        base = evaluate(gts, dets).map
        junk = _det(image_id=1, score=0.01, bits=_mask(slice(9, 11), slice(9, 11)))
        with_fp = evaluate(gts, dets + [junk]).map
        assert with_fp <= base

    def test_removing_tp_never_raises_ap(self):
        gts = [_gt(image_id=1), _gt(image_id=2)]
        dets = [_det(image_id=1, score=0.9), _det(image_id=2, score=0.8)]
        assert evaluate(gts, dets[:1]).map <= evaluate(gts, dets).map

    def test_map_between_category_extremes(self):
        gts = [_gt(category_id=1), _gt(category_id=2)]
        dets = [_det(category_id=1, score=0.9)]  # category 2 missed entirely
        report = evaluate(gts, dets)
        lo = min(report.per_category.values())
        hi = max(report.per_category.values())
        assert lo <= report.map <= hi

    def test_skipped_category_noted(self):
        report = evaluate([_gt(category_id=1)], [_det(category_id=9, score=0.5)])
        assert report.skipped_categories == (9,)

    def test_single_bucket_gt_others_sentinel(self):
        big = _mask(slice(0, 20), slice(0, 20), h=20, w=20)  # 400 px
        gts = [
            GroundTruthInstance(1, 1, rle_encode(big), mask_bbox(big)),
        ]
        dets = [Detection(1, 1, 0.9, mask_bbox(big), rle_encode(big))]
        cfg = EvalConfig(bucket_thresholds=(6, 12))  # 400 > 144 -> large
        report = evaluate(gts, dets, cfg)
        assert report.ap_large == 1.0
        assert report.ap_small == -1.0
        assert report.ap_medium == -1.0

    @pytest.mark.parametrize("iou_on", ["mask", "bbox"])
    def test_repeated_object_scores_as_an_equal_copy(self, iou_on):
        # detections are told apart by position: one object listed twice is
        # two detections, and the second is a false positive
        gts = [_gt(image_id=1), _gt(image_id=2)]
        dets = [_det(image_id=1, score=0.9), _det(image_id=2, score=0.8)]
        cfg = EvalConfig(iou_on=iou_on)
        twice = evaluate(gts, dets + [dets[0]], cfg)
        assert twice == evaluate(gts, dets + [replace(dets[0])], cfg)
        assert twice.map < evaluate(gts, dets, cfg).map

    def test_area_is_the_mask_pixel_count(self):
        bits = _mask(slice(0, 2), slice(0, 3))
        gt = GroundTruthInstance(1, 1, rle_encode(bits), mask_bbox(bits))
        assert [f.name for f in fields(gt)] == ["image_id", "category_id", "mask", "bbox"]
        assert gt.area == gt.mask.area == 6
        with pytest.raises(TypeError):
            GroundTruthInstance(1, 1, rle_encode(bits), mask_bbox(bits), area=6)
        with pytest.raises(AttributeError):
            gt.area = 6

    def test_oracle_agreement_random_sample(self):
        rng, grid = np.random.default_rng(2024), np.random.default_rng(7)
        shift = 2**70  # image ids past the int64 range compare as the ints they are
        for _ in range(60):
            gts, dets, cfg = random_micro_case(rng)
            assert_matches_oracle(gts, dets, cfg)
            # scores from a coarse grid: ties cross images and fall at the max-dets cut
            tied = [replace(d, score=float(grid.choice([0.25, 0.5, 0.75]))) for d in dets]
            assert_matches_oracle(gts, tied, cfg)
            assert_matches_oracle(
                [replace(g, image_id=g.image_id + shift) for g in gts],
                [replace(d, image_id=d.image_id + shift) for d in tied],
                cfg,
            )

    @pytest.mark.parametrize("order", [1, -1])
    def test_score_tie_across_images_goes_to_the_lower_image_id(self, order):
        # the false positive on image 1 ranks before the true positive on
        # image 2 in either input order, so precision at full recall is 1/2
        far = _mask(slice(9, 11), slice(9, 11))
        gts = [_gt(image_id=2)]
        dets = [_det(image_id=1, score=0.5, bits=far), _det(image_id=2, score=0.5)]
        assert evaluate(gts, dets[::order]).map == 0.5

    def test_report_bytes(self):
        report = MetricReport(
            map=0.5, ap50=0.75, ap75=0.25, ap_small=-1.0, ap_medium=0.125, ap_large=1.0,
            per_category={3: 0.5, 1: 0.25}, skipped_categories=(7,),
        )
        assert report.to_text() == (
            "mAP    0.500000\n"
            "AP50   0.750000\n"
            "AP75   0.250000\n"
            "APs    -1.000000\n"
            "APm    0.125000\n"
            "APl    1.000000\n"
            "AP[category 1]  0.250000\n"
            "AP[category 3]  0.500000\n"
            "categories without ground truth (excluded): 7\n"
        )
        assert report.to_json() == (
            '{\n'
            '  "AP50": 0.75,\n'
            '  "AP75": 0.25,\n'
            '  "APl": 1.0,\n'
            '  "APm": 0.125,\n'
            '  "APs": -1.0,\n'
            '  "mAP": 0.5,\n'
            '  "per_category": {\n'
            '    "1": 0.25,\n'
            '    "3": 0.5\n'
            '  },\n'
            '  "skipped_categories": [\n'
            '    7\n'
            '  ]\n'
            '}\n'
        )

    def test_report_serialization(self):
        report = evaluate([_gt()], [_det()])
        text = report.to_text()
        assert "mAP" in text and "1.000000" in text
        data = report.to_dict()
        assert data["mAP"] == 1.0
