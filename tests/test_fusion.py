import math
import re
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpost import (
    BBox,
    Detection,
    EnsembleConfig,
    ModelCandidate,
    SoftNmsConfig,
    apply_weights,
    cluster_merge_masks,
    ensemble,
    linear_interpolation_weights,
    linear_reweight_weights,
    model_weights,
    rle_bbox,
    rle_decode,
    rle_encode,
    rle_iou,
    soft_nms,
)
from maskpost import core
from oracles import classic_nms, rect_iou

CANDIDATE_SCORES = [76.95, 77.21, 77.32, 77.37, 77.38]


def reference_soft_nms(dets, cfg):
    """Soft-NMS as one Python loop over (kept, live) pairs: scalar IoU, scalar
    decay, ties to the lexically first source model, then input position."""

    def decay(iou):
        if cfg.method == "gaussian":
            return float(np.exp(-(iou * iou) / cfg.sigma))
        if cfg.method == "linear":
            return max(1.0 - iou, 0.0) if iou > cfg.iou_threshold else 1.0
        return 0.0 if iou > cfg.iou_threshold else 1.0

    def overlap(a, b):
        if not cfg.use_mask_iou:
            return rect_iou(a.bbox, b.bbox)
        if rect_iou(rle_bbox(a.mask), rle_bbox(b.mask)) == 0.0:
            return 0.0
        return rle_iou(a.mask, b.mask)

    groups = {}
    for idx, det in enumerate(dets):
        key = (det.image_id, det.category_id) if cfg.per_category else (det.image_id,)
        groups.setdefault(key, []).append([det.score, det, det.source_model or "", idx])
    out = []
    for key in sorted(groups):
        live = groups[key]
        while live:
            best = min(live, key=lambda rec: (-rec[0], rec[2], rec[3]))
            live.remove(best)
            score, det = best[0], best[1]
            out.append(det if det.score == score else replace(det, score=score))
            for rec in live:
                rec[0] *= decay(overlap(det, rec[1]))
            live = [rec for rec in live if rec[0] >= cfg.score_floor]
    out.sort(key=lambda d: (-d.score, d.image_id, d.category_id, d.source_model or ""))
    return out


def reference_reweight(scores, theta_min, theta_max):
    """Rank weights as a stable argsort and a loop giving each run of tied
    scores the mean of its positions."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    if n == 1:
        return np.array([theta_max])
    ranks = np.empty(n, dtype=np.float64)
    ranks[np.argsort(s, kind="stable")] = np.arange(n, dtype=np.float64)
    for value in np.unique(s):
        tied = s == value
        if np.count_nonzero(tied) > 1:
            ranks[tied] = ranks[tied].mean()
    return theta_min + (theta_max - theta_min) * ranks / (n - 1)


@st.composite
def nms_cases(draw):
    """Small groups on a 10x10 image: integer boxes, masks drawn apart from
    the boxes (so box and mask overlap disagree), a coarse score grid so
    ties are likely, and every method on boxes and on masks."""
    coord, side = st.integers(0, 4), st.integers(1, 4)
    dets = []
    for _ in range(draw(st.integers(1, 10))):
        bits = np.zeros((10, 10), dtype=bool)
        for _ in range(draw(st.integers(0, 2))):
            y, x, h, w = draw(coord), draw(coord), draw(side), draw(side)
            bits[y : y + h, x : x + w] = True
        dets.append(
            _det(
                image_id=draw(st.integers(1, 2)),
                category_id=draw(st.integers(1, 2)),
                score=draw(st.sampled_from([0.1, 0.4, 0.7, 1.0])),
                box=(draw(coord), draw(coord), draw(side), draw(side)),
                mask=rle_encode(bits),
                source=draw(st.sampled_from(["a", "b", None])),
            )
        )
    cfg = SoftNmsConfig(
        method=draw(st.sampled_from(["gaussian", "linear", "hard"])),
        sigma=draw(st.sampled_from([0.1, 0.5, 2.0])),
        iou_threshold=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        score_floor=draw(st.sampled_from([-math.inf, 0.0, 0.001, 0.1, 0.3])),
        per_category=draw(st.booleans()),
        use_mask_iou=draw(st.booleans()),
    )
    return dets, cfg


def _det(image_id=1, category_id=1, score=0.9, box=(0, 0, 10, 10), mask=None, source=None):
    return Detection(
        image_id=image_id,
        category_id=category_id,
        score=score,
        bbox=BBox(*box),
        mask=mask,
        source_model=source,
    )


class TestLinearInterpolationWeights:
    def test_candidate_scores_hit_endpoints(self):
        w = linear_interpolation_weights(CANDIDATE_SCORES, 0.6, 1.0)
        assert w[0] == 0.6
        assert w[-1] == 1.0

    def test_interior_value(self):
        w = linear_interpolation_weights(CANDIDATE_SCORES, 0.6, 1.0)
        assert abs(w[1] - (0.6 + 0.4 * 0.26 / 0.43)) < 1e-12

    def test_affine_in_scores(self):
        w = linear_interpolation_weights(CANDIDATE_SCORES, 0.6, 1.0)
        lo, hi = min(CANDIDATE_SCORES), max(CANDIDATE_SCORES)
        for s, weight in zip(CANDIDATE_SCORES, w):
            assert abs(weight - (0.6 + 0.4 * (s - lo) / (hi - lo))) < 1e-12

    def test_degenerate_all_equal(self):
        assert linear_interpolation_weights([7.0, 7.0, 7.0]).tolist() == [1.0, 1.0, 1.0]

    def test_single_model(self):
        assert linear_interpolation_weights([55.0]).tolist() == [1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linear_interpolation_weights([])

    def test_monotone(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(50, 90, size=8)
        w = linear_interpolation_weights(s)
        order = np.argsort(s)
        assert (np.diff(w[order]) >= 0).all()


class TestLinearReweightWeights:
    def test_even_spacing(self):
        assert linear_reweight_weights([1, 2, 3], 0.6, 1.0).tolist() == [0.6, 0.8, 1.0]

    def test_single(self):
        assert linear_reweight_weights([5], 0.6, 1.0).tolist() == [1.0]

    def test_tie_shares_mean_rank(self):
        assert linear_reweight_weights([2, 2], 0.6, 1.0).tolist() == [0.8, 0.8]

    def test_order_follows_input(self):
        w = linear_reweight_weights([3, 1, 2], 0.6, 1.0)
        assert w.tolist() == [1.0, 0.6, 0.8]

    def test_monotone(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0, 10, size=7)
        w = linear_reweight_weights(s)
        order = np.argsort(s)
        assert (np.diff(w[order]) >= 0).all()

    @settings(max_examples=300)
    @given(
        st.lists(
            st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, 1.0, 77.3]),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([(0.6, 1.0), (0.0, 1.0), (0.25, 0.25), (-3.0, 7.5), (1e-300, 0.1)]),
    )
    def test_equals_the_argsort_tie_loop(self, scores, thetas):
        assert linear_reweight_weights(scores, *thetas).tobytes() == reference_reweight(
            scores, *thetas
        ).tobytes()


@pytest.mark.parametrize("weights", [linear_interpolation_weights, linear_reweight_weights])
class TestModelScoreCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, weights, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            weights([bad, 1.0, 2.0])

    @pytest.mark.parametrize("scores", [[], [[1.0, 2.0]], 3.0])
    def test_not_a_non_empty_list_rejected(self, weights, scores):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            weights(scores)


class TestApplyWeights:
    def test_identity_weight(self):
        model = ModelCandidate("m", 70.0, [_det(score=0.5)])
        out = apply_weights([model], [1.0])
        assert out[0].score == 0.5
        assert out[0].source_model == "m"

    def test_scaling(self):
        model = ModelCandidate("m", 70.0, [_det(score=0.9)])
        assert apply_weights([model], [0.6])[0].score == pytest.approx(0.54, abs=1e-15)

    def test_pooling_size(self):
        models = [
            ModelCandidate("a", 70.0, [_det(), _det(image_id=2)]),
            ModelCandidate("b", 71.0, [_det(image_id=3)]),
        ]
        assert len(apply_weights(models, [1.0, 0.6])) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_weights([ModelCandidate("a", 1.0, [])], [0.5, 0.6])

    def test_clip_keeps_the_sign_of_a_zero_product(self):
        # min(max(s * w, 0.0), 1.0): a zero score times a negative weight
        # stays -0.0, and a negative product clips to +0.0
        model = ModelCandidate("m", 70.0, [_det(score=0.0), _det(score=0.5)])
        scores = [d.score for d in apply_weights([model], [-0.5])]
        assert scores == [0.0, 0.0]
        assert [math.copysign(1.0, s) for s in scores] == [-1.0, 1.0]

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(0.0, 1.0),
                    st.booleans(),  # a mask or none
                    st.sampled_from([None, "earlier"]),  # a source model to replace
                ),
                max_size=4,
            ),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1.5, 7.0]), st.floats(0.0, 3.0)),
                 min_size=3, max_size=3),
    )
    def test_equals_replace_formula(self, drawn, weights):
        mask = rle_encode(np.eye(3, dtype=bool))
        models = [
            ModelCandidate(f"m{k}", 70.0 + k, [
                Detection(k + 1, j + 2, score, BBox(j, k, 2.0, 3.0), mask if masked else None, source)
                for j, (score, masked, source) in enumerate(dets)
            ])
            for k, dets in enumerate(drawn)
        ]
        weights = weights[: len(models)]
        expected = [
            replace(det, score=min(max(det.score * w, 0.0), 1.0), source_model=model.model_id)
            for model, w in zip(models, weights)
            for det in model.detections
        ]
        assert apply_weights(models, weights) == expected


class TestSoftNms:
    def test_single_detection_unchanged(self):
        det = _det(score=0.7)
        out = soft_nms([det])
        assert len(out) == 1
        assert out[0].score == 0.7
        assert out[0].bbox == det.bbox

    def test_gaussian_duplicate_decay(self):
        dets = [_det(score=0.9), _det(score=0.8)]
        out = soft_nms(dets, SoftNmsConfig(method="gaussian", sigma=0.5))
        assert out[0].score == 0.9
        assert abs(out[1].score - 0.8 * math.exp(-2.0)) < 1e-12

    def test_disjoint_untouched(self):
        dets = [_det(score=0.9, box=(0, 0, 5, 5)), _det(score=0.8, box=(20, 20, 5, 5))]
        out = soft_nms(dets)
        assert [d.score for d in out] == [0.9, 0.8]

    def test_never_increases_scores_or_moves_boxes(self):
        rng = np.random.default_rng(11)
        dets = [
            _det(score=float(s), box=(float(x), float(y), 5, 5))
            for s, x, y in zip(rng.uniform(0.2, 1, 30), rng.uniform(0, 20, 30), rng.uniform(0, 20, 30))
        ]
        before = {(d.bbox.x, d.bbox.y): d.score for d in dets}
        out = soft_nms(dets, SoftNmsConfig(method="gaussian", sigma=0.5))
        assert len(out) <= len(dets)
        for d in out:
            assert d.score <= before[(d.bbox.x, d.bbox.y)] + 1e-15

    def test_gaussian_no_floor_keeps_everything(self):
        rng = np.random.default_rng(13)
        dets = [
            _det(score=float(s), box=(float(x), 0, 4, 4))
            for s, x in zip(rng.uniform(0.1, 1, 20), rng.uniform(0, 10, 20))
        ]
        out = soft_nms(dets, SoftNmsConfig(method="gaussian", sigma=0.5, score_floor=-math.inf))
        assert len(out) == len(dets)

    def test_sorted_by_final_score(self):
        rng = np.random.default_rng(17)
        dets = [
            _det(score=float(s), box=(float(x), float(y), 6, 6))
            for s, x, y in zip(rng.uniform(0.2, 1, 25), rng.uniform(0, 15, 25), rng.uniform(0, 15, 25))
        ]
        out = soft_nms(dets)
        scores = [d.score for d in out]
        assert scores == sorted(scores, reverse=True)

    def test_hard_mode_matches_classic_nms(self):
        rng = np.random.default_rng(19)
        for trial in range(60):
            dets = [
                _det(
                    score=float(rng.uniform(0.05, 1.0)),
                    box=(
                        float(rng.uniform(0, 12)),
                        float(rng.uniform(0, 12)),
                        float(rng.uniform(1, 8)),
                        float(rng.uniform(1, 8)),
                    ),
                )
                for _ in range(int(rng.integers(1, 12)))
            ]
            cfg = SoftNmsConfig(method="hard", iou_threshold=0.4, score_floor=0.001)
            ours = soft_nms(dets, cfg)
            ref = classic_nms(dets, 0.4)
            assert [(d.score, d.bbox) for d in ours] == [(d.score, d.bbox) for d in ref]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.1, 0.4, 0.7, 1.0]),
                st.sampled_from(["a", "b", None]),
                st.tuples(*[st.integers(0, 6)] * 2, *[st.integers(1, 6)] * 2),
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(0.0, 1.0),
    )
    def test_hard_mode_is_classic_nms(self, specs, threshold):
        # integer boxes and a coarse score grid make IoU == threshold and
        # tied scores likely
        dets = [_det(score=score, box=box, source=source) for score, source, box in specs]
        cfg = SoftNmsConfig(method="hard", iou_threshold=threshold)
        assert soft_nms(dets, cfg) == classic_nms(dets, threshold)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.1, 0.4, 0.7, 1.0]),
                st.tuples(*[st.integers(0, 6)] * 2, *[st.integers(1, 6)] * 2),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_subnormal_sigma_is_hard_suppression(self, specs):
        # iou**2 / 1e-320 overflows to inf for every overlap, and exp(-inf) = 0
        dets = [_det(score=score, box=box) for score, box in specs]
        hard = soft_nms(dets, SoftNmsConfig(method="hard", iou_threshold=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert soft_nms(dets, SoftNmsConfig(method="gaussian", sigma=1e-320)) == hard

    @settings(max_examples=400)
    @given(nms_cases())
    def test_equals_reference_loop(self, case):
        dets, cfg = case
        assert soft_nms(dets, cfg) == reference_soft_nms(dets, cfg)

    def test_mask_mode_builds_one_geometry_per_group(self):
        rng = np.random.default_rng(2)
        dets = [
            _det(score=float(s), mask=rle_encode(rng.random((12, 10)) < 0.5), image_id=1 + k % 2)
            for k, s in enumerate(rng.uniform(0.2, 1.0, 8))
        ]
        with patch.object(core, "_geometry", wraps=core._geometry) as built:
            soft_nms(dets, SoftNmsConfig(use_mask_iou=True))
        # one call per image's group, covering each of its masks exactly once
        groups = [sorted(id(d.mask) for d in dets if d.image_id == image) for image in (1, 2)]
        calls = [sorted(map(id, call.args[0])) for call in built.call_args_list]
        assert sorted(calls) == sorted(groups)

    def test_linear_mode_decay(self):
        dets = [_det(score=0.9, box=(0, 0, 10, 10)), _det(score=0.8, box=(5, 0, 10, 10))]
        out = soft_nms(dets, SoftNmsConfig(method="linear", iou_threshold=0.3))
        assert len(out) == 2
        assert out[1].score == pytest.approx(0.8 * (1 - 1 / 3), abs=1e-12)

    def test_linear_decay_stops_at_zero(self):
        # y + h rounds at this height, so the box's IoU with itself reads 1.5
        box = (0, 9007199254740994, 1, 5)
        dets = [_det(score=0.9, box=box), _det(score=0.8, box=box)]
        cfg = SoftNmsConfig(method="linear", iou_threshold=0.3, score_floor=-1e9)
        assert [d.score for d in soft_nms(dets, cfg)] == [0.9, 0.0]

    def test_linear_mode_below_threshold_untouched(self):
        dets = [_det(score=0.9, box=(0, 0, 10, 10)), _det(score=0.8, box=(8, 0, 10, 10))]
        out = soft_nms(dets, SoftNmsConfig(method="linear", iou_threshold=0.3))
        assert [d.score for d in out] == [0.9, 0.8]

    def test_per_category_grouping(self):
        # identical boxes in different categories never suppress each other
        dets = [_det(score=0.9, category_id=1), _det(score=0.8, category_id=2)]
        out = soft_nms(dets)
        assert sorted(d.score for d in out) == [0.8, 0.9]

    def test_class_agnostic_grouping(self):
        dets = [_det(score=0.9, category_id=1), _det(score=0.8, category_id=2)]
        out = soft_nms(dets, SoftNmsConfig(per_category=False, method="hard", iou_threshold=0.5))
        assert [d.score for d in out] == [0.9]


class TestClusterMergeMasks:
    @staticmethod
    def _mask(cols):
        bits = np.zeros((4, 4), dtype=bool)
        for c in cols:
            bits[:, c] = True
        return rle_encode(bits)

    def test_no_overlap_identity(self):
        dets = [
            _det(score=0.9, box=(0, 0, 2, 2), mask=self._mask([0])),
            _det(score=0.8, box=(10, 10, 2, 2), mask=self._mask([3])),
        ]
        out = cluster_merge_masks(dets, 0.5)
        assert len(out) == 2
        assert {d.score for d in out} == {0.9, 0.8}

    def test_identical_masks_unanimous(self):
        mask = self._mask([1, 2])
        dets = [_det(score=0.9, mask=mask), _det(score=0.4, mask=mask)]
        out = cluster_merge_masks(dets, 0.5)
        assert len(out) == 1
        assert out[0].mask == mask
        assert out[0].score == 0.9

    def test_weighted_majority(self):
        heavy = self._mask([0, 1])
        light = self._mask([0, 3])  # disagrees on cols 1 and 3
        dets = [_det(score=0.9, mask=heavy), _det(score=0.1, mask=light)]
        out = cluster_merge_masks(dets, 0.0)
        assert len(out) == 1
        merged = rle_decode(out[0].mask)
        assert np.array_equal(merged, rle_decode(heavy))

    def test_missing_mask_rejected(self):
        with pytest.raises(ValueError):
            cluster_merge_masks([_det(score=0.5)], 0.5)

    def test_different_categories_not_merged(self):
        mask = self._mask([1])
        dets = [
            _det(score=0.9, category_id=1, mask=mask),
            _det(score=0.8, category_id=2, mask=mask),
        ]
        assert len(cluster_merge_masks(dets, 0.5)) == 2


class TestEnsemble:
    def test_single_model_is_soft_nms(self):
        dets = [_det(score=0.9), _det(score=0.8), _det(score=0.7, box=(30, 30, 5, 5))]
        model = ModelCandidate("only", 75.0, dets)
        cfg = EnsembleConfig()
        fused = ensemble([model], cfg)
        expected = soft_nms(apply_weights([model], [1.0]), cfg.nms)
        assert [(d.image_id, d.score, d.bbox) for d in fused] == [
            (d.image_id, d.score, d.bbox) for d in expected
        ]

    def test_disjoint_models_union(self):
        models = [
            ModelCandidate("a", 70.0, [_det(image_id=1, box=(0, 0, 4, 4), score=0.9)]),
            ModelCandidate("b", 72.0, [_det(image_id=2, box=(50, 50, 4, 4), score=0.8)]),
        ]
        fused = ensemble(models, EnsembleConfig())
        assert len(fused) == 2
        assert fused[0].score == pytest.approx(0.9 * 0.6, abs=1e-15)
        assert fused[1].score == pytest.approx(0.8, abs=1e-15)

    def test_model_order_invariance(self):
        rng = np.random.default_rng(23)
        models = []
        for m in range(3):
            dets = [
                _det(
                    image_id=int(img),
                    score=float(rng.uniform(0.3, 0.99)),
                    box=(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), 6, 6),
                )
                for img in range(1, 4)
            ]
            models.append(ModelCandidate(f"m{m}", 70.0 + m, dets))
        fused_fwd = ensemble(models, EnsembleConfig())
        fused_rev = ensemble(models[::-1], EnsembleConfig())
        key = lambda d: (d.image_id, round(d.score, 12), d.bbox.to_list(), d.source_model)
        assert sorted(map(key, fused_fwd)) == sorted(map(key, fused_rev))

    @pytest.mark.parametrize("merge_masks", [False, True])
    def test_is_soft_nms_of_weighted_pool(self, merge_masks):
        rng = np.random.default_rng(29)
        models = []
        for m in range(3):
            dets = []
            for img in range(1, 6):
                bits = np.zeros((16, 16), dtype=bool)
                x = int(rng.integers(0, 8))
                bits[2:9, x : x + 6] = True
                dets.append(
                    _det(
                        image_id=img,
                        category_id=int(rng.integers(1, 3)),
                        score=float(rng.choice([0.5, 0.7, 0.9])),
                        box=(float(x), 2, 6, 7),
                        mask=rle_encode(bits),
                    )
                )
            models.append(ModelCandidate(f"m{m}", 70.0 + m % 2, dets))
        cfg = EnsembleConfig(merge_masks=merge_masks)
        expected = soft_nms(apply_weights(models, model_weights(models, cfg)), cfg.nms)
        if merge_masks:
            expected = cluster_merge_masks(expected, cfg.cluster_iou)
        expected.sort(key=lambda d: (d.image_id, -d.score, d.category_id, d.source_model))
        assert ensemble(models, cfg) == expected

    def test_model_weights_follow_strategy(self):
        models = [ModelCandidate(f"m{i}", s, []) for i, s in enumerate([71.0, 70.0, 73.0])]
        for strategy, weigh in [
            ("linear_interpolation", linear_interpolation_weights),
            ("linear_reweight", linear_reweight_weights),
        ]:
            cfg = EnsembleConfig(strategy=strategy, theta_min=0.5)
            assert model_weights(models, cfg).tolist() == weigh([71.0, 70.0, 73.0], 0.5).tolist()

    @pytest.mark.parametrize(
        "strategy, scores, thetas, fault",
        [
            ("linear_interpolation", [0.0, 1.0], (-1e308, 1e308),
             "theta_min -1e+308, theta_max 1e+308, validation scores 0.0 to 1.0"),
            ("linear_reweight", [0.0, 1.0], (-1e308, 1e308),
             "theta_min -1e+308, theta_max 1e+308, validation scores 0.0 to 1.0"),
            ("linear_interpolation", [1e308, -1e308], (0.6, 1.0),
             "theta_min 0.6, theta_max 1.0, validation scores -1e+308 to 1e+308"),
        ],
        ids=["interpolation-thetas", "reweight-thetas", "interpolation-scores"],
    )
    def test_model_weights_refuse_an_overflow(self, strategy, scores, thetas, fault):
        """A theta span past the float range overflows under either
        strategy, a score span only under interpolation. ``ensemble`` fails
        with the same message, not with a detection's score error."""
        models = [ModelCandidate(f"m{i}", s, [_det(score=0.5)]) for i, s in enumerate(scores)]
        cfg = EnsembleConfig(theta_min=thetas[0], theta_max=thetas[1], strategy=strategy)
        message = f"^model weights overflow: {re.escape(fault)}$"
        with pytest.raises(ValueError, match=message):
            model_weights(models, cfg)
        with pytest.raises(ValueError, match=message):
            ensemble(models, cfg)

    def test_rank_weights_ignore_the_score_span(self):
        models = [ModelCandidate(f"m{i}", s, []) for i, s in enumerate([1e308, -1e308])]
        cfg = EnsembleConfig(strategy="linear_reweight")
        assert model_weights(models, cfg).tolist() == [1.0, 0.6]

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError):
            ensemble([], EnsembleConfig())

    def test_score_validation(self):
        with pytest.raises(ValueError):
            _det(score=1.5)
