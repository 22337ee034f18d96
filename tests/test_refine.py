import numpy as np
import pytest

from maskpost import (
    IdentityPredictor,
    OracleFieldPredictor,
    ScoreField,
    SubdivisionConfig,
    TrainSampleConfig,
    biased_point_sample,
    binarize,
    default_corpus,
    flip_fuse,
    mask_iou,
    plain_upsample,
    resample,
    sample_points,
    select_most_uncertain,
    shape_field,
    shape_mask,
    subdivision_render,
    subdivision_step,
    uncertainty,
    upsample_x2,
)
from maskpost.synthetic import Shape


class TestUncertainty:
    def test_zero_is_most_uncertain(self):
        assert uncertainty(0.0) == 0.0

    def test_symmetric(self):
        assert uncertainty(3.0) == uncertainty(-3.0) == -3.0

    def test_ordering(self):
        assert uncertainty(0.1) > uncertainty(-2.0)

    def test_array(self):
        assert uncertainty(np.array([1.0, -2.0])).tolist() == [-1.0, -2.0]


class TestSelectMostUncertain:
    def test_example(self):
        field = ScoreField.from_flat(4, 1, [3, -0.1, 0.5, -2])
        assert set(select_most_uncertain(field, 2).tolist()) == {1, 2}

    def test_all(self):
        field = ScoreField.from_flat(2, 2, [1, 2, 3, 4])
        assert set(select_most_uncertain(field, 4).tolist()) == {0, 1, 2, 3}

    def test_tie_break_lowest_index(self):
        field = ScoreField.constant(3, 3, 0.7)
        assert select_most_uncertain(field, 1).tolist() == [0]

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            select_most_uncertain(ScoreField.constant(2, 2), 5)


class TestSubdivisionStep:
    def test_identity_predictor_is_plain_upsample(self):
        rng = np.random.default_rng(3)
        field = ScoreField(rng.normal(size=(5, 4)))
        stepped = subdivision_step(field, IdentityPredictor(), 11)
        assert np.array_equal(stepped.logits, upsample_x2(field).logits)

    def test_zero_points_is_plain_upsample(self):
        rng = np.random.default_rng(5)
        field = ScoreField(rng.normal(size=(3, 3)))
        stepped = subdivision_step(field, OracleFieldPredictor(field), 0)
        assert np.array_equal(stepped.logits, upsample_x2(field).logits)

    def test_oracle_overwrites_selected_pixels_exactly(self):
        disk = Shape("disk", 0.5, 0.5, 0.35)
        oracle_field = shape_field(disk, 224)
        coarse = resample(oracle_field, 7, 7)
        n_points = 50
        stepped = subdivision_step(coarse, OracleFieldPredictor(oracle_field), n_points)
        up = upsample_x2(coarse)
        idx = select_most_uncertain(up, n_points)
        rows, cols = np.divmod(idx, 14)
        pts = np.stack([cols / 13, rows / 13], axis=1)
        expected = sample_points(oracle_field, pts)
        assert np.array_equal(stepped.logits[rows, cols], expected)
        untouched = np.ones((14, 14), dtype=bool)
        untouched[rows, cols] = False
        assert np.array_equal(stepped.logits[untouched], up.logits[untouched])

    def test_output_doubles_dimensions(self):
        field = ScoreField.constant(3, 5)
        out = subdivision_step(field, IdentityPredictor(), 4)
        assert (out.width, out.height) == (6, 10)


class TestSubdivisionRender:
    def test_no_steps_returns_coarse(self):
        rng = np.random.default_rng(9)
        coarse = ScoreField(rng.normal(size=(7, 7)))
        cfg = SubdivisionConfig(subdivision_k=28, target_side=7, start_side=7)
        out = subdivision_render(coarse, IdentityPredictor(), cfg)
        assert np.array_equal(out.logits, coarse.logits)

    def test_identity_equals_upsample_chain(self):
        rng = np.random.default_rng(15)
        coarse = ScoreField(rng.normal(size=(7, 7)))
        cfg = SubdivisionConfig(subdivision_k=28, target_side=56, start_side=7)
        rendered = subdivision_render(coarse, IdentityPredictor(), cfg)
        assert np.array_equal(rendered.logits, plain_upsample(coarse, 56).logits)

    def test_disk_render_beats_plain_upsample(self):
        disk = Shape("disk", 0.5, 0.5, 0.35)
        gt_field = shape_field(disk, 224)
        gt_mask = shape_mask(disk, 224)
        coarse = resample(gt_field, 7, 7)
        cfg = SubdivisionConfig(subdivision_k=28, target_side=224, start_side=7)
        rendered = subdivision_render(coarse, OracleFieldPredictor(gt_field), cfg)
        iou_rendered = mask_iou(binarize(rendered), gt_mask)
        iou_plain = mask_iou(binarize(plain_upsample(coarse, 224)), gt_mask)
        assert iou_rendered > iou_plain
        # regression values computed once from this deterministic pipeline
        assert iou_plain == pytest.approx(0.8079601990049752, abs=1e-12)
        assert iou_rendered == pytest.approx(1.0, abs=1e-12)

    def test_full_budget_recovers_ground_truth(self):
        # a budget covering every pixel re-predicts the whole grid, so the
        # render ends bit-exact on the oracle grid
        shape = Shape("annulus", 0.5, 0.5, 0.3, 0.18)
        gt_field = shape_field(shape, 56)
        coarse = resample(gt_field, 7, 7)
        cfg = SubdivisionConfig(subdivision_k=56, target_side=56, start_side=7)
        rendered = subdivision_render(coarse, OracleFieldPredictor(gt_field), cfg)
        assert mask_iou(binarize(rendered), shape_mask(shape, 56)) == 1.0

    def test_wrong_start_side_rejected(self):
        cfg = SubdivisionConfig(subdivision_k=4, target_side=28, start_side=7)
        with pytest.raises(ValueError):
            subdivision_render(ScoreField.constant(8, 8), IdentityPredictor(), cfg)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            SubdivisionConfig(subdivision_k=4, target_side=100, start_side=7)

    def test_all_logits_finite_and_sized(self):
        rng = np.random.default_rng(21)
        coarse = ScoreField(rng.normal(size=(7, 7)))
        cfg = SubdivisionConfig(subdivision_k=5, target_side=28, start_side=7)
        out = subdivision_render(coarse, IdentityPredictor(), cfg)
        assert out.logits.shape == (28, 28)
        assert np.isfinite(out.logits).all()


@pytest.mark.parametrize("side", [7 * 2**k for k in range(8)])
def test_shape_reference_binarizes_to_shape_mask(side):
    """``refine --synthetic`` scores each render against its reference field
    binarized at the target side; that is the shape's own mask."""
    mismatched = [
        i
        for i, shape in enumerate(default_corpus())
        if not np.array_equal(
            binarize(resample(shape_field(shape, side), side, side)), shape_mask(shape, side)
        )
    ]
    assert mismatched == []


class TestBiasedPointSample:
    # confident everywhere except a single zero-logit pixel at the center
    _logits = np.full((9, 9), 5.0)
    _logits[4, 4] = 0.0
    FIELD = ScoreField(_logits)

    def test_count_and_bounds(self):
        cfg = TrainSampleConfig(n_points=26, oversample_k=3, importance_beta=0.75, rng_seed=1)
        pts = biased_point_sample(self.FIELD, cfg)
        assert pts.shape == (26, 2)
        assert (pts >= 0).all() and (pts <= 1).all()

    def test_deterministic(self):
        cfg = TrainSampleConfig(n_points=24, oversample_k=3, importance_beta=0.6, rng_seed=42)
        a = biased_point_sample(self.FIELD, cfg)
        b = biased_point_sample(self.FIELD, cfg)
        assert np.array_equal(a, b)

    def test_beta_zero_is_plain_uniform(self):
        cfg = TrainSampleConfig(n_points=10, oversample_k=2, importance_beta=0.0, rng_seed=5)
        pts = biased_point_sample(self.FIELD, cfg)
        rng = np.random.default_rng(5)
        rng.random((20, 2))  # the unused candidate draw
        expected = rng.random((10, 2))
        assert np.array_equal(pts, expected)

    def test_beta_one_clusters_near_uncertain_pixel(self):
        # single zero-logit pixel at the field center: importance-selected
        # points must sit closer to it than uniform ones, measured over many
        # seeded draws
        target = np.array([0.5, 0.5])

        def mean_distance(beta):
            total, count = 0.0, 0
            for seed in range(40):
                cfg = TrainSampleConfig(
                    n_points=25, oversample_k=4, importance_beta=beta, rng_seed=seed
                )
                pts = biased_point_sample(self.FIELD, cfg)
                total += float(np.linalg.norm(pts - target, axis=1).sum())
                count += pts.shape[0]
            return total / count

        assert mean_distance(1.0) < mean_distance(0.0) - 0.05


class TestFlipFuse:
    def test_symmetric_fixed_point(self):
        sym = ScoreField.from_flat(3, 2, [1, 2, 1, -1, 0, -1])
        fused = flip_fuse(sym, sym)
        assert np.allclose(fused.logits, sym.logits)

    def test_mirror_input_recovers_original(self):
        rng = np.random.default_rng(33)
        field = ScoreField(rng.normal(size=(4, 5)))
        mirrored = ScoreField(field.logits[:, ::-1])
        fused = flip_fuse(field, mirrored)
        assert np.allclose(fused.logits, field.logits)

    def test_hand_example(self):
        field = ScoreField.from_flat(2, 1, [0, 2])
        flipped_pred = ScoreField.from_flat(2, 1, [0, 2])
        fused = flip_fuse(field, flipped_pred)
        assert fused.logits.tolist() == [[1.0, 1.0]]

    def test_commutes_with_global_shift(self):
        rng = np.random.default_rng(35)
        a = ScoreField(rng.normal(size=(3, 4)))
        b = ScoreField(rng.normal(size=(3, 4)))
        shift = 0.75
        fused_then_shift = flip_fuse(a, b).logits + shift
        shift_then_fused = flip_fuse(
            ScoreField(a.logits + shift), ScoreField(b.logits + shift)
        ).logits
        assert np.allclose(fused_then_shift, shift_then_fused)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            flip_fuse(ScoreField.constant(2, 2), ScoreField.constant(3, 2))


class TestConfigs:
    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainSampleConfig(n_points=0)
        with pytest.raises(ValueError):
            TrainSampleConfig(n_points=5, importance_beta=1.5)
        with pytest.raises(ValueError):
            TrainSampleConfig(n_points=5, oversample_k=0)

    def test_subdivision_num_steps(self):
        assert SubdivisionConfig(28, 224, 7).num_steps == 5
        assert SubdivisionConfig(28, 7, 7).num_steps == 0
