import gc
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskpost import (
    IdentityPredictor,
    OracleFieldPredictor,
    ScoreField,
    SubdivisionConfig,
    binarize,
    default_corpus,
    grid_coords,
    mask_iou,
    plain_upsample,
    resample,
    resample_mask,
    sample_points,
    select_most_uncertain,
    shape_field,
    shape_mask,
    subdivision_mask,
    subdivision_render,
    subdivision_step,
    upsample_x2,
)
from maskpost import refine
from maskpost.core import _taps
from maskpost.synthetic import Shape, parse_corpus_spec


def _full_sort_ranking(field, n):
    """The ranking as a full stable sort of ``|logits|``: the reference the
    partial selection in ``refine.select_most_uncertain`` must equal element
    for element."""
    return np.argsort(np.abs(field.logits.ravel()), kind="stable")[:n]


# few magnitudes, each with both signs, and both zeros: ties are heavy
TIED_LOGITS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5])


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


class TestMostUncertainRanking:
    @settings(max_examples=300)
    @given(st.lists(TIED_LOGITS | st.floats(-3.0, 3.0), min_size=1, max_size=48))
    def test_equals_full_stable_sort(self, values):
        field = ScoreField.from_flat(len(values), 1, values)
        for n in range(len(values) + 1):
            got = select_most_uncertain(field, n)
            want = _full_sort_ranking(field, n)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


def _square_fields(max_side, elements):
    return st.integers(1, max_side).flatmap(lambda side: arrays(np.float64, (side, side), elements=elements))


class TestRenderRankingEquivalence:
    @settings(max_examples=20)
    @given(
        coarse=_square_fields(7, TIED_LOGITS | st.floats(-4.0, 4.0)),
        reference=_square_fields(24, TIED_LOGITS | st.floats(-4.0, 4.0)),
        steps=st.integers(1, 6),
        k=st.integers(1, 40),
        oracle=st.booleans(),
    )
    @example(coarse=np.full((7, 7), 0.5), reference=np.zeros((3, 3)), steps=6, k=28, oracle=True)
    @example(coarse=np.eye(7), reference=np.eye(24) - 0.5, steps=6, k=28, oracle=True)
    @example(coarse=np.eye(7) - 0.5, reference=np.zeros((2, 2)), steps=6, k=40, oracle=False)
    def test_render_equals_full_sort_render(self, coarse, reference, steps, k, oracle):
        """Renders up to 448 px are bit-identical with the partial selection
        and with the full stable sort."""
        field = ScoreField(coarse)
        predictor = OracleFieldPredictor(ScoreField(reference)) if oracle else IdentityPredictor()
        side = field.height
        cfg = SubdivisionConfig(subdivision_k=k, target_side=side << steps, start_side=side)
        got = subdivision_render(field, predictor, cfg).logits
        with patch.object(refine, "select_most_uncertain", side_effect=_full_sort_ranking) as full_sort:
            want = subdivision_render(field, predictor, cfg).logits
        assert full_sort.call_count == steps
        assert got.tobytes() == want.tobytes()


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



def _band_fields(rows, cols):
    """Fields of one value family each: all zero, +-1 and -2..2 (exact ties
    at the cut), a few extreme magnitudes, 5e-324 to 1e300 at random, and
    plain logits."""
    family = st.sampled_from([
        st.just(0.0),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
        st.sampled_from([5e-324, -5e-324, 2.0**-1000, -(2.0**-1000), 1e-300, 1e300, -1e300]),
        st.floats(-1e300, 1e300),
        st.floats(-4.0, 4.0),
    ])
    shape = st.tuples(rows, cols)
    return shape.flatmap(lambda s: family.flatmap(lambda e: arrays(np.float64, s, elements=e)))


class _FlipPredictor(IdentityPredictor):
    """Flips the sign of every re-predicted pixel, so that a point selected
    in place of another changes the mask."""

    def predict(self, points, current):
        return np.where(current > 0.0, -1.0, 1.0)


def _band_predictor(kind, reference):
    return {
        "identity": IdentityPredictor(),
        "oracle": OracleFieldPredictor(ScoreField(reference)),
        "flip": _FlipPredictor(),
    }[kind]


PREDICTOR_KINDS = st.sampled_from(["identity", "oracle", "flip"])

# at a budget of 6 the middle step of a render flips pixels of the top cell,
# whose four taps share a sign, and the last grid's top-left pixel, deep
# inside that cell's sign, takes its sign from them
_FLIPPED_CELL = np.array([[-1.0, -4.0], [-4.0, -1.0], [-2.0, -4.0], [-4.0, 2.0], [4.0, -4.0]])


def _chain_ends(sides):
    """Per pixel of the last axis of a chain of axes of ``sides`` pixels, the
    first-axis pixels its lowest and its highest tap chain end at: its
    block is the cells from ``low`` to ``max(high - 1, low)``."""
    low = high = np.arange(sides[-1])
    for side, below in zip(sides[:0:-1], sides[-2::-1]):
        y0, y1, _ = _taps(grid_coords(side), below)
        low, high = y0[low], y1[high]
    return low, high


class TestBandedSigns:
    """``subdivision_mask`` and ``resample_mask`` compute pixel values only in
    a band of cells; their masks are the dense ones, pixel for pixel."""

    @settings(max_examples=200)
    @given(
        logits=_band_fields(st.integers(1, 5), st.integers(1, 5)),
        reference=_band_fields(st.integers(1, 9), st.integers(1, 9)),
        kind=PREDICTOR_KINDS,
    )
    @example(logits=np.ones((1, 4)), reference=-np.ones((1, 1)), kind="oracle")
    @example(logits=np.array([[1.0, -1.0], [-1.0, 1.0]]), reference=np.zeros((1, 1)), kind="flip")
    def test_step_equals_dense_step_for_every_budget(self, logits, reference, kind):
        field = ScoreField(logits)
        predictor = _band_predictor(kind, reference)
        height, width = 2 * field.height, 2 * field.width
        for n in range(height * width + 1):
            want = binarize(subdivision_step(field, predictor, n))
            assert np.array_equal(refine._band_signs(field, [(height, width)], predictor, [n]), want), n

    @settings(max_examples=60)
    @given(
        side=st.integers(1, 5),
        steps=st.integers(0, 3),
        k=st.integers(1, 40),
        data=st.data(),
        kind=PREDICTOR_KINDS,
    )
    def test_subdivision_mask_equals_binarized_render(self, side, steps, k, data, kind):
        coarse = ScoreField(data.draw(_band_fields(st.just(side), st.just(side))))
        reference = data.draw(_band_fields(st.integers(1, 24), st.integers(1, 24)))
        predictor = _band_predictor(kind, reference)
        cfg = SubdivisionConfig(subdivision_k=k, target_side=side << steps, start_side=side)
        want = binarize(subdivision_render(coarse, predictor, cfg))
        assert np.array_equal(subdivision_mask(coarse, predictor, cfg), want)

    @settings(max_examples=150)
    @given(
        logits=_band_fields(st.integers(1, 8), st.integers(1, 8)),
        height=st.integers(1, 24),
        width=st.integers(1, 24),
    )
    @example(logits=np.array([[1.0, -1.0, 2.0]]), height=1, width=3)
    def test_resample_mask_equals_binarized_resample(self, logits, height, width):
        field = ScoreField(logits)
        for h, w in ((height, width), field.logits.shape, (2 * height, width)):
            assert np.array_equal(resample_mask(field, h, w), binarize(resample(field, h, w)))

    @settings(max_examples=60)
    @given(
        logits=_band_fields(st.integers(1, 4), st.integers(1, 4)),
        reference=_band_fields(st.integers(1, 9), st.integers(1, 9)),
        kind=PREDICTOR_KINDS,
    )
    @example(logits=_FLIPPED_CELL, reference=np.zeros((1, 1)), kind="flip")
    @example(logits=_FLIPPED_CELL.T, reference=np.zeros((1, 1)), kind="flip")
    # 1-pixel axes
    @example(logits=np.array([[1.0, 0.5, -0.5, 1.0]]), reference=np.zeros((1, 1)), kind="flip")
    @example(logits=np.array([[2.0], [-1.0]]), reference=-np.ones((2, 1)), kind="oracle")
    @example(logits=np.ones((1, 1)), reference=np.zeros((1, 1)), kind="flip")
    def test_two_steps_equal_dense_steps_for_every_budget(self, logits, reference, kind):
        """The last two steps of a render, banded together, are the two
        dense steps at every budget ``k**2``, up to and past the pixel count."""
        field = ScoreField(logits)
        predictor = _band_predictor(kind, reference)
        (h, w), pixels = field.logits.shape, 4 * field.logits.size
        for budget in range(1, 4 * pixels + 2):
            n1, n2 = min(budget, pixels), min(budget, 4 * pixels)
            want = binarize(subdivision_step(subdivision_step(field, predictor, n1), predictor, n2))
            got = refine._band_signs(field, [(2 * h, 2 * w), (4 * h, 4 * w)], predictor, [n1, n2])
            assert np.array_equal(got, want), budget

    @settings(max_examples=10)
    @given(
        logits=_band_fields(st.integers(1, 4), st.integers(1, 4)),
        reference=_band_fields(st.integers(1, 9), st.integers(1, 9)),
        kind=PREDICTOR_KINDS,
    )
    @example(logits=_FLIPPED_CELL, reference=np.zeros((1, 1)), kind="flip")
    @example(logits=_FLIPPED_CELL.T, reference=np.zeros((1, 1)), kind="flip")
    def test_three_steps_equal_dense_steps_for_every_budget(self, logits, reference, kind):
        """A chain of three levels, each started at the cut of the one
        before, is three dense steps at every budget."""
        field = ScoreField(logits)
        predictor = _band_predictor(kind, reference)
        shapes = [(field.height << k, field.width << k) for k in (1, 2, 3)]
        for budget in range(1, shapes[-1][0] * shapes[-1][1] + 2):
            budgets, want = [min(budget, h * w) for h, w in shapes], field
            for n in budgets:
                want = subdivision_step(want, predictor, n)
            got = refine._band_signs(field, shapes, predictor, budgets)
            assert np.array_equal(got, binarize(want)), budget

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_blocks_span_at_most_two_cells(self, depth):
        """The block of a pixel of a doubling chain holds at most 2 cells
        per axis, so the two cells at its ends cover it; a one-level
        resample's holds one."""
        for side in range(1, 81):
            low, high = _chain_ends([side << k for k in range(depth + 1)])
            assert (np.maximum(high - low, 1) <= 2).all(), side
            for target in (1, 2, side + 1, 3 * side, 7 * side + 5):
                low, high = _chain_ends([side, target])
                assert (np.maximum(high - low, 1) == 1).all(), (side, target)

    @settings(max_examples=100)
    @given(logits=_band_fields(st.integers(1, 5), st.integers(1, 5)), depth=st.integers(1, 3))
    def test_block_of_one_sign_bounds_the_pixel(self, logits, depth):
        """On the dense identity chain, a pixel whose block taps share a
        sign and lie in [2^-1000, 2^1000] has that sign and a magnitude of
        at least min|tap| * (1 - 2^-40)^depth."""
        field = ScoreField(logits)
        for _ in range(depth):
            field = upsample_x2(field)
        ends = [_chain_ends([n << k for k in range(depth + 1)]) for n in logits.shape]
        # the block's field pixels, from the low end to the high one, at most 3 per axis
        ry, rx = ([np.minimum(low + d, high) for d in range(3)] for low, high in ends)
        taps = np.stack([logits[np.ix_(y, x)] for y in ry for x in rx])
        magnitude = np.abs(taps)
        bound = magnitude.min(axis=0)
        one_sign = (taps.min(axis=0) > 0) | (taps.max(axis=0) < 0)
        ruled = one_sign & (bound >= 2.0**-1000) & (magnitude.max(axis=0) <= 2.0**1000)
        for _ in range(depth):
            bound *= 1 - 2.0**-40
        value = field.logits[ruled]
        assert np.array_equal(value > 0, taps[0][ruled] > 0)
        assert (np.abs(value) >= bound[ruled]).all()

    def test_no_cyclic_garbage(self):
        """A render and a ground truth leave nothing for the cycle
        collector: their memory is freed as soon as they return."""
        coarse = ScoreField(np.random.default_rng(3).normal(size=(7, 7)))
        cfg = SubdivisionConfig(subdivision_k=5, target_side=28, start_side=7)
        gc.collect()
        gc.disable()
        try:
            subdivision_mask(coarse, OracleFieldPredictor(coarse), cfg)
            resample_mask(coarse, 28, 28)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "side, steps, k", [(7, 0, 5), (7, 1, 5), (7, 3, 5), (3, 2, 40), (1, 3, 1), (1, 2, 8)]
    )
    def test_masks_are_column_major_and_dense(self, side, steps, k):
        """Both masks are F-ordered, so that ``rle_encode`` reads them in
        place, and equal their dense forms."""
        coarse = ScoreField(np.random.default_rng(side + steps).normal(size=(side, side)))
        cfg = SubdivisionConfig(subdivision_k=k, target_side=side << steps, start_side=side)
        for predictor in (IdentityPredictor(), OracleFieldPredictor(coarse), _FlipPredictor()):
            mask = subdivision_mask(coarse, predictor, cfg)
            assert mask.flags.f_contiguous
            assert np.array_equal(mask, binarize(subdivision_render(coarse, predictor, cfg)))
        for height, width in ((5, 9), (side, side), (1, 3)):
            mask = resample_mask(coarse, height, width)
            assert mask.flags.f_contiguous
            assert np.array_equal(mask, binarize(resample(coarse, height, width)))

    def test_last_step_ranks_through_the_module_name(self):
        coarse = ScoreField(np.random.default_rng(4).normal(size=(7, 7)))
        cfg = SubdivisionConfig(subdivision_k=5, target_side=56, start_side=7)
        with patch.object(refine, "select_most_uncertain", side_effect=_full_sort_ranking) as ranked:
            mask = subdivision_mask(coarse, OracleFieldPredictor(coarse), cfg)
        sizes = [call.args[0].logits.size for call in ranked.call_args_list]
        assert len(sizes) == cfg.num_steps
        assert sizes[-2] < 28 * 28 and sizes[-1] < 56 * 56  # bands, not grids
        assert np.array_equal(mask, binarize(subdivision_render(coarse, OracleFieldPredictor(coarse), cfg)))

    @pytest.mark.parametrize("target", [28, 56, 896])
    def test_no_field_at_half_the_target(self, target):
        """The dense steps stop at a quarter of the target side: no step
        builds the field the last step would upsample."""
        sides = []

        def recorded(step):
            def run(*args):
                field = step(*args)
                sides.append(max(field.logits.shape))
                return field
            return run

        coarse = ScoreField(np.random.default_rng(8).normal(size=(7, 7)))
        cfg = SubdivisionConfig(subdivision_k=28, target_side=target, start_side=7)
        with patch.object(refine, "subdivision_step", recorded(refine.subdivision_step)), \
                patch.object(refine, "upsample_x2", recorded(refine.upsample_x2)):
            subdivision_mask(coarse, OracleFieldPredictor(coarse), cfg)
        assert max(sides, default=cfg.start_side) == target // 4

    @pytest.mark.parametrize("target", [8, 16, 32])
    def test_wrong_start_side_rejected_as_the_render(self, target):
        cfg = SubdivisionConfig(subdivision_k=4, target_side=target, start_side=8)
        with pytest.raises(ValueError) as dense:
            subdivision_render(ScoreField.constant(7, 7), IdentityPredictor(), cfg)
        with pytest.raises(ValueError, match=re.escape(str(dense.value))):
            subdivision_mask(ScoreField.constant(7, 7), IdentityPredictor(), cfg)

    @pytest.mark.parametrize(
        "refined",
        [lambda points: np.zeros(len(points) + 1), lambda points: np.full(len(points), np.inf)],
        ids=["wrong-shape", "non-finite"],
    )
    def test_bad_predictor_fails_as_the_dense_step(self, refined):
        class Bad(IdentityPredictor):
            def predict(self, points, current):
                return refined(points)

        coarse = ScoreField(np.random.default_rng(6).normal(size=(4, 4)))
        cfg = SubdivisionConfig(subdivision_k=3, target_side=8, start_side=4)
        with pytest.raises(ValueError) as dense:
            subdivision_step(coarse, Bad(), 9)
        with pytest.raises(ValueError, match=re.escape(str(dense.value))):
            subdivision_mask(coarse, Bad(), cfg)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError, match="target dimensions must be positive"):
            resample_mask(ScoreField.constant(2, 2), 0, 3)


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


class TestConfigs:
    def test_subdivision_num_steps(self):
        assert SubdivisionConfig(28, 224, 7).num_steps == 5
        assert SubdivisionConfig(28, 7, 7).num_steps == 0

    def test_schedule_accepts_what_the_doubling_loop_accepts(self):
        """For start sides 1-16 and target sides -2-1100, the accepted pairs
        and their step counts are those of the doubling loop and the log2
        step count the schedule was first written with."""
        for start in range(1, 17):
            for target in range(-2, 1101):
                side = start
                while side < target:
                    side *= 2
                if side == target:
                    cfg = SubdivisionConfig(target_side=target, start_side=start)
                    assert cfg.num_steps == int(round(math.log2(target / start)))
                else:
                    with pytest.raises(ValueError, match="times a power of two"):
                        SubdivisionConfig(target_side=target, start_side=start)

    @pytest.mark.parametrize("side, target", [(7, 100), (7, 3), (4, 12)])
    def test_plain_upsample_unreachable_target(self, side, target):
        with pytest.raises(ValueError, match=f"target_side {target} is not start_side {side}"):
            plain_upsample(ScoreField.constant(side, side), target)


class TestShape:
    @pytest.mark.parametrize(
        "kind, cx, cy, a, b, fault",
        [
            ("star", 0.5, 0.5, 0.2, 0.0, "unknown shape kind 'star'"),
            ("disk", float("nan"), 0.5, 0.2, 0.0, "non-finite"),
            ("disk", 0.5, float("inf"), 0.2, 0.0, "non-finite"),
            ("disk", 0.5, 0.5, 0.0, 0.0, "disk needs a > 0, got a=0.0"),
            ("rect", 0.5, 0.5, -0.1, 0.2, "rect needs a > 0"),
            ("rect", 0.5, 0.5, 0.2, 0.0, "rect needs a half-height b > 0, got b=0.0"),
            ("annulus", 0.5, 0.5, 0.3, 0.3, "annulus needs 0 <= b < a, got a=0.3, b=0.3"),
            ("annulus", 0.5, 0.5, 0.3, -0.1, "annulus needs 0 <= b < a"),
        ],
    )
    def test_invalid_shape_rejected(self, kind, cx, cy, a, b, fault):
        with pytest.raises(ValueError, match=re.escape(fault)):
            Shape(kind, cx, cy, a, b)

    def test_valid_edges_accepted(self):
        assert Shape("annulus", 0.5, 0.5, 0.3, 0.0).contains(0.5, 0.6)
        assert not Shape("annulus", 0.5, 0.5, 0.3, 0.2).contains(0.5, 0.6)
        assert Shape("rect", 0.0, 1.0, 0.1, 0.1).contains(0.0, 1.0)

    @pytest.mark.parametrize(
        "spec, fault",
        [
            ("disk:-1,rect:2", "corpus spec part 'disk:-1': count must be a positive integer, got '-1'"),
            ("disk:0", "corpus spec part 'disk:0': count must be a positive integer"),
            ("disk:x", "corpus spec part 'disk:x': count must be a positive integer"),
            ("rect:17", "corpus spec part 'rect:17': shape 15: rect needs a half-height b > 0"),
            ("disk:1,annulus:29", "corpus spec part 'annulus:29': shape 28: annulus needs 0 <= b < a"),
            ("hexagon:2", "corpus spec part 'hexagon:2': unknown shape kind 'hexagon'"),
            (" , ", "corpus spec produced no shapes"),
        ],
    )
    def test_bad_corpus_spec_names_the_part(self, spec, fault):
        with pytest.raises(ValueError, match=re.escape(fault)):
            parse_corpus_spec(spec)

    def test_largest_valid_counts(self):
        shapes = parse_corpus_spec("disk:40,rect:15,annulus:28")
        assert len(shapes) == 83
        assert default_corpus() == parse_corpus_spec("default")
