import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpost import (
    BBox,
    DomainError,
    RleMask,
    ScoreField,
    SizeBucket,
    bilinear_sample,
    binarize,
    box_iou,
    grid_coords,
    mask_bbox,
    mask_iou,
    resample,
    rle_decode,
    rle_encode,
    sample_points,
    size_bucket,
)
from maskpost import core


class TestBilinearSample:
    def test_constant_field_everywhere(self):
        field = ScoreField.constant(5, 3, 2.5)
        for p in [(0, 0), (1, 1), (0.3, 0.7), (0.5, 0.5)]:
            assert bilinear_sample(field, p) == pytest.approx(2.5, abs=1e-15)

    def test_center_of_2x2(self):
        field = ScoreField.from_flat(2, 2, [0, 0, 0, 4])
        assert bilinear_sample(field, (0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_corner_identity(self):
        rng = np.random.default_rng(7)
        field = ScoreField(rng.normal(size=(4, 6)))
        assert bilinear_sample(field, (0, 0)) == field.logits[0, 0]
        assert bilinear_sample(field, (1, 1)) == field.logits[-1, -1]
        assert bilinear_sample(field, (1, 0)) == field.logits[0, -1]

    def test_exact_at_every_pixel_center(self):
        rng = np.random.default_rng(11)
        field = ScoreField(rng.normal(size=(5, 7)))
        for row in range(5):
            for col in range(7):
                value = bilinear_sample(field, (col / 6, row / 4))
                assert value == pytest.approx(field.logits[row, col], abs=1e-12)

    def test_linear_between_adjacent_centers(self):
        # the sample along a row segment is the lerp of its endpoints,
        # hence monotone
        rng = np.random.default_rng(13)
        field = ScoreField(rng.normal(size=(3, 4)))
        a, b = field.logits[1, 2], field.logits[1, 3]
        for t in np.linspace(0, 1, 9):
            u = (2 + t) / 3
            value = bilinear_sample(field, (u, 1 / 2))
            assert value == pytest.approx(a + t * (b - a), abs=1e-12)

    def test_out_of_domain_rejected(self):
        field = ScoreField.constant(2, 2)
        for p in [(-0.01, 0.5), (0.5, 1.01), (2, 0), (0, -1)]:
            with pytest.raises(DomainError):
                bilinear_sample(field, p)

    @pytest.mark.parametrize("point", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5)])
    def test_non_finite_point_rejected(self, point):
        field = ScoreField(np.arange(12.0).reshape(3, 4))
        with pytest.raises(DomainError, match="outside the unit square"):
            sample_points(field, [point])

    def test_single_pixel_field(self):
        field = ScoreField.constant(1, 1, -3.0)
        assert bilinear_sample(field, (0.5, 0.5)) == -3.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(17)
        field = ScoreField(rng.normal(size=(6, 6)))
        pts = rng.random((40, 2))
        values = sample_points(field, pts)
        for p, v in zip(pts, values):
            assert bilinear_sample(field, p) == v


class TestGrid:
    def test_align_corners_coordinates(self):
        assert grid_coords(5).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert grid_coords(2).tolist() == [0.0, 1.0]
        assert grid_coords(1).tolist() == [0.0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_resample_is_sample_points_on_the_grid(self, h, w, height, width, seed):
        """A resample is the field sampled at every ``grid_coords`` point,
        bit for bit."""
        field = ScoreField(np.random.default_rng(seed).normal(size=(h, w)))
        u, v = np.meshgrid(grid_coords(width), grid_coords(height))
        expected = sample_points(field, np.stack([u.ravel(), v.ravel()], axis=1))
        assert np.array_equal(resample(field, height, width).logits, expected.reshape(height, width))


class TestResampleOutput:
    @pytest.mark.parametrize("height, width", [(2, 3), (4, 6), (1, 1), (5, 2)])
    def test_read_only_and_not_aliased(self, height, width):
        field = ScoreField(np.arange(6.0).reshape(2, 3))
        out = resample(field, height, width).logits
        assert not out.flags.writeable
        assert not np.shares_memory(out, field.logits)

    def test_non_finite_result_rejected_as_by_the_constructor(self):
        # bilinear weights lie in [0, 1], so no finite field resamples to
        # inf here; weights stretched past 1 make resample overflow
        taps = core._taps

        def stretched_taps(coords, n):
            i0, i1, frac = taps(coords, n)
            return i0, i1, 4.0 * frac

        with pytest.raises(ValueError) as public:
            ScoreField([[np.inf]])
        with patch.object(core, "_taps", stretched_taps), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as internal:
                resample(ScoreField([[1e308, 1e308]]), 1, 3)
        assert str(internal.value) == str(public.value) == "logits must be finite"


class TestScoreFieldValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ScoreField([[0.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            ScoreField([[np.inf]])

    def test_rejects_wrong_flat_length(self):
        with pytest.raises(ValueError):
            ScoreField.from_flat(2, 2, [1, 2, 3])

    def test_immutable(self):
        field = ScoreField.constant(2, 2)
        with pytest.raises((ValueError, AttributeError)):
            field.logits[0, 0] = 1.0


class TestBinarize:
    def test_all_negative(self):
        field = ScoreField.constant(3, 2, -1.0)
        assert not binarize(field).any()

    def test_mixed(self):
        field = ScoreField.from_flat(2, 1, [-1, 2])
        assert binarize(field).tolist() == [[False, True]]

    def test_zero_is_background(self):
        field = ScoreField.from_flat(3, 1, [0.0, -0.0, 1e-300])
        assert binarize(field).tolist() == [[False, False, True]]

    def test_shift_above_threshold_invariant(self):
        rng = np.random.default_rng(23)
        field = ScoreField(rng.normal(size=(8, 8)))
        mask = binarize(field)
        shifted = ScoreField(field.logits + 0.5 * mask)
        assert np.array_equal(binarize(shifted), mask)


class TestRleCodec:
    def test_all_zero(self):
        rle = rle_encode(np.zeros((2, 2), dtype=bool))
        assert rle.counts.tolist() == [4]

    def test_single_pixel_column_major(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 1] = True  # column-major order [0, 0, 1, 0]
        assert rle_encode(mask).counts.tolist() == [2, 1, 1]

    def test_all_ones(self):
        assert rle_encode(np.ones((3, 3), dtype=bool)).counts.tolist() == [0, 9]

    def test_roundtrip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            mask = rng.random((h, w)) < rng.uniform(0, 1)
            rle = rle_encode(mask)
            assert np.array_equal(rle_decode(rle), mask)
            assert rle.area == int(mask.sum())

    def test_decode_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            RleMask(2, 2, [3])

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            RleMask(2, 2, [1, 0, 3])

    def test_leading_zero_allowed(self):
        assert rle_decode(RleMask(1, 2, [0, 2])).all()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RleMask(2, 2, [-1, 5])

    @pytest.mark.parametrize(
        "counts, fault",
        [
            ([64.5], "counts must be integers in the int64 range, got float64 values"),
            ([0.0, 64.0], "got float64 values"),
            ([1e30, 2], "got float64 values"),
            ([2**70, 2], "got object values"),
            ([2**63, 1], "got float64 values"),
            ([2**63], "count 9223372036854775808 exceeds the 64 pixels"),
            # would wrap the int64 sum round to 64
            ([2**62, 2**62, 2**62, 2**62 + 64], "exceeds the 64 pixels"),
        ],
    )
    def test_rejects_counts_a_cast_would_change(self, counts, fault):
        with pytest.raises(ValueError, match=fault):
            RleMask(8, 8, counts)

    def test_running_total_past_the_pixels_rejected(self):
        # 65 runs of 2**58 on 2**58 pixels: the int64 sum wraps round to
        # 2**58, and an accepted mask would have area -2**63
        with pytest.raises(ValueError, match="^running total exceeds the 288230376151711744 pixels"):
            RleMask(2**29, 2**29, [2**58] * 65)

    def test_mask_of_2_59_pixels_rejected(self):
        # the wire format cannot write a run of 2**59 pixels or more
        with pytest.raises(ValueError, match=r"^mask of 1152921504606846976 pixels, more than 2\*\*59 - 1"):
            RleMask(2**30, 2**30, [16, 16, 2**60 - 32])
        with pytest.raises(ValueError, match=r"^mask of 576460752303423488 pixels"):
            RleMask(1, 2**59, [2**59])
        assert RleMask(1, 2**59 - 1, [0, 2**59 - 1]).area == 2**59 - 1

    @pytest.mark.parametrize(
        "width, height, counts, fault",
        [
            (0, 4, [4], "mask dimensions must be positive"),
            (2, 2, [], "counts must be a non-empty 1-D sequence"),
            (2, 2, [[4]], "counts must be a non-empty 1-D sequence"),
            (2, 2, [-1, 5], "counts must be non-negative"),
            (2, 2, [1, 0, 3], "zero-length run beyond the leading position"),
            (2, 2, [3], "counts sum to 3, expected 4"),
            (2, 2, [5], "counts sum to 5, expected 4"),
        ],
    )
    def test_fault_names_the_rule(self, width, height, counts, fault):
        with pytest.raises(ValueError) as info:
            RleMask(width, height, counts)
        assert str(info.value) == fault

    def test_integer_counts_of_any_width_accepted(self):
        expected = RleMask(8, 8, [10, 54])
        for counts in ([10, 54], (10, 54), np.array([10, 54], dtype=np.int32),
                       np.array([10, 54], dtype=np.uint8)):
            mask = RleMask(8, 8, counts)
            assert mask == expected and mask.counts.dtype == np.int64


class TestMaskIou:
    def test_identical(self):
        mask = np.eye(4, dtype=bool)
        assert mask_iou(mask, mask) == 1.0

    def test_disjoint(self):
        a = np.zeros((2, 2), dtype=bool)
        b = np.zeros((2, 2), dtype=bool)
        a[0, 0] = True
        b[1, 1] = True
        assert mask_iou(a, b) == 0.0

    def test_overlapping_rectangles(self):
        # two 2x4 rectangles overlapping on 2x2: 4 / 12
        a = np.zeros((4, 6), dtype=bool)
        b = np.zeros((4, 6), dtype=bool)
        a[0:2, 0:4] = True
        b[0:2, 2:6] = True
        assert mask_iou(a, b) == pytest.approx(1 / 3, abs=1e-15)

    def test_both_empty_is_zero(self):
        empty = np.zeros((3, 3), dtype=bool)
        assert mask_iou(empty, empty) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mask_iou(np.zeros((2, 2), dtype=bool), np.zeros((2, 3), dtype=bool))

    def test_symmetric_bounded_and_one_iff_equal(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            a = rng.random((6, 6)) < 0.4
            b = rng.random((6, 6)) < 0.4
            iou = mask_iou(a, b)
            assert iou == mask_iou(b, a)
            assert 0.0 <= iou <= 1.0
            if a.any() and iou == 1.0:
                assert np.array_equal(a, b)


class TestBoxIou:
    def test_identical(self):
        box = BBox(1, 2, 3, 4)
        assert box_iou(box, box) == 1.0

    def test_touching_disjoint(self):
        assert box_iou(BBox(0, 0, 1, 1), BBox(1, 0, 1, 1)) == 0.0

    def test_half_offset_unit_boxes(self):
        assert box_iou(BBox(0, 0, 1, 1), BBox(0.5, 0, 1, 1)) == pytest.approx(1 / 3, abs=1e-15)

    def test_degenerate(self):
        assert box_iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = BBox(*rng.uniform(0, 10, size=2), *rng.uniform(0.1, 5, size=2))
            b = BBox(*rng.uniform(0, 10, size=2), *rng.uniform(0.1, 5, size=2))
            assert box_iou(a, b) == box_iou(b, a)
            assert 0.0 <= box_iou(a, b) <= 1.0

    def test_negative_sides_rejected(self):
        with pytest.raises(ValueError):
            BBox(0, 0, -1, 1)


class TestSizeBucket:
    def test_paper_thresholds(self):
        assert size_bucket(100 * 100) is SizeBucket.SMALL
        assert size_bucket(150 * 150) is SizeBucket.MEDIUM
        assert size_bucket(300 * 300) is SizeBucket.LARGE

    def test_boundaries_are_medium(self):
        assert size_bucket(113 * 113) is SizeBucket.MEDIUM
        assert size_bucket(256 * 256) is SizeBucket.MEDIUM

    def test_just_inside_boundaries(self):
        assert size_bucket(113 * 113 - 1) is SizeBucket.SMALL
        assert size_bucket(256 * 256 + 1) is SizeBucket.LARGE

    def test_custom_thresholds(self):
        assert size_bucket(10, thresholds=(2, 5)) is SizeBucket.MEDIUM
        assert size_bucket(3, thresholds=(2, 5)) is SizeBucket.SMALL

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError, match=r"^area must be non-negative, got -1$"):
            size_bucket(-1)

    @settings(max_examples=200)
    @given(
        areas=st.lists(
            st.one_of(
                st.integers(0, 2**59),
                st.floats(0.0, 2.0**60),
                st.sampled_from([math.nan, math.inf]),
            ),
            max_size=8,
        ),
        thresholds=st.one_of(
            # the paper's, equal, inverted, and squares past 2^53 as ints and floats
            st.sampled_from(
                [(113, 256), (50, 50), (256, 113), (2**29, 2**29 + 3), (2.0**29 + 0.5, 2.0**29)]
            ),
            st.tuples(st.integers(0, 2**30), st.integers(0, 2**30)),
            st.tuples(st.floats(0.0, 2.0**30), st.floats(0.0, 2.0**30)),
        ),
    )
    def test_bucket_codes_match_the_if_chain(self, areas, thresholds):
        """``_bucket_codes`` equals, element by element, the if-chain that
        ``size_bucket`` was written as, at and just below each squared
        threshold too, and ``size_bucket`` is its one-area view."""

        def reference(area):
            t1, t2 = thresholds
            if area < t1 * t1:
                return 0
            if area <= t2 * t2:
                return 1
            return 2

        for square in (t * t for t in thresholds):
            if isinstance(square, int):
                areas = areas + [square, square - 1]
            else:  # the float, the one below it, and the ints around it
                areas = areas + [square, math.nextafter(square, -math.inf)]
                areas = areas + [int(square) - 1, int(square), int(square) + 1]
        want = [reference(area) for area in areas]
        assert core._bucket_codes(areas, thresholds).tolist() == want
        buckets = list(SizeBucket)
        for area, code in zip(areas, want):
            if not area < 0:
                assert size_bucket(area, thresholds) is buckets[code], area


class TestMaskBbox:
    def test_tight_box(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:5, 1:3] = True
        assert mask_bbox(mask) == BBox(1, 2, 2, 3)

    def test_empty(self):
        assert mask_bbox(np.zeros((3, 3), dtype=bool)) == BBox(0, 0, 0, 0)
