import contextlib
import json
import math
import random
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskpost import (
    BBox,
    Detection,
    FieldInstance,
    RleMask,
    ScoreField,
    SchemaError,
    box_iou_matrix,
    dataset_ground_truth,
    load_dataset,
    load_field_archive,
    load_results,
    mask_bbox,
    median_sqrt_area,
    rasterize_polygon,
    rasterize_polygons,
    rle_decode,
    rle_encode,
    rle_string_decode,
    rle_string_encode,
    rle_strings_decode,
    rle_strings_encode,
    size_histogram,
    write_field_archive,
    write_results,
)
from maskpost import coco_io, core
from maskpost.fusion import _Columns
from oracles import rle_counts_to_string, rle_string_to_counts, shoelace_area
from scenario import pad_value

# box coordinates about half and all of the float range, and their negations
HUGE = [1e154, -1e154, 8.9e307, -8.9e307, 1e308, -1e308, 1.7e308, -1.7e308]

GOLDEN = json.loads((Path(__file__).parent / "data" / "rle_golden.json").read_text())


class TestRleStrings:
    def test_golden_fixtures_decode(self):
        for entry in GOLDEN:
            rle = rle_string_decode(entry["string"], entry["width"], entry["height"])
            assert rle.counts.tolist() == entry["counts"]

    def test_golden_fixtures_encode(self):
        for entry in GOLDEN:
            rle = RleMask(entry["width"], entry["height"], entry["counts"])
            assert rle_string_encode(rle) == entry["string"]

    def test_single_run(self):
        rle = RleMask(2, 2, [4])
        s = rle_string_encode(rle)
        assert rle_string_decode(s, 2, 2).counts.tolist() == [4]

    def test_one_pixel_foreground(self):
        rle = RleMask(1, 1, [0, 1])
        assert rle_string_decode(rle_string_encode(rle), 1, 1).counts.tolist() == [0, 1]

    def test_roundtrip_random(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            h = int(rng.integers(1, 50))
            w = int(rng.integers(1, 50))
            mask = rng.random((h, w)) < rng.uniform(0, 1)
            rle = rle_encode(mask)
            s = rle_string_encode(rle)
            back = rle_string_decode(s, w, h)
            assert back == rle
            # canonical strings survive the reverse direction too
            assert rle_string_encode(back) == s
            # and the transliterated reference agrees byte for byte
            assert rle_counts_to_string(rle.counts.tolist()) == s
            assert rle_string_to_counts(s) == rle.counts.tolist()

    @given(
        st.integers(0, 2**40),
        st.lists(st.one_of(st.integers(1, 40), st.integers(1, 2**40)), max_size=30),
    )
    def test_roundtrip_arbitrary_counts(self, lead, runs):
        # large runs next to small ones make the two-back deltas negative
        counts = [lead, *runs] if lead or runs else [1]
        rle = RleMask(1, sum(counts), counts)
        s = rle_string_encode(rle)
        assert rle_string_decode(s, 1, sum(counts)) == rle
        assert s == rle_counts_to_string(counts)
        assert rle_string_to_counts(s) == counts

    def test_malformed_string_rejected(self):
        with pytest.raises(SchemaError):
            rle_string_decode("\x01", 2, 2)

    def test_wrong_size_rejected(self):
        with pytest.raises(SchemaError):
            rle_string_decode("4", 3, 3)  # decodes to [4], sum != 9


# one mask's counts: a leading run that may be 0, then runs up to 2**40, so
# that the two-back deltas are large and of both signs; ``[n]`` included
_mask_counts = st.tuples(
    st.integers(0, 2**40),
    st.lists(st.one_of(st.integers(1, 40), st.integers(1, 2**40)), max_size=12),
).map(lambda lr: [lr[0], *lr[1]] if lr[0] or lr[1] else [1])


@st.composite
def _edited_string(draw):
    """``(string, (width, height))``: a valid compressed string whose values
    take 1 to 12 characters, of both signs, often with one edit: a character
    replaced (by a valid or an invalid one), inserted or deleted, the string
    truncated, emptied, a span of it repeated, or a value stretched by
    continuation characters."""
    lead = draw(st.integers(0, 2**55))
    runs = draw(st.lists(st.one_of(st.integers(1, 40), st.integers(1, 2**55)), max_size=8))
    counts = [lead, *runs] if lead or runs else [1]
    s = rle_counts_to_string(counts)
    size = (1, sum(counts)) if draw(st.booleans()) else (sum(counts), 1)
    edit = draw(st.sampled_from(
        ["none", "replace", "insert", "delete", "truncate", "empty", "repeat", "stretch"]
    ))
    i = draw(st.integers(0, len(s)))
    char = draw(st.one_of(st.characters(min_codepoint=48, max_codepoint=111),
                          st.sampled_from(["/", "p", "\x01", "é"])))
    if edit == "replace" and i < len(s):
        s = s[:i] + char + s[i + 1 :]
    elif edit == "insert":
        s = s[:i] + char + s[i:]
    elif edit == "delete":
        s = s[:i] + s[i + 1 :]
    elif edit == "truncate":
        s = s[:i]
    elif edit == "empty":
        s = ""
    elif edit == "stretch":
        s = s[:i] + "P" * draw(st.integers(1, 13)) + s[i:]
    elif edit == "repeat":
        j = draw(st.integers(i, len(s)))
        s = s[:j] + s[i:j] + s[j:]
    return s, size


class TestBatchedRleStrings:
    @given(
        st.lists(st.tuples(_mask_counts, st.one_of(st.none(), st.integers(0, 12))), max_size=8),
        st.sampled_from([1, 5, coco_io._SLICE_SIZE]),
    )
    def test_canonical_flag_is_whether_the_encoder_writes_the_string(self, drawn, slice_size):
        # a padded spelling has one extra sign-extension chunk on one value
        strings = [rle_counts_to_string(c) if j is None else pad_value(rle_counts_to_string(c), j)
                   for c, j in drawn]
        sizes = [(1, sum(c)) for c, _ in drawn]
        masks = [(s, w, h) for s, (w, h) in zip(strings, sizes)]
        with patch.object(coco_io, "_SLICE_SIZE", slice_size):  # many slices per call
            wire = coco_io._finish(masks, [None] * len(masks), "results")
        assert masks == [RleMask(1, sum(c), c) for c, _ in drawn]
        canonical = [s is not None for s in wire]
        assert canonical == [rle_strings_encode([m]) == [s] for m, s in zip(masks, strings)]
        assert canonical == [j is None for _, j in drawn]
        assert wire == [s if j is None else None for s, (_, j) in zip(strings, drawn)]

    @given(
        st.lists(st.tuples(_mask_counts, st.booleans()), max_size=20),
        st.sampled_from([1, 5, 64, coco_io._SLICE_SIZE]),
    )
    def test_equals_oracle_and_inverts(self, drawn, slice_size):
        sizes = [(1, sum(c)) if tall else (sum(c), 1) for c, tall in drawn]
        masks = [RleMask(w, h, c) for (w, h), (c, _) in zip(sizes, drawn)]
        with patch.object(coco_io, "_SLICE_SIZE", slice_size):  # many slices per call
            strings = rle_strings_encode(masks)
            assert strings == [rle_counts_to_string(c) for c, _ in drawn]
            assert rle_strings_decode(strings, sizes) == masks

    def test_batch_equals_scalar(self):
        rng = np.random.default_rng(53)
        masks = []
        for _ in range(300):
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            masks.append(rle_encode(rng.random((h, w)) < rng.uniform(0, 1)))
        strings = rle_strings_encode(masks)
        assert strings == [rle_string_encode(m) for m in masks]
        sizes = [(m.width, m.height) for m in masks]
        decoded = rle_strings_decode(strings, sizes)
        assert decoded == [rle_string_decode(s, w, h) for s, (w, h) in zip(strings, sizes)]
        assert decoded == masks

    def test_sides_are_kept_as_python_ints(self):
        # as RleMask keeps them, whatever integer type a size came as
        [mask] = rle_strings_decode(["52203"], [(np.int64(4), np.int32(4))])
        assert mask == RleMask(4, 4, mask.counts)
        assert (type(mask.width), type(mask.height)) == (int, int)

    def test_empty_batch(self):
        assert rle_strings_encode([]) == []
        assert rle_strings_decode([], []) == []

    @pytest.mark.parametrize(
        "bad, fault",
        [
            ("0P", "truncated RLE string"),
            ("0\u00e9", "invalid RLE character '\u00e9'"),
            ("0/", "invalid RLE character '/'"),
            ("oooooooooooooooo?", "RLE value of 17 characters, more than 12"),
            (
                rle_counts_to_string([0, 17]),
                "RLE value 17 is larger in magnitude than the mask's 16 pixels",
            ),
            (rle_counts_to_string([2**40]), "larger in magnitude"),
            ("", "non-empty"),
            ("4", "counts sum to 4, expected 16"),
            ("0000", "zero-length run"),
        ],
    )
    def test_fault_names_the_string(self, bad, fault):
        good = rle_string_encode(RleMask(4, 4, [3, 13]))
        with pytest.raises(SchemaError) as info:
            rle_strings_decode([good, bad, good], [(4, 4)] * 3, ["a", "b", "c"])
        assert str(info.value).startswith("b: ")
        assert fault in str(info.value)

    def test_first_string_at_fault_is_named(self):
        # "b" sums wrong, "c" holds a bad character: the earlier string wins
        # even though its fault is found in a later pass
        with pytest.raises(SchemaError, match=r"^b: .*counts sum to 4"):
            rle_strings_decode(["`0", "4", "\x01"], [(4, 4)] * 3, ["a", "b", "c"])

    def test_zero_size_named_before_value_magnitude(self):
        # a 0x4 mask has 0 pixels, so every value is "larger" than its pixel
        # count; the size is the fault to name
        with pytest.raises(SchemaError) as info:
            rle_strings_decode(["1"], [(0, 4)])
        assert str(info.value) == (
            "strings[0]: RLE string decodes to invalid counts: mask dimensions must be positive"
        )

    def test_wrapped_running_total_rejected(self):
        # 65 runs of 2**58 on 2**58 pixels, whose int64 sum wraps round to 2**58
        wrapping = "PPPPPPPPPPP8" * 3 + "0" * 62
        assert rle_string_to_counts(wrapping) == [2**58] * 65
        with pytest.raises(SchemaError, match="running total exceeds the 288230376151711744 pixels"):
            rle_strings_decode([wrapping], [(2**29, 2**29)])

    @settings(max_examples=300)
    @given(
        st.lists(st.one_of(st.integers(-2, 40), st.integers(1 - 2**62, 2**62)), max_size=12),
        st.one_of(st.none(), st.tuples(st.integers(-2, 2**31), st.integers(-2, 2**31))),
    )
    # the counts rule's edges: a running total that wraps round to the pixel
    # count, a mask whose runs need 13-character values, a zero-size mask
    @example([2**58] * 65, (2**29, 2**29))
    @example([16, 16, 2**60 - 32], (2**30, 2**30))
    @example([1], (0, 4))
    def test_string_and_list_get_one_verdict(self, counts, size):
        # without a drawn size, a column of sum(counts) pixels, so that the
        # counts can fill it; two counts differ by less than 2**63, so the
        # encoder's two-back deltas do not wrap
        width, height = size or (1, sum(counts))
        try:
            mask, refused = RleMask(width, height, counts), None
        except ValueError as exc:
            mask, refused = None, str(exc)
        unchecked = core._rle_masks([(width, height)], np.array(counts, np.int64), [0, len(counts)])
        string = rle_strings_encode(unchecked)[0] if counts else ""
        try:
            decoded = rle_strings_decode([string], [(width, height)])[0]
        except SchemaError as exc:
            assert refused is not None, f"decoder refused a valid mask: {exc}"
            prefix = "strings[0]: RLE string decodes to invalid counts: "
            if str(exc).startswith(prefix):  # else a wire rule refused it first
                assert str(exc) == prefix + refused
        else:
            assert refused is None, f"decoder accepted what the constructor refuses: {refused}"
            assert decoded == mask
            assert rle_strings_decode(rle_strings_encode([mask]), [(width, height)]) == [mask]

    def test_fault_in_a_later_slice(self):
        strings = [rle_string_encode(RleMask(4, 4, [16]))] * 50 + ["0P"]
        with patch.object(coco_io, "_SLICE_SIZE", 8):
            with pytest.raises(SchemaError, match=r"^strings\[50\]: truncated"):
                rle_strings_decode(strings, [(4, 4)] * 51)

    @settings(max_examples=300)
    @given(st.lists(_edited_string(), min_size=1, max_size=8), st.sampled_from([1, 5, 64, 1 << 13]))
    # a string whose first value is too long, after a valid one
    @example([("3", (3, 1)), ("P" * 12 + "3", (1, 3))], 1 << 13)
    def test_faulty_batch_equals_strings_alone(self, drawn, slice_size):
        # each string's verdict is its own, whatever its neighbours and
        # wherever the slices fall: a truncated string's last characters run
        # on into the next string, which must not take the blame
        strings, sizes = [s for s, _ in drawn], [size for _, size in drawn]
        contexts = [f"s{k}" for k in range(len(strings))]
        alone = []
        for s, size, context in zip(strings, sizes, contexts):
            try:
                alone.append(rle_strings_decode([s], [size], [context])[0])
            except SchemaError as exc:
                alone.append(str(exc))
        with patch.object(coco_io, "_SLICE_SIZE", slice_size):
            refused = next((a for a in alone if isinstance(a, str)), None)
            if refused is None:
                assert rle_strings_decode(strings, sizes, contexts) == alone
            else:
                with pytest.raises(SchemaError) as info:
                    rle_strings_decode(strings, sizes, contexts)
                assert str(info.value) == refused


def scanline_reference(verts, width, height):
    """Even-odd fill by the per-row scanline that ``rasterize_polygon`` used
    before it marked crossings in an array: each row's crossings are listed,
    sorted and filled between pairs. ``verts`` are float ``(x, y)`` pairs
    whose crossings are all finite."""
    mask = np.zeros((height, width), dtype=bool)
    crossings = [[] for _ in range(height)]
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        if y1 == y2:
            continue
        ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
        r0 = max(0, math.ceil(ylo - 0.5))
        r1 = min(height - 1, math.ceil(yhi - 0.5) - 1)
        for row in range(r0, r1 + 1):
            yc = row + 0.5
            crossings[row].append(x1 + (yc - y1) * (x2 - x1) / (y2 - y1))
    for row, xs in enumerate(crossings):
        xs.sort()
        for a, b in zip(xs[::2], xs[1::2]):
            j0 = max(0, math.ceil(a - 0.5))
            j1 = min(width - 1, math.ceil(b - 0.5) - 1)
            if j1 >= j0:
                mask[row, j0 : j1 + 1] = True
    return mask


@st.composite
def polygons(draw):
    """``(vertices, width, height)``: 3-9 vertices on integers and half
    integers (centers fall on edges and vertices), on arbitrary floats, or
    up to 1e6 away, often outside the image; each vertex may repeat its
    predecessor's x or y, which makes vertical and horizontal edges."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    coordinate = st.one_of(
        st.integers(-4, 44).map(float),
        st.integers(-8, 88).map(lambda v: v / 2),
        st.floats(-10, 50),
        st.floats(-1e6, 1e6),
    )
    verts = []
    for _ in range(draw(st.integers(3, 9))):
        x, y = draw(coordinate), draw(coordinate)
        if verts:
            repeat = draw(st.sampled_from(["", "x", "y"]))
            x = verts[-1][0] if repeat == "x" else x
            y = verts[-1][1] if repeat == "y" else y
        verts.append((x, y))
    return verts, width, height


class TestRasterizePolygon:
    def test_axis_aligned_square(self):
        # square over [0,2]x[0,2] covers exactly pixels (0..1, 0..1)
        mask = rasterize_polygon([(0, 0), (2, 0), (2, 2), (0, 2)], 4, 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[0:2, 0:2] = True
        assert np.array_equal(mask, expected)

    def test_outside_image_empty(self):
        mask = rasterize_polygon([(10, 10), (12, 10), (12, 12), (10, 12)], 4, 4)
        assert not mask.any()

    def test_triangle_union_equals_square(self):
        square = rasterize_polygon([(0, 0), (4, 0), (4, 4), (0, 4)], 6, 6)
        tri_a = [(0, 0), (4, 0), (4, 4)]
        tri_b = [(0, 0), (4, 4), (0, 4)]
        union = rasterize_polygons([tri_a, tri_b], 6, 6)
        assert np.array_equal(union, square)

    def test_flat_coordinate_list_accepted(self):
        flat = [0, 0, 2, 0, 2, 2, 0, 2]
        pairs = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert np.array_equal(rasterize_polygon(flat, 4, 4), rasterize_polygon(pairs, 4, 4))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            rasterize_polygon([(0, 0), (1, 1)], 4, 4)

    def test_area_close_to_analytic_for_convex_shapes(self):
        fixtures = [
            [(1, 1), (13, 1), (13, 9), (1, 9)],            # rectangle
            [(2, 2), (14, 2), (8, 12)],                     # triangle
            [(8, 1), (14, 5), (12, 13), (4, 13), (2, 5)],   # convex pentagon
        ]
        for verts in fixtures:
            mask = rasterize_polygon(verts, 16, 16)
            analytic = shoelace_area(verts)
            width = max(x for x, _ in verts) - min(x for x, _ in verts)
            height = max(y for _, y in verts) - min(y for _, y in verts)
            assert abs(int(mask.sum()) - analytic) <= max(width, height)

    @pytest.mark.parametrize("bad", [{}, "5", True, None, 10**400], ids=["dict", "str", "bool", "null", "10**400"])
    def test_coordinate_that_is_not_a_number_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^polygon coordinate 2: "):
            rasterize_polygon([0, 0, bad, 0, 2, 2], 4, 4)
        with pytest.raises(ValueError, match=r"^polygon vertex 1: "):
            rasterize_polygon([(0, 0), (bad, 0), (2, 2)], 4, 4)

    def test_numeric_array_accepted(self):
        pairs = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert np.array_equal(rasterize_polygon(np.array(pairs), 4, 4), rasterize_polygon(pairs, 4, 4))
        pairs = [(0.4, 0.2), (5.5, 0.7), (4.25, 5.9), (0.1, 4.5)]
        for verts in (np.array(pairs), np.array(pairs).ravel()):
            assert np.array_equal(rasterize_polygon(verts, 6, 6), rasterize_polygon(pairs, 6, 6))

    def test_bool_array_rejected_as_a_bool_list_is(self):
        verts = np.array([(True, False), (True, True), (False, True)])
        with pytest.raises(ValueError, match=r"^polygon vertex 0: expected a number, got bool$"):
            rasterize_polygon(verts, 4, 4)
        with pytest.raises(ValueError, match=r"^polygon vertex 0: expected a number, got bool$"):
            rasterize_polygon(verts.tolist(), 4, 4)

    @pytest.mark.parametrize(
        "verts",
        [
            [(-1e308, 0), (1e308, 4), (0, 4)],   # the crossing overflows to inf
            [(0, 1e308), (4, -1e308), (4, 0)],   # inf / inf: a NaN crossing
        ],
    )
    def test_crossing_beyond_float_range_rejected(self, verts):
        with pytest.raises(ValueError, match=r"^polygon edge 0 crosses pixel row \d+ at .*: coordinates too large$"):
            rasterize_polygon(verts, 4, 4)

    def test_huge_finite_crossings_clip_to_the_image(self):
        verts = [(-1e300, 0), (1e300, 0), (1e300, 4), (-1e300, 4)]
        assert rasterize_polygon(verts, 4, 4).all()

    @settings(max_examples=300)
    @given(polygons(), st.booleans())
    def test_equals_scanline_reference(self, polygon, flat):
        verts, width, height = polygon
        given_as = [c for v in verts for c in v] if flat else [list(v) for v in verts]
        mask = rasterize_polygon(given_as, width, height)
        assert mask.dtype == bool and mask.shape == (height, width)
        assert np.array_equal(mask, scanline_reference(verts, width, height))

    def test_even_odd_hole(self):
        outer = [(0, 0), (8, 0), (8, 8), (0, 8)]
        inner = [(2, 2), (6, 2), (6, 6), (2, 6)]
        donut = rasterize_polygon(outer + inner[::-1], 10, 10)
        # even-odd: the inner square is a hole
        assert donut[1, 1] and not donut[4, 4]


class TestDatasetIo:
    @staticmethod
    def _dataset_dict():
        bits = np.zeros((8, 8), dtype=bool)
        bits[1:4, 1:4] = True
        rle = rle_encode(bits)
        return {
            "info": {"description": "ignored extra"},
            "images": [
                {"id": 1, "width": 8, "height": 8, "file_name": "a.png", "extra": 1},
                {"id": 2, "width": 8, "height": 8, "file_name": "b.png"},
            ],
            "annotations": [
                {
                    "id": 10,
                    "image_id": 1,
                    "category_id": 1,
                    "segmentation": {"size": [8, 8], "counts": rle_string_encode(rle)},
                    "bbox": [1, 1, 3, 3],
                    "area": 9,
                },
                {
                    "id": 11,
                    "image_id": 2,
                    "category_id": 2,
                    "segmentation": [[1, 1, 5, 1, 5, 5, 1, 5]],
                    "bbox": [1, 1, 4, 4],
                },
            ],
            "categories": [{"id": 1, "name": "chair"}, {"id": 2, "name": "table"}],
        }

    def test_load_and_ground_truth(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(self._dataset_dict()))
        ds = load_dataset(path)
        assert [img.id for img in ds.images] == [1, 2]
        assert len(ds.categories) == 2
        gts = dataset_ground_truth(ds)
        assert len(gts) == 2
        assert gts[0].area == 9
        assert gts[1].area == 16  # 4x4 pixel block from the polygon

    @staticmethod
    def _one_annotation(tmp_path, segmentation):
        """Load a dataset of one 2x2 image holding one annotation."""
        path = tmp_path / "gt.json"
        path.write_text(
            json.dumps(
                {
                    "images": [{"id": 1, "width": 2, "height": 2}],
                    "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "segmentation": segmentation}],
                    "categories": [{"id": 1}],
                }
            )
        )
        return load_dataset(path)

    def test_ground_truth_from_counts_list(self, tmp_path):
        ds = self._one_annotation(tmp_path, {"size": [2, 2], "counts": [2, 1, 1]})
        (gt,) = dataset_ground_truth(ds)
        assert (gt.mask.width, gt.mask.height) == (2, 2)
        assert gt.mask.counts.tolist() == [2, 1, 1]
        assert gt.area == 1

    def test_ground_truth_size_mismatch(self, tmp_path):
        ds = self._one_annotation(tmp_path, {"size": [3, 3], "counts": [9]})
        with pytest.raises(SchemaError) as exc:
            dataset_ground_truth(ds)
        assert str(exc.value) == "annotations[0].segmentation.size: mask is 3x3 but the image is 2x2"

    def test_unknown_fields_ignored(self, tmp_path):
        data = self._dataset_dict()
        data["licenses"] = ["whatever"]
        data["annotations"][0]["mystery"] = {"deep": True}
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        assert len(load_dataset(path).annotations) == 2

    def test_missing_image_reference(self, tmp_path):
        data = self._dataset_dict()
        data["annotations"][0]["image_id"] = 99
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="99"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "section, fault",
        [
            ("images", r"images\[2\]\.id: image 1 already appears at images\[0\]"),
            ("categories", r"categories\[2\]\.id: category 1 already appears at categories\[0\]"),
        ],
    )
    def test_repeated_id_rejected(self, tmp_path, section, fault):
        data = self._dataset_dict()
        data[section].append(dict(data[section][0]))
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=fault):
            load_dataset(path)

    def test_out_of_bounds_bbox_warns(self, tmp_path):
        data = self._dataset_dict()
        data["annotations"][0]["bbox"] = [5, 5, 10, 10]
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        with pytest.warns(UserWarning):
            load_dataset(path)

    @pytest.mark.parametrize(
        "bbox", [[1, 1, float("nan"), 3], [1, 1, 3, -1], pytest.param([1, 1, 10**400, 3], id="10**400")]
    )
    def test_malformed_bbox_rejected(self, tmp_path, bbox):
        data = self._dataset_dict()
        data["annotations"][1]["bbox"] = bbox
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"annotations\[1\]\.bbox"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "section, value, fault",
        [
            ("images", [1], r"images\[0\]: expected an object"),
            ("annotations", ["x"], r"annotations\[0\]: expected an object"),
            ("categories", "chair", r"categories: expected a list"),
            ("images", {"id": 1}, r"images: expected a list"),
        ],
    )
    def test_malformed_section_rejected(self, tmp_path, section, value, fault):
        data = self._dataset_dict()
        data[section] = value
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=fault):
            load_dataset(path)

    @pytest.mark.parametrize("iscrowd", [1, True, "0"])
    def test_crowd_annotation_rejected(self, tmp_path, iscrowd):
        data = self._dataset_dict()
        data["annotations"][1]["iscrowd"] = iscrowd
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"annotations\[1\]\.iscrowd: crowd regions"):
            load_dataset(path)

    def test_non_crowd_annotation_accepted(self, tmp_path):
        data = self._dataset_dict()
        for ann in data["annotations"]:
            ann["iscrowd"] = 0
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(data))
        assert len(dataset_ground_truth(load_dataset(path))) == 2

    def test_missing_file(self):
        with pytest.raises(SchemaError):
            load_dataset("/nonexistent/gt.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_dataset(path)


class TestResultsIo:
    @staticmethod
    def _dets():
        bits = np.zeros((6, 6), dtype=bool)
        bits[2:5, 2:5] = True
        return [
            Detection(
                image_id=1,
                category_id=3,
                score=0.75,
                bbox=BBox(2, 2, 3, 3),
                mask=rle_encode(bits),
            ),
            Detection(image_id=2, category_id=1, score=0.25, bbox=BBox(0, 0, 2, 2)),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "results.json"
        dets = self._dets()
        write_results(path, dets)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].image_id == 1
        assert loaded[0].score == 0.75
        assert loaded[0].mask == dets[0].mask
        assert loaded[1].bbox == dets[1].bbox

    def test_semantic_roundtrip_write_load_write(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_results(a, self._dets())
        write_results(b, load_results(a))
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=30)
    @given(st.lists(st.tuples(_mask_counts, st.one_of(st.none(), st.integers(0, 12)), st.booleans()),
                    max_size=6))
    def test_kept_strings_write_the_bytes_of_encoding(self, drawn):
        """A results file read as columns keeps each canonical string and
        writes it as read; writing without the kept strings, and
        ``write_results`` over ``load_results``, encode every mask. The
        three files are byte-identical."""
        records = []
        for counts, j, masked in drawn:
            rec = {"image_id": 1, "category_id": 2, "score": 0.5, "bbox": [0, 0, 1, 1]}
            if masked:
                s = rle_counts_to_string(counts)
                s = s if j is None else pad_value(s, j)
                rec["segmentation"] = {"size": [sum(counts), 1], "counts": s}
            records.append(rec)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "in.json").write_text(json.dumps(records))
            cols = coco_io._load_columns(tmp / "in.json")
            assert cols.wire == [rec["segmentation"]["counts"] if masked and j is None else None
                                 for rec, (_, j, masked) in zip(records, drawn)]
            coco_io._write_columns(tmp / "kept.json", cols)
            cols.wire = [None] * len(cols)
            coco_io._write_columns(tmp / "encoded.json", cols)
            write_results(tmp / "listed.json", load_results(tmp / "in.json"))
            written = {(tmp / name).read_bytes() for name in ("kept.json", "encoded.json", "listed.json")}
        assert len(written) == 1

    def test_extra_fields_tolerated(self, tmp_path):
        path = tmp_path / "results.json"
        records = [
            {"image_id": 1, "category_id": 1, "score": 0.5, "bbox": [0, 0, 2, 2], "rank": 7}
        ]
        path.write_text(json.dumps(records))
        assert load_results(path)[0].score == 0.5

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 1.5, "bbox": [0, 0, 1, 1]}]))
        with pytest.raises(SchemaError, match="score"):
            load_results(path)

    @pytest.mark.parametrize(
        "bbox, fault",
        [
            ([0, 0, float("nan"), 1], "non-finite"),
            ([0, float("inf"), 1, 1], "non-finite"),
            ([0, 0, -1, 1], "negative side"),
            ([1e308, 0, 1e308, 1], "coordinates too large"),
            ([0, 0, 1e154, 1e154], "coordinates too large"),
            ([-1e308, 0, 1, 1], "coordinates too large"),
        ],
    )
    def test_malformed_bbox_rejected(self, tmp_path, bbox, fault):
        path = tmp_path / "results.json"
        ok = {"image_id": 1, "category_id": 1, "score": 0.5, "bbox": [0, 0, 1, 1]}
        path.write_text(json.dumps([ok, dict(ok, bbox=bbox)]))
        with pytest.raises(SchemaError, match=rf"results\[1\]\.bbox: {fault}"):
            load_results(path)

    # ordinary values and values near half and all of the float range
    @given(
        st.lists(
            st.tuples(
                *[st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(HUGE))] * 2,
                *[st.one_of(st.floats(0, None, allow_infinity=False), st.sampled_from(HUGE[::2]))] * 2,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @example([(1e308, 0.0, 1.0, 1.0), (-1e308, 0.0, 1.0, 1.0)])  # corners 2e308 apart
    @example([(0.0, 0.0, 1e154, 1e154)])  # two areas of 1e308
    def test_accepted_boxes_have_finite_iou(self, raw):
        boxes = []
        for value in raw:
            with contextlib.suppress(SchemaError):
                boxes.append(BBox(*coco_io._as_box(list(value), "bbox")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ious = box_iou_matrix(boxes, boxes)
        assert np.isfinite(ious).all()

    @pytest.mark.parametrize(
        "segmentation, fault",
        [
            ({"counts": "0"}, r"\.size: missing"),
            ({"size": [4], "counts": "0"}, r"\.size: expected \[height, width\]"),
            ({"size": [4, 4.5], "counts": "0"}, r"\.size: expected an integer, got float"),
            ({"size": [4, 4]}, r"\.counts: missing"),
            ({"size": [4, 4], "counts": 7}, r"\.counts: expected a string or list"),
        ],
    )
    def test_malformed_segmentation_rejected(self, tmp_path, segmentation, fault):
        path = tmp_path / "results.json"
        ok = {"image_id": 1, "category_id": 1, "score": 0.5, "bbox": [0, 0, 1, 1]}
        path.write_text(json.dumps([ok, dict(ok, segmentation=segmentation)]))
        with pytest.raises(SchemaError, match=r"results\[1\]\.segmentation" + fault):
            load_results(path)

    def test_bbox_derived_from_mask(self, tmp_path):
        # records without a box, on images of two sizes and with an empty
        # mask, between records with one: in a results file and in a dataset
        rng = np.random.default_rng(59)
        block = np.zeros((5, 5), dtype=bool)
        block[1:3, 2:4] = True
        masks = [block, rng.random((4, 7)) < 0.5, np.zeros((5, 5), bool), rng.random((5, 5)) < 0.3]
        masks += [rng.random((4, 7)) < 0.2, rng.random((4, 7)) < 0.1]
        boxed = [1, 3]  # the records that carry a bbox
        segmentations = [
            {"size": list(bits.shape), "counts": rle_string_encode(rle_encode(bits))} for bits in masks
        ]
        images = [{"id": 1, "width": 5, "height": 5}, {"id": 2, "width": 7, "height": 4}]
        records = []
        for k, (bits, seg) in enumerate(zip(masks, segmentations)):
            rec = {"image_id": 1 + (bits.shape == (4, 7)), "category_id": 1, "segmentation": seg}
            records.append(dict(rec, bbox=[1.0, 1.0, 2.0, 3.0]) if k in boxed else rec)
        results, dataset = tmp_path / "results.json", tmp_path / "gt.json"
        results.write_text(json.dumps([dict(rec, score=0.5) for rec in records]))
        dataset.write_text(json.dumps({
            "images": images,
            "annotations": [dict(rec, id=k) for k, rec in enumerate(records)],
            "categories": [{"id": 1}],
        }))
        for found in load_results(results), dataset_ground_truth(load_dataset(dataset)):
            for k, (item, bits) in enumerate(zip(found, masks)):
                assert rle_decode(item.mask).tolist() == bits.tolist()
                assert item.bbox == (BBox(1, 1, 2, 3) if k in boxed else mask_bbox(bits))
            assert found[0].bbox == BBox(2, 1, 2, 2) and found[2].bbox == BBox(0, 0, 0, 0)

    def test_write_matches_json_dump_reference(self, tmp_path):
        rng = random.Random(57)
        dets = []
        for _ in range(200):
            w, h = rng.randint(1, 30), rng.randint(1, 30)
            bits = np.array([rng.random() < 0.4 for _ in range(w * h)]).reshape(h, w)
            box = BBox(*(rng.uniform(0, 20) for _ in range(4)))
            mask = rle_encode(bits) if rng.random() < 0.8 else None
            dets.append(Detection(rng.randint(1, 9), rng.randint(1, 90), rng.random(), box, mask))
        records = []
        for det in dets:
            rec = {
                "image_id": det.image_id,
                "category_id": det.category_id,
                "score": det.score,
                "bbox": det.bbox.to_list(),
            }
            if det.mask is not None:
                rec["segmentation"] = {
                    "size": [det.mask.height, det.mask.width],
                    "counts": rle_counts_to_string(det.mask.counts.tolist()),
                }
            records.append(rec)
        for n in (0, 1, len(dets)):
            reference = tmp_path / "reference.json"
            with open(reference, "w") as fh:
                json.dump(records[:n], fh, sort_keys=True)
                fh.write("\n")
            written = tmp_path / "written.json"
            write_results(written, dets[:n])
            assert written.read_bytes() == reference.read_bytes()

    def test_needs_bbox_or_mask(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 0.5}]))
        with pytest.raises(SchemaError):
            load_results(path)


class TestFinishingStep:
    """Each reader checks every record, then decodes all of a file's
    compressed strings in one batched call and fills all missing boxes in
    one call; a record still reads as it does in a file of its own."""

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.sampled_from([1, 5, coco_io._SLICE_SIZE]))
    def test_record_reads_as_it_does_alone(self, data, slice_size):
        sides = data.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=2, max_size=2))
        images = [{"id": k + 1, "width": w, "height": h} for k, (w, h) in enumerate(sides)]
        annotations = []  # the kinds of segmentation drawn record by record, so mixed
        for k in range(data.draw(st.integers(1, 8))):
            image = data.draw(st.integers(0, 1))
            w, h = sides[image]
            kind = data.draw(st.sampled_from(["string", "list", "polygon"]))
            if kind == "polygon":
                halves = st.tuples(st.integers(-2, 2 * w + 2), st.integers(-2, 2 * h + 2))
                vertices = data.draw(st.lists(halves, min_size=3, max_size=5))
                segmentation = [[v / 2 for vertex in vertices for v in vertex]]
            else:
                bits = np.array(data.draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h)))
                rle = rle_encode(bits.reshape(h, w))
                counts = rle_string_encode(rle) if kind == "string" else rle.counts.tolist()
                segmentation = {"size": [h, w], "counts": counts}
            ann = {"id": k, "image_id": image + 1, "category_id": 1, "segmentation": segmentation}
            if data.draw(st.booleans()):  # a box within the image, of integers and a half
                x, y = data.draw(st.integers(0, w)), data.draw(st.integers(0, h))
                ann["bbox"] = [x, y, data.draw(st.integers(0, w - x)), data.draw(st.integers(0, h - y)) / 2]
            annotations.append(ann)
        results = [dict(a, score=0.5) for a in annotations if isinstance(a["segmentation"], dict)]

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.json"

            def read_results(records):
                path.write_text(json.dumps(records))
                return load_results(path)

            def read_dataset(anns):
                path.write_text(json.dumps({"images": images, "annotations": anns, "categories": [{"id": 1}]}))
                return dataset_ground_truth(load_dataset(path))

            with patch.object(coco_io, "_SLICE_SIZE", slice_size):  # many slices per file
                dets, gts = read_results(results), read_dataset(annotations)
            assert all(isinstance(item.bbox, BBox) for item in dets + gts)
            assert dets == [read_results([rec])[0] for rec in results]
            assert gts == [read_dataset([ann])[0] for ann in annotations]


def _per_record_columns(path) -> _Columns:
    """``coco_io._load_columns`` without its column pass: every record goes
    through ``_result_record``, in index order."""
    data = coco_io._read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: results file must be a JSON array")
    records = []
    for i, rec in enumerate(data):
        try:
            records.append(coco_io._result_record(rec))
        except SchemaError as exc:
            raise SchemaError(f"results[{i}]{exc}") from exc.__cause__
    columns = [list(c) for c in zip(*records)] or [[] for _ in range(5)]
    image_ids, category_ids, scores, boxes, masks = columns
    wire = coco_io._finish(masks, boxes, "results")
    scores, boxes = np.array(scores, np.float64), np.array(boxes, np.float64).reshape(-1, 4)
    return _Columns(image_ids, category_ids, scores, boxes, masks, wire, [None] * len(masks))


def _read_both(path):
    """``(outcome of the column pass, outcome of the per-record loop)``,
    each the columns or the exception raised."""
    outcomes = []
    for read in coco_io._load_columns, _per_record_columns:
        try:
            outcomes.append(read(path))
        except Exception as exc:  # noqa: BLE001 - compared below, whatever it is
            outcomes.append(exc)
    return outcomes


def _assert_same_columns(got: _Columns, want: _Columns) -> None:
    """Equal column for column: ids as the same Python ints, scores and
    boxes bit for bit, and equal masks, mask sides and wire strings."""
    for ids in ("image_id", "category_id"):
        assert [(type(v), v) for v in getattr(got, ids)] == [(type(v), v) for v in getattr(want, ids)]
    assert got.score.tobytes() == want.score.tobytes()
    assert got.box.shape == want.box.shape and got.box.tobytes() == want.box.tobytes()
    assert got.mask == want.mask

    def sides(cols):
        return [None if m is None else (type(m.width), m.width, type(m.height), m.height) for m in cols.mask]

    assert sides(got) == sides(want)
    assert (got.wire, got.source) == (want.wire, want.source)


# values a field of a results record may take in place of its usual one, and
# the marker of a key left out
_OFF_SHAPE = [True, False, 1, "1", None, float("nan"), float("inf"), float("-inf"), 10**400]
_MISSING = object()
# where _spoiled puts such a value: "record" replaces the whole record, an
# "entry" is one of the box's or the size's values, and "int bbox" and
# "counts list" put the shapes the per-record check also reads
_PLACES = ["record", "score", "image_id", "category_id", "bbox", "bbox entry", "int bbox",
           "segmentation", "size", "size entry", "counts", "counts list"]


def _spoiled(rec: dict, where: str, value, j: int = 0):
    """``rec`` with ``value`` at ``where`` (one of ``_PLACES``; entry ``j``
    of an entry list), in place unless the record itself is replaced."""
    segmentation = rec["segmentation"]
    if where == "record":
        return [rec] if value is _MISSING else value
    if where == "int bbox":
        rec["bbox"] = [0, 0, 2, 2]
    elif where == "counts list":
        size = segmentation["size"]
        segmentation["counts"] = rle_string_decode(segmentation["counts"], size[1], size[0]).counts.tolist()
    elif where.endswith(" entry"):
        entries = segmentation["size"] if where == "size entry" else rec.setdefault("bbox", [0.0] * 4)
        if isinstance(entries, list):
            entries[j % len(entries) : j % len(entries) + 1] = [] if value is _MISSING else [value]
    else:
        target = segmentation if where in ("size", "counts") else rec
        if value is _MISSING:
            target.pop(where, None)
        else:
            target[where] = value
    return rec


def _assert_reads_as_the_per_record_loop(records) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.json"
        path.write_text(json.dumps(records))
        got, want = _read_both(path)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        _assert_same_columns(got, want)


class TestColumnPass:
    """``_load_columns`` takes the records of the common shape in a column
    pass and sends every other record through ``_result_record``: the
    columns it returns, or the error it raises, are those of checking every
    record one by one."""

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_equals_the_per_record_loop(self, data):
        records = []
        for _ in range(data.draw(st.integers(0, 6))):
            h, w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
            bits = np.array(data.draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h)))
            rec = {
                "image_id": data.draw(st.sampled_from([1, 7, 2**70])),
                "category_id": data.draw(st.integers(1, 3)),
                "score": data.draw(st.one_of(st.floats(0, 1), st.sampled_from([0, 1, -0.0]))),
                "segmentation": {"size": [h, w], "counts": rle_string_encode(rle_encode(bits.reshape(h, w)))},
            }
            box = data.draw(st.sampled_from(["absent", "none", "floats"]))
            if box != "absent":  # of ordinary values, or near half and all of the float range
                values = st.one_of(st.floats(-9, 9), st.sampled_from(HUGE))
                rec["bbox"] = None if box == "none" else data.draw(st.lists(values, min_size=4, max_size=4))
            if data.draw(st.booleans()):  # one field off the common shape
                where = data.draw(st.sampled_from(_PLACES))
                value = data.draw(st.sampled_from([*_OFF_SHAPE, _MISSING]))
                rec = _spoiled(rec, where, value, data.draw(st.integers(0, 3)))
            records.append(rec)
        _assert_reads_as_the_per_record_loop(records)

    def test_each_off_shape_value_reads_as_the_per_record_loop(self):
        """Every value of ``_OFF_SHAPE`` at every place, and boxes of four
        floats that the array pass refuses, between two common records,
        with and without a faulty record after them: the first record at
        fault is named as the per-record loop names it."""
        cases = [(where, value, j) for where in _PLACES for value in [*_OFF_SHAPE, _MISSING]
                 for j in range(4 if where.endswith(" entry") else 1)]
        refused = [[0.0, 0.0, -1.0, 1.0], [1e308, 0.0, 1e308, 1.0], [0.0, 0.0, 1e154, 1e154]]
        for where, value, j in cases + [("bbox", box, 0) for box in refused]:
            ok = {"image_id": 1, "category_id": 2, "score": 0.5, "bbox": [0.0, 1.0, 2.0, 1.0],
                  "segmentation": {"size": [2, 3], "counts": "132"}}
            spoiled = _spoiled(json.loads(json.dumps(ok)), where, value, j)
            _assert_reads_as_the_per_record_loop([ok, spoiled, ok])
            _assert_reads_as_the_per_record_loop([ok, spoiled, ok, dict(ok, score=True)])

    def test_common_records_skip_the_per_record_check(self, tmp_path):
        seg = {"size": [2, 3], "counts": "132"}
        records = [
            {"image_id": 1, "category_id": 2, "score": 0.5, "segmentation": seg, "bbox": [0.0, 1.0, 2.0, 1.0]},
            {"image_id": 2**70, "category_id": 2, "score": 1, "segmentation": seg},
            {"image_id": 1, "category_id": 3, "score": 0, "segmentation": seg, "bbox": None},
            {"image_id": 1, "category_id": 3, "score": -0.0, "segmentation": seg, "rank": 7},
        ]
        path = tmp_path / "results.json"
        path.write_text(json.dumps(records))
        with patch.object(coco_io, "_result_record", side_effect=AssertionError("not common")):
            got = coco_io._load_columns(path)
        _assert_same_columns(got, _per_record_columns(path))


class TestSizeStats:
    @staticmethod
    def _boxes(sides):
        return [BBox(0, 0, s, s) for s in sides]

    def test_histogram_example(self):
        hist = size_histogram(self._boxes([10, 250, 251]), 50)
        assert hist.counts[0] == 1
        assert hist.counts[5] == 2
        assert hist.total == 3

    def test_empty_histogram(self):
        hist = size_histogram([], 50)
        assert hist.counts == ()
        assert hist.total == 0

    def test_bins_exhaustive(self):
        rng = np.random.default_rng(61)
        boxes = [BBox(0, 0, float(s), float(s)) for s in rng.uniform(1, 400, 100)]
        hist = size_histogram(boxes, 25)
        assert hist.total == 100

    def test_median_exact(self):
        assert median_sqrt_area(self._boxes([100, 250, 400])) == 250.0

    def test_median_lower_for_even(self):
        assert median_sqrt_area(self._boxes([100, 250])) == 100.0

    def test_median_empty(self):
        with pytest.raises(ValueError, match="empty input"):
            median_sqrt_area([])

    def test_bin_count_bounded(self):
        boxes = self._boxes([10, 250])
        assert len(size_histogram(boxes, 250 / 999_999.5).counts) == 1_000_000
        with pytest.raises(ValueError, match=r"bin_width 0.00025 needs 1000001 bins"):
            size_histogram(boxes, 2.5e-4)

    def test_csv_shape(self):
        csv = size_histogram(self._boxes([10, 60]), 50).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert lines[1] == "0,50,1"
        assert lines[2] == "50,100,1"


class TestFieldArchive:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(71)
        instances = [
            FieldInstance(
                instance_id=f"inst{i}",
                image_id=i + 1,
                category_id=2,
                score=0.5 + 0.1 * i,
                field=ScoreField(rng.normal(size=(7, 7))),
                bbox=BBox(0, 0, 4, 4) if i % 2 else None,
            )
            for i in range(3)
        ]
        path = tmp_path / "fields.npz"
        write_field_archive(path, instances)
        loaded = load_field_archive(path)
        assert [li.instance_id for li in loaded] == ["inst0", "inst1", "inst2"]
        for orig, back in zip(instances, loaded):
            assert np.array_equal(orig.field.logits, back.field.logits)
            assert orig.bbox == back.bbox
            assert orig.score == back.score

    def test_duplicate_ids_rejected(self, tmp_path):
        inst = FieldInstance("x", 1, 1, 0.5, ScoreField.constant(2, 2))
        with pytest.raises(ValueError):
            write_field_archive(tmp_path / "f.npz", [inst, inst])

    @staticmethod
    def _write_unchecked(path, instances):
        """What the writer did before it applied the reader's record rules."""
        meta = {
            "instances": [
                {
                    "id": inst.instance_id,
                    "image_id": inst.image_id,
                    "category_id": inst.category_id,
                    "score": inst.score,
                    "bbox": None if inst.bbox is None else inst.bbox.to_list(),
                }
                for inst in instances
            ]
        }
        arrays = {f"logits:{inst.instance_id}": inst.field.logits for inst in instances}
        np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)

    @pytest.mark.parametrize(
        "spoil, named",
        [
            (
                lambda insts: (setattr(insts[0], "instance_id", 1), setattr(insts[1], "instance_id", "1")),
                'instances[1].id: ids must all be strings or all integers, got "1" after 1',
            ),
            (
                lambda insts: setattr(insts[0], "instance_id", True),
                "instances[0].id: expected a string or an integer, got true",
            ),
            (
                lambda insts: setattr(insts[1], "instance_id", None),
                "instances[1].id: expected a string or an integer, got null",
            ),
            (
                lambda insts: setattr(insts[1], "instance_id", "i0"),
                'instances[1].id: instance "i0" already appears at instances[0]',
            ),
            (
                lambda insts: setattr(insts[0], "score", 1.5),
                "instances[0].score: 1.5 outside [0, 1]",
            ),
            (
                lambda insts: setattr(insts[1], "bbox", BBox(0, 0, float("nan"), 1)),
                "instances[1].bbox: non-finite value in [0.0, 0.0, nan, 1.0]",
            ),
            (
                lambda insts: setattr(insts[1], "bbox", BBox(0, 1e308, 1, 1e308)),
                "instances[1].bbox: coordinates too large in [0.0, 1e+308, 1.0, 1e+308]",
            ),
        ],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, spoil, named):
        instances = [
            FieldInstance(f"i{k}", k + 1, 1, 0.5, ScoreField.constant(2, 2, float(k)))
            for k in range(2)
        ]
        spoil(instances)
        path = tmp_path / "f.npz"
        with pytest.raises(SchemaError) as written:
            write_field_archive(path, instances)
        assert not path.exists()
        self._write_unchecked(path, instances)
        with pytest.raises(SchemaError) as read:
            load_field_archive(path)
        assert str(written.value) == str(read.value) == f"{path}: {named}"

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_what_the_writer_accepts_loads_back_equal(self, data):
        # mostly valid id lists, so that most archives are written
        ids = data.draw(
            st.one_of(
                st.lists(st.integers(-3, 3), unique=True, max_size=4),
                st.lists(st.text("a1:", max_size=2), unique=True, max_size=4),
                st.lists(
                    st.one_of(st.integers(-2, 2), st.text("a1", max_size=1), st.booleans(), st.none()),
                    max_size=4,
                ),
            )
        )
        scores = st.one_of(st.floats(0, 1), st.floats(-0.5, 1.5), st.just(math.nan))
        side = st.one_of(st.floats(0, 5), st.just(math.nan))
        boxes = st.one_of(
            st.none(), st.builds(BBox, st.floats(-5, 5), st.floats(-5, 5), side, st.floats(0, 5))
        )
        instances = [
            FieldInstance(
                instance_id,
                data.draw(st.integers(-2, 2)),
                7,
                data.draw(scores),
                ScoreField.constant(2, 3, k),
                data.draw(boxes),
            )
            for k, instance_id in enumerate(ids)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.npz"
            try:
                write_field_archive(path, instances)
            except SchemaError:
                assert not path.exists()
                return
            loaded = load_field_archive(path)
        assert len(loaded) == len(instances)
        for orig, back in zip(instances, loaded):
            assert type(back.instance_id) is type(orig.instance_id)
            assert (back.instance_id, back.image_id, back.category_id, back.score, back.bbox) == (
                orig.instance_id, orig.image_id, orig.category_id, orig.score, orig.bbox
            )
            assert np.array_equal(back.field.logits, orig.field.logits)

    def test_missing_file(self):
        with pytest.raises(SchemaError):
            load_field_archive("/nonexistent/fields.npz")
