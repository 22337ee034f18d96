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
    annotation_mask,
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
from maskpost import coco_io
from oracles import rle_counts_to_string, rle_string_to_counts, shoelace_area

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


class TestBatchedRleStrings:
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

    def test_fault_in_a_later_slice(self):
        strings = [rle_string_encode(RleMask(4, 4, [16]))] * 50 + ["0P"]
        with patch.object(coco_io, "_SLICE_SIZE", 8):
            with pytest.raises(SchemaError, match=r"^strings\[50\]: truncated"):
                rle_strings_decode(strings, [(4, 4)] * 51)


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
        bits = np.zeros((5, 5), dtype=bool)
        bits[1:3, 2:4] = True
        rle = rle_encode(bits)
        path = tmp_path / "results.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "image_id": 1,
                        "category_id": 1,
                        "score": 0.5,
                        "segmentation": {"size": [5, 5], "counts": rle_string_encode(rle)},
                    }
                ]
            )
        )
        assert load_results(path)[0].bbox == mask_bbox(bits)

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


class TestAnnotationMask:
    def test_uncompressed_counts_list(self):
        rle = annotation_mask({"size": [2, 2], "counts": [2, 1, 1]}, 2, 2)
        assert rle.counts.tolist() == [2, 1, 1]

    def test_size_mismatch(self):
        with pytest.raises(SchemaError):
            annotation_mask({"size": [3, 3], "counts": [9]}, 2, 2)

    def test_polygon_list(self):
        rle = annotation_mask([[0, 0, 2, 0, 2, 2, 0, 2]], 4, 4)
        assert rle_decode(rle)[0:2, 0:2].all()


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
