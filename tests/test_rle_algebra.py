"""Properties of the run-length mask algebra against dense and set references."""
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from maskpost import (
    BBox,
    Detection,
    RleMask,
    SoftNmsConfig,
    box_iou_matrix,
    mask_bbox,
    mask_iou,
    rle_bbox,
    rle_decode,
    rle_encode,
    rle_iou,
    rle_iou_matrix,
    rle_merge,
    soft_nms,
)
from maskpost import core
from oracles import rect_iou, rle_pixel_set, set_iou

shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


@st.composite
def masks_of(draw, shape):
    """Empty, full, random-pixel or run-built masks; runs built in column-major
    order often cross column breaks."""
    h, w = shape
    kind = draw(st.sampled_from(["empty", "full", "pixels", "runs"]))
    if kind == "empty":
        return rle_encode(np.zeros((h, w), dtype=bool))
    if kind == "full":
        return rle_encode(np.ones((h, w), dtype=bool))
    if kind == "pixels":
        bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
        return rle_encode(np.array(bits).reshape((h, w), order="F"))
    flat = np.zeros(h * w, dtype=bool)
    pos, fg = 0, draw(st.booleans())
    while pos < flat.size:
        run = draw(st.integers(1, 2 * h))
        flat[pos : pos + run] = fg
        pos, fg = pos + run, not fg
    return rle_encode(flat.reshape((h, w), order="F"))


@st.composite
def mask_pairs(draw):
    shape = draw(shapes)
    return draw(masks_of(shape)), draw(masks_of(shape))


@st.composite
def weighted_masks(draw):
    shape = draw(shapes)
    n = draw(st.integers(1, 5))
    masks = [draw(masks_of(shape)) for _ in range(n)]
    # quarter steps make a vote of exactly half the total likely
    weight = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    weights = [draw(weight) for _ in range(n)]
    return masks, weights


def dense_vote(masks, weights):
    """Score-weighted vote on decoded masks, summed in member order."""
    votes = None
    total = 0.0
    for rle, weight in zip(masks, weights):
        bits = rle_decode(rle)
        votes = weight * bits if votes is None else votes + weight * bits
        total += weight
    return rle_encode(votes > 0.5 * total)


@given(mask_pairs())
def test_iou_equals_dense_and_set_references(pair):
    a, b = pair
    iou = rle_iou(a, b)
    assert iou == mask_iou(rle_decode(a), rle_decode(b))
    assert iou == set_iou(rle_pixel_set(a), rle_pixel_set(b))


@given(mask_pairs())
def test_iou_symmetric_and_bounded(pair):
    a, b = pair
    iou = rle_iou(a, b)
    assert iou == rle_iou(b, a)
    assert 0.0 <= iou <= 1.0


@given(shapes.flatmap(masks_of))
def test_bbox_equals_dense(rle):
    assert rle_bbox(rle) == mask_bbox(rle_decode(rle))


@given(weighted_masks())
def test_merge_equals_dense_vote(case):
    masks, weights = case
    assert rle_merge(masks, weights) == dense_vote(masks, weights)


@given(mask_pairs())
def test_disjoint_boxes_mean_no_intersection(pair):
    # the prefilter of rle_iou_matrix: tight-box IoU 0 means no shared pixel
    a, b = pair
    if box_iou_matrix([rle_bbox(a)], [rle_bbox(b)])[0, 0] == 0.0:
        assert not (rle_decode(a) & rle_decode(b)).any()
        assert rle_iou(a, b) == 0.0


# integer corners make touching and nested boxes likely; the float draws
# cover fractional sides, and zero sides give empty boxes
coords = st.one_of(st.integers(0, 8), st.floats(0.0, 8.0))
boxes = st.builds(
    BBox,
    coords,
    coords,
    st.one_of(st.integers(0, 6), st.floats(0.0, 6.0)),
    st.one_of(st.integers(0, 6), st.floats(0.0, 6.0)),
)


@given(st.lists(boxes, max_size=6), st.lists(boxes, max_size=6))
def test_box_iou_matrix_equals_scalar_oracle(a, b):
    ious = box_iou_matrix(a, b)
    assert ious.shape == (len(a), len(b))
    for i, j in np.ndindex(ious.shape):
        assert ious[i, j] == rect_iou(a[i], b[j])


@st.composite
def mask_sets(draw):
    shape = draw(shapes)
    sizes = st.integers(0, 4)
    return (
        [draw(masks_of(shape)) for _ in range(draw(sizes))],
        [draw(masks_of(shape)) for _ in range(draw(sizes))],
    )


def placed(rle, width, left):
    """``rle`` laid into a mask ``width`` columns wide from column ``left``."""
    bits = np.zeros((rle.height, width), dtype=bool)
    bits[:, left : left + rle.width] = rle_decode(rle)
    return rle_encode(bits)


@st.composite
def apart_sets(draw):
    """Rows left of a cut column; columns anywhere or right of the cut, so
    some columns have no near row."""
    h, w = draw(st.tuples(st.integers(1, 12), st.integers(2, 12)))
    cut = draw(st.integers(1, w - 1))
    right = masks_of((h, w - cut)).map(lambda m: placed(m, w, cut))
    return (
        [placed(draw(masks_of((h, cut))), w, 0) for _ in range(draw(st.integers(1, 4)))],
        [draw(st.one_of(masks_of((h, w)), right)) for _ in range(draw(st.integers(1, 4)))],
    )


@given(st.one_of(mask_sets(), apart_sets()))
def test_rle_iou_matrix_equals_pairwise(sets):
    a, b = sets
    for rows, cols in ((a, b), (a, a)):  # (a, a) reads each pair once and mirrors it
        ious = rle_iou_matrix(rows, cols)
        assert ious.shape == (len(rows), len(cols))
        for i, j in np.ndindex(ious.shape):
            assert ious[i, j] == mask_iou(rle_decode(rows[i]), rle_decode(cols[j]))


@st.composite
def mask_lists(draw):
    """Lists of one size; one-pixel-high and one-pixel-wide masks are likely,
    and every run of two or more pixels in them spans a column break."""
    line = st.integers(1, 12)
    shape = draw(st.one_of(shapes, st.tuples(st.just(1), line), st.tuples(line, st.just(1))))
    return draw(st.lists(masks_of(shape), max_size=6))


@given(mask_lists())
@example([RleMask(2, 3, [0, 4, 2]), RleMask(2, 3, [6]), RleMask(2, 3, [2, 3, 1])])
def test_geometry_equals_each_mask_alone(masks):
    bounds, fg_before, at = core._geometry(masks)
    boxes = core._boxes(bounds, at, masks[0].height if masks else 1)
    assert at.tolist()[0] == 0 and boxes.shape == (len(masks), 4)
    for k, rle in enumerate(masks):
        # one mask's run table on its own, written out
        table = np.zeros((2, rle.counts.size + 1), np.int64)
        table[0, 1:] = rle.counts
        table[1, 2::2] = rle.counts[1::2]
        table = table.cumsum(axis=1)
        if table.shape[1] % 2:  # padded to an even length by an empty background run
            table = np.concatenate([table, table[:, -1:]], axis=1)
        assert np.array_equal(bounds[at[k] : at[k + 1]], table[0])
        assert np.array_equal(fg_before[at[k] : at[k + 1]], table[1])
        assert fg_before[at[k + 1] - 1] == rle.area
        x0, y0, x1, y1 = boxes[k].tolist()
        assert BBox(x0, y0, x1 - x0 + 1, y1 - y0 + 1) == mask_bbox(rle_decode(rle))


def test_exact_past_the_list_wide_int64_range():
    """Masks of 2**58 pixels: the counts of 40 of them sum past 2**63, so the
    list-wide running sums wrap round; every value is still exact."""
    side = 1 << 29
    pixels = side * side
    runs = [((k * pixels) // 48 + k, pixels // 20 + 12345 * k) for k in range(40)]
    masks = [RleMask(side, side, [s, n, pixels - s - n]) for s, n in runs]
    assert len(masks) * pixels > 2**63

    def iou(p, q):  # one run each: the intersection is the overlap of two intervals
        (s, n), (t, m) = p, q
        inter = max(0, min(s + n, t + m) - max(s, t))
        return inter, n + m - inter

    pairs = [[iou(p, q) for q in runs] for p in runs]
    expected = np.array([[i / u if i else 0.0 for i, u in row] for row in pairs])
    assert np.array_equal(rle_iou_matrix(masks, masks), expected)
    assert np.array_equal(rle_iou_matrix(masks[:25], masks[25:]), expected[:25, 25:])
    # masks 33 and 34 lie past the wrap; their IoU is the correctly rounded
    # ratio, not the ratio of the rounded terms
    i, u = pairs[33][34]
    assert 33 * pixels > 2**63 and i / u != float(i) / float(u) and expected[33, 34] == i / u

    # run 39 starts in row 39 of column 13 * 2**25 and spans 26 843 546
    # columns, so it covers every row
    assert runs[39] == (13 * 2**54 + 39, 14411518807585587 + 481455)
    assert rle_bbox(masks[39]) == BBox(13 * 2**25, 0, 26843546, side)
    assert rle_bbox(RleMask(side, side, [pixels - 7, 3, 4])) == BBox(side - 1, side - 7, 1, 3)

    # a vote of three overlapping runs laid after 37 empty masks, whose
    # pixels carry the list-wide sums past 2**63
    start = pixels - 20 * side
    votes = [RleMask(side, side, [start + a * side, n * side, pixels - start - (a + n) * side])
             for a, n in ((0, 10), (5, 10), (8, 11))]
    empty = [RleMask(side, side, [pixels])] * 37
    merged = rle_merge(empty + votes, [0.0] * 37 + [1.0] * 3)
    assert merged == RleMask(side, side, [start + 5 * side, 10 * side, 5 * side])


# each operation names the masks it reads; every one builds the run tables
# it needs from the counts, whatever ran before
RUN_OPERATIONS = ["area", "bbox", "iou", "iou_matrix", "merge"]


@given(
    weighted_masks(),
    st.lists(
        st.tuples(st.sampled_from(RUN_OPERATIONS), st.integers(0, 4), st.integers(0, 4)),
        min_size=1,
        max_size=8,
    ),
)
def test_run_operations_equal_dense_in_any_order(case, operations):
    masks, weights = case
    dense = [rle_decode(m) for m in masks]
    for name, i, j in operations:
        i, j = i % len(masks), j % len(masks)
        if name == "area":
            assert masks[i].area == np.count_nonzero(dense[i])
        elif name == "bbox":
            assert rle_bbox(masks[i]) == mask_bbox(dense[i])
        elif name == "iou":
            assert rle_iou(masks[i], masks[j]) == mask_iou(dense[i], dense[j])
        elif name == "iou_matrix":
            ious = rle_iou_matrix(masks, masks)
            for p, q in np.ndindex(ious.shape):
                assert ious[p, q] == mask_iou(dense[p], dense[q])
        else:
            assert rle_merge(masks, weights) == dense_vote(masks, weights)


def test_run_table_leaves_the_mask_as_it_was():
    cold, warm = RleMask(3, 4, [2, 3, 7]), RleMask(3, 4, [2, 3, 7])
    assert warm.area == 3 and rle_iou(warm, warm) == 1.0
    assert warm == cold and cold == warm
    assert repr(warm) == repr(cold)
    assert not warm.counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        warm.counts[0] = 1
    assert warm.counts.tolist() == [2, 3, 7]


def test_masks_keep_only_their_counts():
    """Run tables live for one call: after area, box, IoU and merge have
    read every mask, the masks hold about their counts and no more."""
    rng = np.random.default_rng(5)
    bits = [rng.random((40, 60)) < 0.5 for _ in range(50)]

    def read(masks):
        for mask in masks:
            assert mask.area == np.count_nonzero(rle_decode(mask))
            rle_bbox(mask)
        rle_iou_matrix(masks, masks)
        rle_merge(masks, np.ones(len(masks)))

    read([rle_encode(b) for b in bits[:2]])  # one-time setup of each call path
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        masks = [rle_encode(b) for b in bits]
        read(masks)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    counts = sum(mask.counts.nbytes for mask in masks)
    assert counts <= held <= 1.1 * counts, (held, counts)


def test_threads_share_cold_masks():
    rng = np.random.default_rng(3)
    bits = [rng.random((16, 12)) < rng.uniform(0.1, 0.9) for _ in range(12)]
    serial = rle_iou_matrix([rle_encode(b) for b in bits], [rle_encode(b) for b in bits])
    shared = [rle_encode(b) for b in bits]  # each call builds its own tables
    start = threading.Barrier(4, timeout=30)
    results = [None] * 4

    def run(k):
        start.wait()
        results[k] = rle_iou_matrix(shared, shared)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for ious in results:
        assert np.array_equal(ious, serial)


def test_column_spanning_run_reaches_both_edges():
    # rows 2..3 of column 0, then rows 0..0 of column 1 (height 4)
    rle = RleMask(3, 4, [2, 3, 7])
    assert rle_bbox(rle) == mask_bbox(rle_decode(rle))
    assert rle_bbox(rle).to_list() == [0.0, 0.0, 2.0, 4.0]


def test_size_mismatch_rejected():
    a = RleMask(4, 3, [12])
    b = RleMask(3, 4, [12])
    with pytest.raises(ValueError, match="mask shapes differ"):
        rle_iou(a, b)
    with pytest.raises(ValueError, match="mask shapes differ"):
        rle_merge([a, b], [0.5, 0.5])
    # sizes are checked before the tight boxes decide which pairs are read
    top_left, bottom = RleMask(8, 8, [0, 2, 62]), RleMask(8, 6, [5, 1, 42])
    for pair in ((top_left, bottom), (a, b)):  # tight boxes apart; both masks empty
        with pytest.raises(ValueError, match="mask shapes differ"):
            rle_iou_matrix([pair[0]], [pair[1]])
    dets = [
        Detection(1, 1, 0.9, BBox(0, 0, 1, 2), top_left),
        Detection(1, 1, 0.8, BBox(0, 5, 1, 1), bottom),
    ]
    with pytest.raises(ValueError, match="mask shapes differ"):
        soft_nms(dets, SoftNmsConfig(use_mask_iou=True))


def test_merge_rejects_bad_arguments():
    a = RleMask(2, 2, [4])
    with pytest.raises(ValueError):
        rle_merge([], [])
    with pytest.raises(ValueError):
        rle_merge([a, a], [1.0])
