"""Properties of the run-length mask algebra against dense and set references."""
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maskpost import (
    BBox,
    RleMask,
    box_iou_matrix,
    mask_bbox,
    mask_iou,
    rle_bbox,
    rle_decode,
    rle_encode,
    rle_iou,
    rle_iou_matrix,
    rle_merge,
)
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


@given(mask_sets())
def test_rle_iou_matrix_equals_pairwise(sets):
    a, b = sets
    ious = rle_iou_matrix(a, b)
    assert ious.shape == (len(a), len(b))
    for i, j in np.ndindex(ious.shape):
        assert ious[i, j] == rle_iou(a[i], b[j])


# each operation names the masks it reads; the first to read a mask builds
# its run table, and later ones read the kept table
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


def test_threads_share_cold_masks():
    rng = np.random.default_rng(3)
    bits = [rng.random((16, 12)) < rng.uniform(0.1, 0.9) for _ in range(12)]
    serial = rle_iou_matrix([rle_encode(b) for b in bits], [rle_encode(b) for b in bits])
    shared = [rle_encode(b) for b in bits]  # no table built yet
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


def test_rle_iou_matrix_reads_only_near_pairs():
    full = RleMask(2, 2, [0, 4])
    near = np.array([[True, False]])
    assert rle_iou_matrix([full], [full, full], near).tolist() == [[1.0, 0.0]]


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


def test_merge_rejects_bad_arguments():
    a = RleMask(2, 2, [4])
    with pytest.raises(ValueError):
        rle_merge([], [])
    with pytest.raises(ValueError):
        rle_merge([a, a], [1.0])
