import maskpost
from maskpost import coco_io, core, evaluation, fusion, refine, synthetic

# every name the package exported when it listed them by hand, less those
# since removed
LISTED_BY_HAND = [
    "BBox", "DomainError", "MEDIUM_LARGE_SIDE", "RleMask", "SMALL_MEDIUM_SIDE", "ScoreField",
    "SizeBucket", "bilinear_sample", "binarize", "box_iou", "box_iou_matrix", "mask_bbox",
    "mask_iou", "resample", "rle_bbox", "rle_decode", "rle_encode", "rle_iou", "rle_iou_matrix",
    "rle_merge", "sample_points", "size_bucket",
    "IdentityPredictor", "OracleFieldPredictor", "PointPredictor", "SubdivisionConfig",
    "plain_upsample", "select_most_uncertain", "subdivision_render", "subdivision_step",
    "upsample_x2",
    "Detection", "EnsembleConfig", "ModelCandidate", "SoftNmsConfig", "apply_weights",
    "cluster_merge_masks", "ensemble", "linear_interpolation_weights", "linear_reweight_weights",
    "model_weights", "soft_nms",
    "EvalConfig", "GroundTruthInstance", "MetricReport", "average_precision", "evaluate",
    "match_detections",
    "DatasetFile", "FieldInstance", "Histogram", "SchemaError",
    "dataset_ground_truth", "load_dataset", "load_field_archive", "load_results",
    "median_sqrt_area", "rasterize_polygon", "rasterize_polygons", "rle_string_decode",
    "rle_string_encode", "rle_strings_decode", "rle_strings_encode", "size_histogram",
    "write_field_archive", "write_results",
    "Shape", "default_corpus", "parse_corpus_spec", "shape_field", "shape_mask",
]
MODULES = [core, refine, fusion, evaluation, coco_io, synthetic]


def test_all_is_the_modules_lists_joined():
    assert maskpost.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(maskpost.__all__)) == len(maskpost.__all__)


def test_every_listed_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(maskpost, name) is getattr(module, name), name


def test_no_name_exported_by_hand_is_lost():
    assert set(LISTED_BY_HAND) <= set(maskpost.__all__)
    assert {"ImageInfo", "CategoryInfo", "AnnotationRecord", "grid_coords"} <= set(maskpost.__all__)
