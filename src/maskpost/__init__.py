"""Instance-mask post-processing toolkit.

Coarse-to-fine point-based mask rendering, multi-model detection ensembling
with score-linear reweighting and soft-NMS, COCO-style mask AP evaluation
with size buckets, and COCO data-file handling.
"""

from .core import (
    BBox,
    DomainError,
    MEDIUM_LARGE_SIDE,
    RleMask,
    SMALL_MEDIUM_SIDE,
    ScoreField,
    SizeBucket,
    bilinear_sample,
    binarize,
    box_iou,
    box_iou_matrix,
    mask_bbox,
    mask_iou,
    resample,
    rle_bbox,
    rle_decode,
    rle_encode,
    rle_iou,
    rle_iou_matrix,
    rle_merge,
    sample_points,
    size_bucket,
)
from .refine import (
    IdentityPredictor,
    OracleFieldPredictor,
    PointPredictor,
    SubdivisionConfig,
    TrainSampleConfig,
    biased_point_sample,
    flip_fuse,
    plain_upsample,
    select_most_uncertain,
    subdivision_render,
    subdivision_step,
    uncertainty,
    upsample_x2,
)
from .fusion import (
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
    soft_nms,
)
from .evaluation import (
    EvalConfig,
    GroundTruthInstance,
    MetricReport,
    average_precision,
    evaluate,
    match_detections,
)
from .coco_io import (
    DatasetFile,
    FieldInstance,
    Histogram,
    SchemaError,
    annotation_mask,
    dataset_ground_truth,
    load_dataset,
    load_field_archive,
    load_results,
    median_sqrt_area,
    rasterize_polygon,
    rasterize_polygons,
    rle_string_decode,
    rle_string_encode,
    rle_strings_decode,
    rle_strings_encode,
    size_histogram,
    write_field_archive,
    write_results,
)
from .synthetic import Shape, default_corpus, parse_corpus_spec, shape_field, shape_mask

__version__ = "0.1.0"
