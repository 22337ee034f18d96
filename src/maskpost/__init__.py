"""Instance-mask post-processing toolkit.

Coarse-to-fine point-based mask rendering, multi-model detection ensembling
with score-linear reweighting and soft-NMS, COCO-style mask AP evaluation
with size buckets, and COCO data-file handling.

The package exports every name in each module's ``__all__``.
"""

from . import coco_io, core, evaluation, fusion, refine, synthetic
from .core import *  # noqa: F401,F403
from .refine import *  # noqa: F401,F403
from .fusion import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .coco_io import *  # noqa: F401,F403
from .synthetic import *  # noqa: F401,F403

__all__ = (
    core.__all__
    + refine.__all__
    + fusion.__all__
    + evaluation.__all__
    + coco_io.__all__
    + synthetic.__all__
)

__version__ = "0.1.0"
