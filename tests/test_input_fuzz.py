"""Mutation fuzzing of every subcommand's input.

Each example sets one JSON value of an input to an awkward value, or
deletes it, and runs the subcommands that read that input in-process. Bad
input must exit 2 with an ``error:`` line and good input exit 0. Exit 1,
an ``internal error``, means a check is missing. A value that breaks a rule
README's "File formats" states for its field must exit 2: exit 0 there
means the input passed silently. A second fuzz corrupts the bytes of an
input file instead, where only exit 0 or 2 is asked.

The inputs are copies of ``tests/data/eval_micro_*`` (a dataset and a
results file), a coarse and an oracle field archive for ``refine``, and a
``--config`` file holding every option's default. The dataset's annotations
carry an explicit ``"iscrowd": 0`` and one result's counts are a plain list,
so that mutations reach both fields. A path visits every element of a list
of at most four scalars (a box, a size) and the first two elements of any
other list, as the fixtures' records are alike.
"""
import contextlib
import copy
import io
import json
import math
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maskpost.cli import _OPTIONS, main
from maskpost.coco_io import rle_string_decode

DATA = Path(__file__).parent / "data"
GT_PATH = DATA / "eval_micro_gt.json"
RESULTS_PATH = DATA / "eval_micro_results.json"
GT = json.loads(GT_PATH.read_text())
for _ann in GT["annotations"]:
    _ann["iscrowd"] = 0
RESULTS = json.loads(RESULTS_PATH.read_text())
_seg = RESULTS[1]["segmentation"]
_seg["counts"] = rle_string_decode(_seg["counts"], *_seg["size"][::-1]).counts.tolist()
CONFIG = {key: default for options in _OPTIONS.values() for key, (default, *_) in options.items()}
# the manifest of both field archives; refine renders 7 -> 224 by default
MANIFEST = {
    "instances": [
        {"id": "a", "image_id": 1, "category_id": 1, "score": 0.9, "bbox": [1.0, 2.0, 3.0, 4.0]},
        {"id": "b", "image_id": 2, "category_id": 1, "score": 0.5, "bbox": None},
    ]
}
_rng = np.random.default_rng(5)
LOGITS = {
    archive: {f"logits:{rec['id']}": _rng.normal(size=(side, side)) for rec in MANIFEST["instances"]}
    for archive, side in (("coarse", 7), ("oracle", 16))
}

# 22 values from JSON's corners (json.dumps writes NaN and Infinity, which
# Python's parser reads back), and deletion
DELETE = "<deleted>"
VALUES = [
    None, True, False, 0, -1, 0.5, "", "5", 2**70, -(2**70), 1e308, -1e308,
    math.nan, math.inf, -math.inf, [], {}, [[]], [1, 2], [[1, 2]], [{}], {"size": [1, 1]},
]
MUTATION = st.sampled_from(VALUES + [DELETE])
# the examples of a test share its tmp_path: each rewrites the files it uses
FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _paths(node, path=()):
    """Every path below the root of a JSON document; a list of at most four
    scalars contributes every element, any other list its first two."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        scalars = len(node) <= 4 and not any(isinstance(v, (list, dict)) for v in node)
        children = enumerate(node if scalars else node[:2])
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _breaks_stated_rule(path, value) -> bool:
    """Whether setting ``path`` to ``value`` breaks a rule README states for
    that field: a box element must be a finite number and a side
    non-negative, a polygon coordinate a finite number, an image side an
    integer of at least 1, ``iscrowd`` 0, a plain counts entry an integer,
    and an archive score a number in [0, 1]."""
    if value == DELETE:
        return False
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    finite = number and math.isfinite(value)
    if path[-2:-1] == ("bbox",):
        return not finite or (path[-1] >= 2 and value < 0)
    if path[-2:-1] == ("counts",):
        return isinstance(value, (bool, float))
    if len(path) == 5 and path[2] == "segmentation" and isinstance(path[3], int):
        return isinstance(value, (bool, str)) or (number and not finite)
    if path[-1] in ("width", "height"):
        return not (number and isinstance(value, int) and value >= 1)
    if path[-1] == "iscrowd":
        return value != 0
    if path[0] == "instances" and path[-1] == "score":
        return number and not 0 <= value <= 1
    return False


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = reduce(getitem, path[:-1], doc)
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _write_archive(path: Path, manifest, archive: str) -> Path:
    """A field archive as write_field_archive lays it out, without the
    writer's manifest checks."""
    np.savez(path, meta=np.array(json.dumps(manifest)), **LOGITS[archive])
    return path


def _check(*argv, refused=False) -> None:
    """Run maskpost; it must exit 0, or 2 with an ``error:`` line, and 2 if
    ``refused``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            # load_dataset warns about a box outside its image and goes on
            warnings.simplefilter("ignore", UserWarning)
            code = main([str(a) for a in argv])
    err = err.getvalue()
    assert "internal error" not in err and code in ((2,) if refused else (0, 2)), (argv, code, err)
    assert (code == 2) == ("error: " in err), (argv, code, err)


def _run(
    tmp_path: Path,
    commands,
    *extra,
    gt=GT_PATH,
    results=RESULTS_PATH,
    coarse=None,
    oracle=None,
    refused=False,
):
    """Run each of ``commands``: ``stats`` on ``gt``, ``eval`` with mask and
    box IoU on ``gt`` and ``results``, ``ensemble`` with box and with mask
    soft-NMS on ``results`` next to the unchanged fixture, and ``refine`` on
    the two archives. Each must exit 2 if ``refused``."""
    models = ("--model", f"{results}:0.6", "--model", f"{RESULTS_PATH}:0.4")
    argvs = {
        "stats": [("--gt", gt)],
        "eval": [("--gt", gt, "--results", results, "--iou-on", iou) for iou in ("mask", "bbox")],
        "ensemble": [models, (*models, "--mask-iou-nms", "--merge-masks")],
        "refine": [("--coarse", coarse, "--oracle", oracle)],
    }
    for command in commands:
        for argv in argvs[command]:
            _check(command, *argv, "--out", tmp_path / "out.json", *extra, refused=refused)


def _archives(tmp_path: Path) -> dict:
    return {name: _write_archive(tmp_path / f"{name}.npz", MANIFEST, name) for name in LOGITS}


@settings(FUZZ, max_examples=120)
@given(path=st.sampled_from(list(_paths(GT))), value=MUTATION)
# the exit-1 holes found so far, all in annotation 1's polygon
@example(path=("annotations", 1, "segmentation", 0, 0), value={})
@example(path=("annotations", 1, "segmentation", 0, 0), value=1e308)
@example(path=("annotations", 1, "segmentation", 0), value={})
@example(path=("annotations", 1, "segmentation"), value=[{}])
def test_mutated_dataset(tmp_path, path, value):
    gt = _write(tmp_path / "gt.json", _mutated(GT, path, value))
    refused = _breaks_stated_rule(path, value)
    # stats reads no segmentation (README, "Command line")
    _run(tmp_path, ["stats"], gt=gt, refused=refused and "segmentation" not in path)
    _run(tmp_path, ["eval"], gt=gt, refused=refused)


@settings(FUZZ, max_examples=80)
@given(path=st.sampled_from(list(_paths(RESULTS))), value=MUTATION)
# a box width that overflows box IoU
@example(path=(0, "bbox", 2), value=1e308)
def test_mutated_results(tmp_path, path, value):
    results = _write(tmp_path / "results.json", _mutated(RESULTS, path, value))
    _run(tmp_path, ["eval", "ensemble"], results=results, refused=_breaks_stated_rule(path, value))


@settings(FUZZ, max_examples=60)
@given(
    archive=st.sampled_from(sorted(LOGITS)),
    path=st.sampled_from(list(_paths(MANIFEST))),
    value=MUTATION,
)
def test_mutated_field_archive(tmp_path, archive, path, value):
    files = _archives(tmp_path)
    _write_archive(files[archive], _mutated(MANIFEST, path, value), archive)
    _run(tmp_path, ["refine"], **files, refused=_breaks_stated_rule(path, value))


@settings(FUZZ, max_examples=40)
@given(key=st.sampled_from(sorted(CONFIG)), value=MUTATION)
def test_mutated_config(tmp_path, key, value):
    config = _write(tmp_path / "config.json", _mutated(CONFIG, (key,), value))
    _run(tmp_path, ["stats", "eval", "ensemble", "refine"], "--config", config, **_archives(tmp_path))



# the subcommands that read each input
READERS = {
    "gt": ["stats", "eval"],
    "results": ["eval", "ensemble"],
    "coarse": ["refine"],
    "oracle": ["refine"],
    "config": ["stats", "eval", "ensemble", "refine"],
}
# the offset of the version needed to extract in a field archive's first
# central-directory entry
ZIP_VERSION_AT = _write_archive(io.BytesIO(), MANIFEST, "coarse").getvalue().index(b"PK\x01\x02") + 6


def _corrupted(data: bytes, kind: str, at: int, byte: int) -> bytes:
    """``data`` truncated at ``at``, with the span of ``1 + byte % 40``
    bytes from ``at`` repeated, with bit ``byte % 8`` of byte ``at``
    flipped, or with byte ``at`` set to ``byte``."""
    at %= len(data)
    if kind == "truncate":
        return data[:at]
    if kind == "duplicate":
        return data[: at + 1 + byte % 40] + data[at:]
    if kind == "flip":
        byte = data[at] ^ 1 << byte % 8
    return data[:at] + bytes([byte]) + data[at + 1 :]


@settings(FUZZ, max_examples=200)
@given(
    name=st.sampled_from(sorted(READERS)),
    kind=st.sampled_from(["truncate", "duplicate", "flip", "overwrite"]),
    at=st.integers(0, 1 << 16),
    byte=st.integers(0, 255),
)
# the exit-1 holes found so far: a first byte no longer UTF-8, and a zip
# version past what zipfile reads
@example(name="results", kind="flip", at=0, byte=7)
@example(name="coarse", kind="overwrite", at=ZIP_VERSION_AT, byte=130)
def test_corrupted_bytes(tmp_path, name, kind, at, byte):
    files = {
        "gt": _write(tmp_path / "gt.json", GT),
        "results": _write(tmp_path / "results.json", RESULTS),
        "config": _write(tmp_path / "config.json", CONFIG),
        **_archives(tmp_path),
    }
    files[name].write_bytes(_corrupted(files[name].read_bytes(), kind, at, byte))
    _run(tmp_path, READERS[name], "--config", files.pop("config"), **files)
