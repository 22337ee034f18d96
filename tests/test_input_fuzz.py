"""Mutation fuzzing of every subcommand's input.

Each example sets one JSON value of an input to an awkward value, or
deletes it, and runs the subcommands that read that input in-process. Bad
input must exit 2 with an ``error:`` line and good input exit 0. Exit 1,
an ``internal error``, means a check is missing.

The inputs are copies of ``tests/data/eval_micro_*`` (a dataset and a
results file), a coarse and an oracle field archive for ``refine``, and a
``--config`` file holding every option's default. A path visits every
element of a list of at most four scalars (a box, a size) and the first two
elements of any other list, as the fixtures' records are alike.
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

DATA = Path(__file__).parent / "data"
GT_PATH = DATA / "eval_micro_gt.json"
RESULTS_PATH = DATA / "eval_micro_results.json"
GT = json.loads(GT_PATH.read_text())
RESULTS = json.loads(RESULTS_PATH.read_text())
CONFIG = {key: default for options in _OPTIONS.values() for key, (default, _) in options.items()}
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


def _check(*argv) -> None:
    """Run maskpost; it must exit 0, or 2 with an ``error:`` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            # load_dataset warns about a box outside its image and goes on
            warnings.simplefilter("ignore", UserWarning)
            code = main([str(a) for a in argv])
    err = err.getvalue()
    assert "internal error" not in err and code in (0, 2), (argv, code, err)
    assert (code == 2) == ("error: " in err), (argv, code, err)


def _run(
    tmp_path: Path, commands, *extra, gt=GT_PATH, results=RESULTS_PATH, coarse=None, oracle=None
):
    """Run each of ``commands``: ``stats`` on ``gt``, ``eval`` with mask and
    box IoU on ``gt`` and ``results``, ``ensemble`` with box and with mask
    soft-NMS on ``results`` next to the unchanged fixture, and ``refine`` on
    the two archives."""
    models = ("--model", f"{results}:0.6", "--model", f"{RESULTS_PATH}:0.4")
    argvs = {
        "stats": [("--gt", gt)],
        "eval": [("--gt", gt, "--results", results, "--iou-on", iou) for iou in ("mask", "bbox")],
        "ensemble": [models, (*models, "--mask-iou-nms", "--merge-masks")],
        "refine": [("--coarse", coarse, "--oracle", oracle)],
    }
    for command in commands:
        for argv in argvs[command]:
            _check(command, *argv, "--out", tmp_path / "out.json", *extra)


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
    _run(tmp_path, ["stats", "eval"], gt=gt)


@settings(FUZZ, max_examples=80)
@given(path=st.sampled_from(list(_paths(RESULTS))), value=MUTATION)
# a box width that overflows box IoU
@example(path=(0, "bbox", 2), value=1e308)
def test_mutated_results(tmp_path, path, value):
    results = _write(tmp_path / "results.json", _mutated(RESULTS, path, value))
    _run(tmp_path, ["eval", "ensemble"], results=results)


@settings(FUZZ, max_examples=60)
@given(
    archive=st.sampled_from(sorted(LOGITS)),
    path=st.sampled_from(list(_paths(MANIFEST))),
    value=MUTATION,
)
def test_mutated_field_archive(tmp_path, archive, path, value):
    files = _archives(tmp_path)
    _write_archive(files[archive], _mutated(MANIFEST, path, value), archive)
    _run(tmp_path, ["refine"], **files)


@settings(FUZZ, max_examples=40)
@given(key=st.sampled_from(sorted(CONFIG)), value=MUTATION)
def test_mutated_config(tmp_path, key, value):
    config = _write(tmp_path / "config.json", _mutated(CONFIG, (key,), value))
    _run(tmp_path, ["stats", "eval", "ensemble", "refine"], "--config", config, **_archives(tmp_path))
