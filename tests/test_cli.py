import argparse
import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpost import (
    BBox,
    Detection,
    EnsembleConfig,
    EvalConfig,
    FieldInstance,
    ModelCandidate,
    ScoreField,
    SoftNmsConfig,
    binarize,
    dataset_ground_truth,
    ensemble,
    evaluate,
    load_dataset,
    load_results,
    plain_upsample,
    rle_decode,
    rle_encode,
    rle_string_decode,
    rle_string_encode,
    write_field_archive,
    write_results,
)
from maskpost import cli
from maskpost.cli import build_parser, main
from oracles import rle_counts_to_string
from scenario import N_IMAGES, build_ground_truth, build_models, pad_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# malformed compressed counts strings for a 4x4 mask, with the text each
# error names
BAD_COUNTS = [
    ("0P", "truncated RLE string"),
    ("oooooooooooooooo?", "more than 12"),
    ("0\u00e9", "invalid RLE character"),
    (rle_counts_to_string([0, 17]), "larger in magnitude"),
]


# plain counts lists for an 8x8 mask that are not lists of integers, or that
# no int64 array holds
BAD_COUNTS_LISTS = [
    ([True, 63], "counts[0]: expected an integer, got bool"),
    ([64.5], "counts[0]: expected an integer, got float"),
    ([1e30, 2], "counts[0]: expected an integer, got float"),
    ([2**70, 2], "counts must be integers in the int64 range, got object values"),
    ([2**63], "count 9223372036854775808 exceeds the 64 pixels"),
]

# 65 runs of 2**58 pixels on a 2**29 x 2**29 mask, as a compressed string:
# their int64 sum wraps round to the pixel count, so only the running total
# shows that they overrun the mask
WRAPPING_COUNTS = "PPPPPPPPPPP8" * 3 + "0" * 62
WRAPPING_FAULT = "running total exceeds the 288230376151711744 pixels of the mask"


# the flat polygon of annotation 1 in tests/data/eval_micro_gt.json
MICRO_SQUARE = [60.0, 60.0, 110.0, 60.0, 110.0, 110.0, 60.0, 110.0]

# boxes with a corner or an area beyond half the float range, where box IoU
# (differences of corners, a sum of two areas) overflows
HUGE_BOXES = [
    [5.0, 5.0, 1e308, 1e308],
    [1e308, 5.0, 1e308, 40.0],
    [5.0, 1e308, 40.0, 1e308],
    [5.0, 5.0, 1e154, 1e154],
]


def _micro_with_box(tmp_path, name, records, bbox):
    """A copy of the micro fixture ``name`` with the ``bbox`` of the first
    of its ``records`` (a key, or None for a top-level list) replaced."""
    doc = json.loads((Path(__file__).parent / "data" / name).read_text())
    (doc if records is None else doc[records])[0]["bbox"] = bbox
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _full_8x8_dataset(path, segmentation=None):
    """A dataset of one 8x8 image whose one annotation covers it."""
    segmentation = segmentation or {"size": [8, 8], "counts": [0, 64]}
    path.write_text(
        json.dumps(
            {
                "images": [{"id": 1, "width": 8, "height": 8}],
                "annotations": [{"image_id": 1, "category_id": 1, "segmentation": segmentation}],
                "categories": [{"id": 1}],
            }
        )
    )


def _archive_bytes(path):
    """The bytes of a small valid field archive, written to ``path``."""
    write_field_archive(path, [FieldInstance("i0", 1, 1, 0.9, ScoreField(np.ones((7, 7))))])
    return path.read_bytes()


def _write_npy(path):
    with path.open("wb") as fh:
        np.save(fh, np.ones(3))


def _edit_central_directory(offset, value):
    """A writer of a small valid field archive whose first central-directory
    entry has its byte ``offset`` set to ``value``: 6 is the low byte of the
    version needed to extract, 10 of the compression method."""
    def write(path):
        data = bytearray(_archive_bytes(path))
        data[data.index(b"PK\x01\x02") + offset] = value
        path.write_bytes(data)
    return write


def write_scenario_files(tmp_path):
    """Dataset + per-model results files for the constructed 3-model case."""
    gt_path = tmp_path / "gt.json"
    gts = build_ground_truth()
    dataset = {
        "images": [{"id": g.image_id, "width": 24, "height": 24} for g in gts],
        "annotations": [
            {
                "id": i + 1,
                "image_id": g.image_id,
                "category_id": g.category_id,
                "segmentation": {
                    "size": [g.mask.height, g.mask.width],
                    "counts": rle_string_encode(g.mask),
                },
                "bbox": g.bbox.to_list(),
            }
            for i, g in enumerate(gts)
        ],
        "categories": [{"id": 1, "name": "object"}],
    }
    gt_path.write_text(json.dumps(dataset))
    model_paths = []
    for model in build_models():
        path = tmp_path / f"{model.model_id}.json"
        write_results(path, model.detections)
        model_paths.append((str(path), model.validation_score))
    return gt_path, model_paths


# (flag, dest, type, choices, action, help) of every option of each
# subcommand: the parser generated from the option table must keep them all
_CONFIG = ("--config", "config", None, None, "_StoreAction", "JSON file of option defaults")
_OUT = ("--out", "out", None, None, "_StoreAction", "output file path")
_SEED = ("--seed", "seed", "int", None, "_StoreAction", "random seed where sampling applies")
_THREADS = ("--threads", "threads", "int", None, "_StoreAction", "worker threads (0 = one per available core, default)")
PARSER_OPTIONS = {
    "refine": [
        ("--coarse", "coarse", None, None, "_StoreAction", "field archive (.npz) of coarse per-instance logits"),
        ("--oracle", "oracle", None, None, "_StoreAction", "field archive of reference logits for the oracle predictor"),
        ("--predictor", "predictor", None, ("oracle", "identity"), "_StoreAction", "point predictor"),
        ("--start-side", "start_side", "int", None, "_StoreAction", "coarse resolution"),
        ("--subdivision-k", "subdivision_k", "int", None, "_StoreAction", "points re-predicted per step = k^2"),
        ("--synthetic", "synthetic", None, None, "_StoreAction", "shape corpus spec, e.g. 'default' or 'disk:10,rect:5'"),
        ("--target-side", "target_side", "int", None, "_StoreAction", "output resolution"),
        _CONFIG, _OUT, _SEED, _THREADS,
    ],
    "ensemble": [
        ("--class-agnostic", "class_agnostic", None, None, "_StoreConstAction", "suppress across categories"),
        ("--cluster-iou", "cluster_iou", "float", None, "_StoreAction", None),
        ("--iou-threshold", "iou_threshold", "float", None, "_StoreAction", None),
        ("--mask-iou-nms", "mask_iou_nms", None, None, "_StoreConstAction", "overlap on masks instead of boxes"),
        ("--merge-masks", "merge_masks", None, None, "_StoreConstAction", "vote-merge masks of near-duplicate survivors"),
        ("--model", "model", None, None, "_AppendAction", "results file and its validation score; repeatable"),
        ("--nms-method", "nms_method", None, ("gaussian", "linear", "hard"), "_StoreAction", None),
        ("--score-floor", "score_floor", "float", None, "_StoreAction", None),
        ("--sigma", "sigma", "float", None, "_StoreAction", "gaussian decay width"),
        ("--strategy", "strategy", None, ("linear_interpolation", "linear_reweight"), "_StoreAction", None),
        ("--theta-max", "theta_max", "float", None, "_StoreAction", None),
        ("--theta-min", "theta_min", "float", None, "_StoreAction", None),
        _CONFIG, _OUT, _SEED, _THREADS,
    ],
    "eval": [
        ("--gt", "gt", None, None, "_StoreAction", "dataset JSON with ground-truth annotations"),
        ("--iou-on", "iou_on", None, ("mask", "bbox"), "_StoreAction", None),
        ("--max-dets", "max_dets", "int", None, "_StoreAction", "detections kept per image and category"),
        ("--results", "results", None, None, "_StoreAction", "detection results JSON"),
        _CONFIG, _OUT, _SEED, _THREADS,
    ],
    "stats": [
        ("--bin-width", "bin_width", "float", None, "_StoreAction", "sqrt-area bin width"),
        ("--gt", "gt", None, None, "_StoreAction", "dataset JSON"),
        ("--sample-n", "sample_n", "int", None, "_StoreAction", "images sampled before counting (0 = all)"),
        _CONFIG, _OUT, _SEED, _THREADS,
    ],
}


class TestParser:
    @staticmethod
    def _subparsers():
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_every_flag_keeps_its_dest_type_choices_action_and_help(self):
        subparsers = self._subparsers()
        assert sorted(subparsers) == sorted(PARSER_OPTIONS)
        for command, expected in PARSER_OPTIONS.items():
            actual = [
                (a.option_strings[0], a.dest, a.type and a.type.__name__,
                 a.choices and tuple(a.choices), type(a).__name__, a.help)
                for a in subparsers[command]._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            assert sorted(actual, key=str) == sorted(expected, key=str), command

    def test_unset_flags_leave_none_so_config_and_defaults_apply(self):
        for command, p in self._subparsers().items():
            for a in p._actions:
                if isinstance(a, argparse._HelpAction):
                    continue
                assert a.default is None, (command, a.dest)
                assert a.required == (a.dest == "out"), (command, a.dest)
                if isinstance(a, argparse._StoreConstAction):
                    assert a.const is True, (command, a.dest)


class TestRefineCommand:
    @pytest.mark.parametrize(
        "spec, named",
        [
            ("disk:-1,rect:2", "corpus spec part 'disk:-1': count must be a positive integer"),
            ("rect:17", "corpus spec part 'rect:17': shape 15: rect needs a half-height b > 0"),
            ("annulus:30", "corpus spec part 'annulus:30': shape 28: annulus needs 0 <= b < a"),
        ],
    )
    def test_bad_corpus_spec_exits_2(self, tmp_path, capsys, spec, named):
        out = tmp_path / "r.json"
        code, _, err = run_cli(capsys, "refine", "--synthetic", spec, "--out", str(out))
        assert code == 2
        assert f"error: {named}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--coarse", "--oracle"])
    def test_synthetic_excludes_archive_inputs(self, tmp_path, capsys, flag):
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "refine", "--synthetic", "disk:1", flag, str(tmp_path / "absent.npz"), "--out", str(out)
        )
        assert code == 2
        assert err.splitlines() == [f"error: --synthetic and {flag} are mutually exclusive"]
        assert not out.exists()

    def test_synthetic_oracle_run(self, tmp_path, capsys):
        out = tmp_path / "rendered.json"
        code, stdout, _ = run_cli(
            capsys,
            "refine",
            "--synthetic", "disk:2,rect:1",
            "--subdivision-k", "14",
            "--target-side", "56",
            "--out", str(out),
        )
        assert code == 0
        assert "mean_iou" in stdout
        dets = load_results(out)
        assert len(dets) == 3
        assert dets[0].mask.width == 56
        assert (tmp_path / "rendered.json.config.json").exists()

    def test_synthetic_reference_built_per_render(self, tmp_path, capsys, monkeypatch):
        # each shape's target-side reference field is made when its render
        # starts, not all of them before the first render
        events = []

        def traced(name, call):
            def wrapper(*args):
                events.append(name)
                return call(*args)
            return wrapper

        for name in ("shape_field", "subdivision_mask"):
            monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
        out = tmp_path / "rendered.json"
        code, _, _ = run_cli(
            capsys, "refine", "--synthetic", "disk:2,rect:1", "--target-side", "56",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        assert events == ["shape_field", "subdivision_mask"] * 3

    def test_identity_predictor_matches_plain_upsample(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        instances = [
            FieldInstance(f"i{k}", k + 1, 1, 0.9, ScoreField(rng.normal(size=(7, 7))))
            for k in range(2)
        ]
        coarse = tmp_path / "coarse.npz"
        write_field_archive(coarse, instances)
        out = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys,
            "refine",
            "--coarse", str(coarse),
            "--predictor", "identity",
            "--target-side", "28",
            "--out", str(out),
        )
        assert code == 0
        dets = load_results(out)
        assert len(dets) == 2
        for inst, det in zip(instances, sorted(dets, key=lambda d: d.image_id)):
            expected = binarize(plain_upsample(inst.field, 28))
            assert np.array_equal(rle_decode(det.mask), expected)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "refine",
            "--coarse", str(tmp_path / "absent.npz"),
            "--out", str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "absent.npz" in err

    @pytest.mark.parametrize(
        "spoil, named",
        [
            (
                lambda meta, arrays: arrays.update({"logits:i1": np.ones((8, 8))}),
                "instance i1: coarse field is 8x8, expected 7x7",
            ),
            (lambda meta, arrays: meta.pop("instances"), "instances: missing"),
            (
                lambda meta, arrays: meta["instances"][1].pop("image_id"),
                "instances[1].image_id: missing",
            ),
            (
                lambda meta, arrays: meta["instances"][0].update(score=1.5),
                "instances[0].score: 1.5 outside [0, 1]",
            ),
            (
                lambda meta, arrays: arrays["logits:i1"].__setitem__((2, 3), np.nan),
                "instance i1: logits must be finite",
            ),
            (
                lambda meta, arrays: meta["instances"][1].update(id=1),
                'instances[1].id: ids must all be strings or all integers, got 1 after "i0"',
            ),
            (
                lambda meta, arrays: meta["instances"][1].update(id="i0"),
                'instances[1].id: instance "i0" already appears at instances[0]',
            ),
            (
                lambda meta, arrays: meta["instances"][1].update(id=None),
                "instances[1].id: expected a string or an integer, got null",
            ),
            (
                lambda meta, arrays: meta["instances"][0].update(id=[1]),
                "instances[0].id: expected a string or an integer, got [1]",
            ),
            (
                lambda meta, arrays: meta["instances"][0].update(id=True),
                "instances[0].id: expected a string or an integer, got true",
            ),
        ],
    )
    def test_bad_coarse_archive_exits_2(self, tmp_path, capsys, spoil, named):
        meta = {
            "instances": [
                {"id": f"i{k}", "image_id": k + 1, "category_id": 1, "score": 0.9}
                for k in range(2)
            ]
        }
        arrays = {f"logits:i{k}": np.ones((7, 7)) for k in range(2)}
        spoil(meta, arrays)
        coarse = tmp_path / "coarse.npz"
        np.savez(coarse, meta=np.array(json.dumps(meta)), **arrays)
        out = tmp_path / "out.json"
        code, _, err = run_cli(
            capsys, "refine", "--coarse", str(coarse), "--predictor", "identity", "--out", str(out)
        )
        assert code == 2
        assert f"error: {coarse}: " in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "write, named",
        [
            (lambda p: p.write_bytes(b""), "not a field archive ("),
            (lambda p: p.write_text("id,score\n"), "not a field archive ("),
            (_write_npy, "not a field archive (a single .npy array)"),
            (lambda p: p.write_bytes(_archive_bytes(p)[:200]), "not a field archive ("),
            (
                lambda p: np.savez(p, meta=np.array("{instances: []"), **{"logits:i0": np.ones((7, 7))}),
                "manifest: invalid JSON (",
            ),
            (_edit_central_directory(6, 130), "not a field archive (zip file version 13.0)"),
            (
                _edit_central_directory(10, 99),
                "not a field archive (That compression method is not supported)",
            ),
        ],
        ids=["empty", "text", "npy", "truncated", "manifest", "zip-version", "zip-method"],
    )
    def test_unreadable_archive_exits_2(self, tmp_path, capsys, write, named):
        coarse = tmp_path / "coarse.npz"
        write(coarse)
        out = tmp_path / "out.json"
        code, _, err = run_cli(
            capsys, "refine", "--coarse", str(coarse), "--predictor", "identity", "--out", str(out)
        )
        assert code == 2
        assert f"error: {coarse}: {named}" in err
        assert not out.exists()

    def test_integer_ids_still_render(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        fields = {k: ScoreField(rng.normal(size=(7, 7))) for k in (3, 1, 2)}
        coarse = tmp_path / "coarse.npz"
        write_field_archive(coarse, [FieldInstance(k, k, 1, 0.5, f) for k, f in fields.items()])
        out = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys, "refine", "--coarse", str(coarse), "--predictor", "identity",
            "--target-side", "28", "--out", str(out),
        )
        assert code == 0
        for det in load_results(out):
            expected = binarize(plain_upsample(fields[det.image_id], 28))
            assert np.array_equal(rle_decode(det.mask), expected)

    @pytest.mark.parametrize("predictor", ["identity", "oracle"])
    def test_threads_do_not_change_output(self, tmp_path, capsys, predictor):
        """Ids written out of order, and one (image, category, score) for
        all: the results order falls to the instance id, under any pool."""
        rng = np.random.default_rng(23)
        ids = ["d", "b", "e", "a", "c"]
        coarse = [FieldInstance(i, 4, 2, 0.75, ScoreField(rng.normal(size=(7, 7)))) for i in ids]
        oracle = [FieldInstance(i, 4, 2, 0.75, ScoreField(rng.normal(size=(28, 28)))) for i in ids]
        write_field_archive(tmp_path / "coarse.npz", coarse)
        write_field_archive(tmp_path / "oracle.npz", oracle)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}" / "out.json"
            out.parent.mkdir()
            code, stdout, _ = run_cli(
                capsys, "refine", "--coarse", str(tmp_path / "coarse.npz"),
                "--oracle", str(tmp_path / "oracle.npz"), "--predictor", predictor,
                "--target-side", "28", "--subdivision-k", "5", "--threads", threads,
                "--out", str(out),
            )
            assert code == 0
            sidecar = json.loads(Path(str(out) + ".config.json").read_text())
            assert sidecar["options"].pop("threads") == int(threads)
            runs.append((out.read_bytes(), stdout.replace(str(out), "OUT"), sidecar))
        assert runs[0] == runs[1]
        assert ("mean_iou" in runs[0][1]) == (predictor == "oracle")
        if predictor == "identity":
            by_id = sorted(coarse, key=lambda inst: inst.instance_id)
            dets = load_results(tmp_path / "t1" / "out.json")
            for inst, det in zip(by_id, dets, strict=True):
                expected = binarize(plain_upsample(inst.field, 28))
                assert np.array_equal(rle_decode(det.mask), expected)

    def test_threads_zero_is_one_worker_per_available_core(self, monkeypatch):
        """``--threads 0`` sizes the pool by the CPUs this process may run
        on, not by the host's count."""
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli._worker_count({"threads": 0}) == 2
        assert cli._worker_count({"threads": 3}) == 3
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli._worker_count({"threads": 0}) == 64

    def test_more_points_non_decreasing_mean_iou(self, tmp_path, capsys):
        means = {}
        for k in (28, 70):
            out = tmp_path / f"r{k}.json"
            code, stdout, _ = run_cli(
                capsys,
                "refine",
                "--synthetic", "disk:2,annulus:2",
                "--subdivision-k", str(k),
                "--target-side", "112",
                "--out", str(out),
            )
            assert code == 0
            means[k] = float(stdout.split("mean_iou")[1].split()[0])
        assert means[70] >= means[28]


class TestEnsembleCommand:
    def test_weights_span_and_output(self, tmp_path, capsys):
        _, model_paths = write_scenario_files(tmp_path)
        # synthetic validation scores spanning the published candidate range
        scores = [76.95, 77.21, 77.38]
        out = tmp_path / "fused.json"
        args = ["ensemble", "--out", str(out)]
        for (path, _), s in zip(model_paths, scores):
            args += ["--model", f"{path}:{s}"]
        code, stdout, _ = run_cli(capsys, *args)
        assert code == 0
        weights = [float(line.split()[-1]) for line in stdout.splitlines() if line.startswith("weight ")]
        assert min(weights) == 0.6
        assert max(weights) == 1.0
        assert out.exists()

    def test_single_model_passthrough_soft_nms(self, tmp_path, capsys):
        _, model_paths = write_scenario_files(tmp_path)
        out = tmp_path / "fused.json"
        code, _, _ = run_cli(
            capsys, "ensemble", "--model", f"{model_paths[0][0]}:77.0", "--out", str(out)
        )
        assert code == 0
        dets = load_results(out)
        assert len(dets) == 6  # disjoint per-image detections survive untouched

    def test_linear_reweight_even_spacing(self, tmp_path, capsys):
        _, model_paths = write_scenario_files(tmp_path)
        out = tmp_path / "fused.json"
        args = ["ensemble", "--strategy", "linear_reweight", "--out", str(out)]
        for (path, _), s in zip(model_paths, [70.0, 71.0, 72.0]):
            args += ["--model", f"{path}:{s}"]
        code, stdout, _ = run_cli(capsys, *args)
        assert code == 0
        weights = [float(line.split()[-1]) for line in stdout.splitlines() if line.startswith("weight ")]
        assert weights == [0.6, 0.8, 1.0]

    def test_bad_model_spec_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "ensemble", "--model", "nocolon", "--out", str(tmp_path / "f.json")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--theta-min", "1.0", "--theta-max", "0.5"], "theta_min"),
            (["--theta-max", "nan"], "theta_max"),
            (["--sigma", "0"], "sigma"),
            (["--sigma", "nan"], "sigma"),
            (["--iou-threshold", "2"], "iou_threshold"),
            (["--score-floor", "nan"], "score_floor"),
            (["--merge-masks", "--cluster-iou", "-1"], "cluster_iou"),
            (["--threads", "-3"], "invalid option: threads must be non-negative, got -3"),
            (["--seed", "-2"], "invalid option: seed must be non-negative, got -2"),
        ],
    )
    def test_bad_option_value_exits_2(self, tmp_path, capsys, flags, named):
        _, model_paths = write_scenario_files(tmp_path)
        out = tmp_path / "fused.json"
        code, _, err = run_cli(
            capsys, "ensemble", "--model", f"{model_paths[0][0]}:77.0", *flags, "--out", str(out)
        )
        assert code == 2
        assert named in err
        assert not out.exists()

    def test_non_finite_model_score_exits_2(self, tmp_path, capsys):
        _, model_paths = write_scenario_files(tmp_path)
        out = tmp_path / "fused.json"
        spec = f"{model_paths[0][0]}:nan"
        code, _, err = run_cli(capsys, "ensemble", "--model", spec, "--out", str(out))
        assert code == 2
        assert "--model" in err and spec in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, fault",
        [
            (["--model=/nonexistent/a.json:0", "--model=/nonexistent/a.json:1",
              "--theta-min=-1e308", "--theta-max=1e308"],
             "theta_min -1e+308, theta_max 1e+308, validation scores 0.0 to 1.0"),
            (["--model=/nonexistent/a.json:0", "--model=/nonexistent/a.json:1",
              "--theta-min=-1e308", "--theta-max=1e308", "--strategy", "linear_reweight"],
             "theta_min -1e+308, theta_max 1e+308, validation scores 0.0 to 1.0"),
            (["--model=/nonexistent/a.json:1e308", "--model=/nonexistent/a.json:-1e308"],
             "theta_min 0.6, theta_max 1.0, validation scores -1e+308 to 1e+308"),
        ],
        ids=["interpolation-thetas", "reweight-thetas", "interpolation-scores"],
    )
    def test_weight_overflow_exits_2_before_any_read(self, tmp_path, capsys, flags, fault):
        """Weights are computed before the first read, so the missing files
        are never named, and numpy's overflow is not warned about."""
        out = tmp_path / "fused.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run_cli(capsys, "ensemble", *flags, "--out", str(out))
        assert [str(w.message) for w in caught] == []
        assert (code, stdout) == (2, "")
        assert err == f"error: invalid option: model weights overflow: {fault}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bbox", HUGE_BOXES)
    def test_box_too_large_exits_2(self, tmp_path, capsys, bbox):
        results = _micro_with_box(tmp_path, "eval_micro_results.json", None, bbox)
        out = tmp_path / "fused.json"
        code, _, err = run_cli(capsys, "ensemble", "--model", f"{results}:0.5", "--out", str(out))
        assert code == 2
        assert f"error: results[0].bbox: coordinates too large in {bbox}" in err
        assert not out.exists()

    def test_linear_decay_of_a_rounded_iou_exits_0(self, tmp_path, capsys):
        # y + h rounds at this height, so the box's IoU with itself reads 1.5
        rec = {"image_id": 1, "category_id": 1, "bbox": [0, 9007199254740994, 1, 5]}
        model = tmp_path / "big.json"
        model.write_text(json.dumps([dict(rec, score=0.9), dict(rec, score=0.8)]))
        out = tmp_path / "fused.json"
        code, _, err = run_cli(
            capsys, "ensemble", "--model", f"{model}:1", "--nms-method", "linear",
            "--iou-threshold", "0.3", "--score-floor=-1e9", "--out", str(out),
        )
        assert (code, err) == (0, "")
        assert [r["score"] for r in json.loads(out.read_text())] == [0.9, 0.0]

    @pytest.mark.parametrize("counts, fault", BAD_COUNTS)
    def test_bad_counts_string_exits_2(self, tmp_path, capsys, counts, fault):
        ok = {"image_id": 1, "category_id": 1, "score": 0.5, "bbox": [0, 0, 2, 2]}
        bad = dict(ok, segmentation={"size": [4, 4], "counts": counts})
        model = tmp_path / "f.json"
        model.write_text(json.dumps([ok, bad]))
        out = tmp_path / "fused.json"
        code, _, err = run_cli(capsys, "ensemble", "--model", f"{model}:0.5", "--out", str(out))
        assert code == 2
        assert "error: results[1].segmentation.counts: " in err and fault in err
        assert not out.exists()

    @pytest.mark.parametrize("counts, fault", BAD_COUNTS_LISTS)
    def test_bad_counts_list_exits_2(self, tmp_path, capsys, counts, fault):
        ok = {"image_id": 1, "category_id": 1, "score": 0.5, "bbox": [0, 0, 8, 8]}
        bad = dict(ok, segmentation={"size": [8, 8], "counts": counts})
        model = tmp_path / "f.json"
        model.write_text(json.dumps([ok, bad]))
        out = tmp_path / "fused.json"
        code, _, err = run_cli(capsys, "ensemble", "--model", f"{model}:0.5", "--out", str(out))
        assert code == 2
        assert "error: results[1].segmentation.counts" in err and fault in err
        assert not out.exists()

    @pytest.mark.parametrize("counts", [WRAPPING_COUNTS, [2**58] * 65], ids=["string", "list"])
    def test_wrapping_counts_exit_2(self, tmp_path, capsys, counts):
        # a string and a list of the same counts get the same message
        segmentation = {"size": [2**29, 2**29], "counts": counts}
        model = tmp_path / "f.json"
        model.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 0.5,
                                      "bbox": [0, 0, 1, 1], "segmentation": segmentation}]))
        out = tmp_path / "fused.json"
        code, stdout, err = run_cli(capsys, "ensemble", "--model", f"{model}:1", "--out", str(out))
        wire = "RLE string decodes to invalid counts: " if isinstance(counts, str) else ""
        assert code == 2 and stdout == "" and not out.exists()
        assert err == f"error: results[0].segmentation.counts: {wire}{WRAPPING_FAULT}\n"

    def test_mismatched_image_ids_warn(self, tmp_path, capsys):
        _, model_paths = write_scenario_files(tmp_path)
        sliced = load_results(model_paths[0][0])[:3]
        partial = tmp_path / "partial.json"
        write_results(partial, sliced)
        out = tmp_path / "fused.json"
        code, _, err = run_cli(
            capsys,
            "ensemble",
            "--model", f"{model_paths[0][0]}:77.0",
            "--model", f"{partial}:76.0",
            "--out", str(out),
        )
        assert code == 0
        assert err == "warning: model files cover different image id sets\n"
        assert out.exists()

    @pytest.mark.parametrize("flag", ["--mask-iou-nms", "--merge-masks"])
    def test_record_without_mask_exits_2(self, tmp_path, capsys, flag):
        _, model_paths = write_scenario_files(tmp_path)
        boxes_only = tmp_path / "boxes.json"
        records = json.loads(Path(model_paths[1][0]).read_text())
        del records[2]["segmentation"]
        boxes_only.write_text(json.dumps(records))
        out = tmp_path / "fused.json"
        code, _, err = run_cli(
            capsys,
            "ensemble",
            "--model", f"{model_paths[0][0]}:77.0",
            "--model", f"{boxes_only}:76.0",
            flag,
            "--out", str(out),
        )
        assert code == 2
        assert f"{boxes_only}: results[2]" in err
        assert "segmentation" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--mask-iou-nms", "--merge-masks"])
    def test_mask_sizes_differ_per_image_exits_2(self, tmp_path, capsys, flag):
        bits = np.zeros((8, 8), dtype=bool)
        bits[2:5, 2:5] = True
        square, short = tmp_path / "square.json", tmp_path / "short.json"
        write_results(square, [Detection(1, 1, 0.9, BBox(2, 2, 3, 3), rle_encode(bits))])
        write_results(
            short,
            [
                Detection(2, 1, 0.9, BBox(2, 2, 3, 3), rle_encode(bits)),
                Detection(1, 1, 0.8, BBox(2, 2, 3, 3), rle_encode(bits[:6])),
            ],
        )
        out = tmp_path / "fused.json"
        code, _, err = run_cli(
            capsys,
            "ensemble",
            "--model", f"{square}:77.0",
            "--model", f"{short}:76.0",
            flag,
            "--out", str(out),
        )
        assert code == 2
        assert f"{short}: results[1]" in err and f"{square}: results[0]" in err
        assert "8x6" in err and "8x8" in err
        assert err.splitlines()[-1] == (
            f"error: {short}: results[1].segmentation: mask is 8x6 but "
            f"{square}: results[0] gives image 1 a 8x8 mask"
        )
        assert not out.exists()

    def test_zero_score_under_a_negative_weight_is_written_as_minus_zero(self, tmp_path, capsys):
        """The weight clip is min(max(s * w, 0.0), 1.0), which keeps the -0.0
        of a zero score times a negative weight (np.clip would not)."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 0, "bbox": [0, 0, 2, 2]}]))
        b.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 0.5, "bbox": [10, 10, 2, 2]}]))
        out = tmp_path / "fused.json"
        code, _, err = run_cli(capsys, "ensemble", "--model", f"{a}:0", "--model", f"{b}:1",
                               "--theta-min=-0.5", "--score-floor=-1", "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_text() == (
            '[{"bbox": [10.0, 10.0, 2.0, 2.0], "category_id": 1, "image_id": 1, "score": 0.5}, '
            '{"bbox": [0.0, 0.0, 2.0, 2.0], "category_id": 1, "image_id": 1, "score": -0.0}]\n'
        )

    def test_padded_counts_string_is_written_as_the_encoder_writes_it(self, tmp_path, capsys):
        """"Q0" spells the value 1 with a chunk of sign extension, so its
        mask is encoded again, as "1", not copied."""
        model = tmp_path / "q0.json"
        model.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 0.5,
                                      "segmentation": {"size": [1, 1], "counts": "Q0"}}]))
        out = tmp_path / "fused.json"
        code, _, _ = run_cli(capsys, "ensemble", "--model", f"{model}:1", "--out", str(out))
        assert code == 0
        assert out.read_text() == (
            '[{"bbox": [0.0, 0.0, 0.0, 0.0], "category_id": 1, "image_id": 1, "score": 0.5, '
            '"segmentation": {"counts": "1", "size": [1, 1]}}]\n'
        )

    def test_merged_mask_is_encoded_not_copied(self, tmp_path, capsys):
        """A vote-merged mask keeps no string: three overlapping column
        bands vote the representative's first column out and a fourth in."""
        def record(score, first_col):
            bits = np.zeros((6, 6), dtype=bool)
            bits[:, first_col : first_col + 4] = True
            counts = rle_string_encode(rle_encode(bits))
            return {"image_id": 1, "category_id": 1, "score": score,
                    "segmentation": {"size": [6, 6], "counts": counts}}

        model = tmp_path / "bands.json"
        model.write_text(json.dumps([record(0.9, 0), record(0.8, 1), record(0.8, 1)]))
        out = tmp_path / "fused.json"
        code, _, _ = run_cli(capsys, "ensemble", "--model", f"{model}:1", "--merge-masks",
                             "--nms-method", "hard", "--iou-threshold", "1", "--out", str(out))
        assert code == 0
        (fused,) = json.loads(out.read_text())
        assert fused["score"] == 0.9
        assert fused["segmentation"]["counts"] == record(0.8, 1)["segmentation"]["counts"]

    def test_negative_exponent_value_parses_in_the_equals_form(self, tmp_path, capsys):
        # argparse reads "--theta-min -1e-3" as two options; "=" joins them
        _, model_paths = write_scenario_files(tmp_path)
        out = tmp_path / "fused.json"
        code, _, err = run_cli(capsys, "ensemble", "--model", f"{model_paths[0][0]}:1",
                               "--theta-min=-1e-3", "--out", str(out))
        assert (code, err) == (0, "")
        assert json.loads(Path(f"{out}.config.json").read_text())["options"]["theta_min"] == -0.001


class TestEvalCommand:
    def test_perfect_results(self, tmp_path, capsys):
        gt_path, model_paths = write_scenario_files(tmp_path)
        results = tmp_path / "perfect.json"
        gts = build_ground_truth()
        from maskpost import Detection

        write_results(
            results,
            [
                Detection(g.image_id, g.category_id, 0.9, g.bbox, g.mask)
                for g in gts
            ],
        )
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(out)
        )
        assert code == 0
        assert "mAP    1.000000" in stdout
        report = json.loads(out.read_text())
        assert report["mAP"] == 1.0
        assert (tmp_path / "report.txt").exists()

    def test_missing_gt_category_noted(self, tmp_path, capsys):
        gt_path, model_paths = write_scenario_files(tmp_path)
        rogue = tmp_path / "rogue.json"
        dets = load_results(model_paths[0][0])
        from dataclasses import replace

        write_results(rogue, [replace(dets[0], category_id=42)] + dets[1:])
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(rogue), "--out", str(out)
        )
        assert code == 0
        assert "42" in stdout
        assert "excluded" in stdout

    def test_micro_fixture_matches_oracle_goldens(self, tmp_path, capsys):
        # expected values were generated with the brute-force evaluator in
        # oracles.py and shipped alongside the fixture files
        data = Path(__file__).parent / "data"
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "eval",
            "--gt", str(data / "eval_micro_gt.json"),
            "--results", str(data / "eval_micro_results.json"),
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        expected = json.loads((data / "eval_micro_expected.json").read_text())
        for key in ("mAP", "AP50", "AP75", "APs", "APm", "APl"):
            assert report[key] == pytest.approx(expected[key], abs=1e-10)
        for cat, value in expected["per_category"].items():
            assert report["per_category"][cat] == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("bbox", HUGE_BOXES)
    def test_box_too_large_exits_2(self, tmp_path, capsys, bbox):
        data = Path(__file__).parent / "data"
        results = _micro_with_box(tmp_path, "eval_micro_results.json", None, bbox)
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(data / "eval_micro_gt.json"), "--results", str(results),
            "--iou-on", "bbox", "--out", str(out),
        )
        assert code == 2
        assert f"error: results[0].bbox: coordinates too large in {bbox}" in err
        assert not out.exists()

    def test_missing_results_exits_2(self, tmp_path, capsys):
        gt_path, _ = write_scenario_files(tmp_path)
        code, _, _ = run_cli(
            capsys,
            "eval",
            "--gt", str(gt_path),
            "--results", str(tmp_path / "none.json"),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("iou_on", ["mask", "bbox"])
    def test_result_mask_size_mismatch_exits_2(self, tmp_path, capsys, iou_on):
        bits = np.zeros((8, 8), dtype=bool)
        bits[2:5, 2:5] = True
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(
            json.dumps(
                {
                    "images": [{"id": 1, "width": 8, "height": 8}],
                    "annotations": [
                        {
                            "id": 1,
                            "image_id": 1,
                            "category_id": 1,
                            "segmentation": {
                                "size": [8, 8],
                                "counts": rle_string_encode(rle_encode(bits)),
                            },
                        }
                    ],
                    "categories": [{"id": 1}],
                }
            )
        )
        results = tmp_path / "results.json"
        write_results(
            results,
            [
                Detection(1, 1, 0.9, BBox(2, 2, 3, 3), rle_encode(bits)),
                Detection(1, 1, 0.8, BBox(2, 2, 3, 3), rle_encode(bits[:6])),
            ],
        )
        code, _, err = run_cli(
            capsys,
            "eval",
            "--gt", str(gt_path),
            "--results", str(results),
            "--iou-on", iou_on,
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "results[1]" in err
        assert "8x6" in err and "8x8" in err
        assert err == (
            f"error: results[1].segmentation: mask is 8x6 but {gt_path} gives image 1 a 8x8 mask\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_unknown_image_named_before_a_mask_fault(self, tmp_path, capsys):
        bits = np.zeros((6, 8), dtype=bool)
        gt_path = tmp_path / "gt.json"
        _full_8x8_dataset(gt_path)
        results = tmp_path / "results.json"
        write_results(
            results,
            [Detection(1, 1, 0.9, BBox(0, 0, 8, 6), rle_encode(bits)), Detection(7, 1, 0.8, BBox(0, 0, 8, 8))],
        )
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(tmp_path / "r.json")
        )
        assert code == 2
        assert err == f"error: results[1].image_id: image 7 is not in {gt_path}\n"

    def test_box_iou_skips_a_missing_mask_but_checks_every_mask_size(self, tmp_path, capsys):
        bits = np.zeros((8, 8), dtype=bool)
        bits[2:5, 2:5] = True
        gt_path = tmp_path / "gt.json"
        _full_8x8_dataset(gt_path)
        boxed = Detection(1, 1, 0.9, BBox(0, 0, 8, 8))
        results, out = tmp_path / "results.json", tmp_path / "r.json"
        argv = ("eval", "--gt", str(gt_path), "--results", str(results), "--iou-on", "bbox")
        write_results(results, [boxed, Detection(1, 1, 0.8, BBox(2, 2, 3, 3), rle_encode(bits))])
        code, _, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        write_results(results, [boxed, Detection(1, 1, 0.8, BBox(2, 2, 3, 3), rle_encode(bits[:6]))])
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "bad.json"))
        assert code == 2
        assert err == (
            f"error: results[1].segmentation: mask is 8x6 but {gt_path} gives image 1 a 8x8 mask\n"
        )
        assert not (tmp_path / "bad.json").exists()


    @pytest.mark.parametrize("counts, fault", BAD_COUNTS)
    def test_bad_gt_counts_string_exits_2(self, tmp_path, capsys, counts, fault):
        ann = {"image_id": 1, "category_id": 1, "segmentation": {"size": [4, 4], "counts": "`0"}}
        bad = dict(ann, segmentation={"size": [4, 4], "counts": counts})
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(
            json.dumps(
                {
                    "images": [{"id": 1, "width": 4, "height": 4}],
                    "annotations": [ann, ann, bad],
                    "categories": [{"id": 1}],
                }
            )
        )
        results = tmp_path / "results.json"
        write_results(results, [Detection(1, 1, 0.9, BBox(0, 0, 4, 4))])
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(out)
        )
        assert code == 2
        assert "error: annotations[2].segmentation.counts: " in err and fault in err
        assert not out.exists()

    def test_wrapping_counts_exit_2(self, tmp_path, capsys):
        # accepted, the mask would have area -2**63
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps({"images": [{"id": 1, "width": 2**29, "height": 2**29}],
                                       "annotations": [], "categories": [{"id": 1}]}))
        segmentation = {"size": [2**29, 2**29], "counts": WRAPPING_COUNTS}
        results = tmp_path / "results.json"
        results.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 0.5,
                                        "segmentation": segmentation}]))
        out = tmp_path / "r.json"
        code, stdout, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(out)
        )
        assert code == 2 and stdout == "" and not out.exists()
        assert err == (
            "error: results[0].segmentation.counts: "
            f"RLE string decodes to invalid counts: {WRAPPING_FAULT}\n"
        )

    @pytest.mark.parametrize("counts, fault", BAD_COUNTS_LISTS)
    def test_bad_counts_list_exits_2(self, tmp_path, capsys, counts, fault):
        gt_path = tmp_path / "gt.json"
        _full_8x8_dataset(gt_path)
        ok = {"image_id": 1, "category_id": 1, "score": 0.9, "bbox": [0, 0, 8, 8],
              "segmentation": {"size": [8, 8], "counts": [0, 64]}}
        bad = dict(ok, segmentation={"size": [8, 8], "counts": counts})
        results = tmp_path / "results.json"
        results.write_text(json.dumps([ok, bad]))
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(out)
        )
        assert code == 2
        assert "error: results[1].segmentation.counts" in err and fault in err
        assert not out.exists()

        _full_8x8_dataset(gt_path, {"size": [8, 8], "counts": counts})
        results.write_text(json.dumps([ok]))
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(out)
        )
        assert code == 2
        assert "error: annotations[0].segmentation.counts" in err and fault in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_polygon_exits_2(self, tmp_path, capsys, bad):
        gt_path = tmp_path / "gt.json"
        _full_8x8_dataset(gt_path, [[0, 0, bad, 0, 4, 4]])
        assert "Infinity" in gt_path.read_text() or "NaN" in gt_path.read_text()
        results = tmp_path / "results.json"
        write_results(results, [Detection(1, 1, 0.9, BBox(0, 0, 4, 4))])
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results),
            "--iou-on", "bbox", "--out", str(out),
        )
        assert code == 2
        assert "error: annotations[0].segmentation: polygon coordinates must be finite" in err
        assert not out.exists()

    @staticmethod
    def _eval_micro_with_polygon(tmp_path, capsys, edit):
        """``eval`` on the micro fixture after ``edit`` changes annotation
        1's segmentation, a list holding one flat coordinate list."""
        data = Path(__file__).parent / "data"
        gt = json.loads((data / "eval_micro_gt.json").read_text())
        edit(gt["annotations"][1]["segmentation"])
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps(gt))
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path),
            "--results", str(data / "eval_micro_results.json"), "--out", str(out),
        )
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize(
        "vertex, fault",
        [
            ({}, "expected a number, got dict"),
            ("5", "expected a number, got str"),
            (True, "expected a number, got bool"),
            (10**400, "integer too large for a float"),
        ],
        ids=["dict", "str", "bool", "10**400"],
    )
    def test_polygon_coordinate_that_is_not_a_number_exits_2(self, tmp_path, capsys, vertex, fault):
        def edit(segmentation):
            segmentation[0][0] = vertex

        code, err = self._eval_micro_with_polygon(tmp_path, capsys, edit)
        assert code == 2
        assert f"error: annotations[1].segmentation: polygon coordinate 0: {fault}" in err

    @pytest.mark.parametrize("huge", [{0: 1e308}, {0: -1e308}, {1: 1e308, 3: -1e308}])
    def test_polygon_crossing_beyond_float_range_exits_2(self, tmp_path, capsys, huge):
        def edit(segmentation):
            for k, value in huge.items():
                segmentation[0][k] = value

        code, err = self._eval_micro_with_polygon(tmp_path, capsys, edit)
        assert code == 2
        assert "error: annotations[1].segmentation: polygon edge " in err
        assert err.rstrip().endswith(": coordinates too large")

    @pytest.mark.parametrize(
        "segmentation, fault",
        [
            ([{}], "polygon: got dict"),
            ([MICRO_SQUARE, {}], "polygon: got dict"),
            (["x"], "polygon: got str"),
            ([None], "polygon: got NoneType"),
            ([[[60.0, 60.0], *MICRO_SQUARE[2:]]], "polygon vertex 1: got float"),
            ([[60.0, [60.0, 60.0], *MICRO_SQUARE[2:]]], "polygon coordinate 1: got a list of length 2"),
            ([[[1, 2], [3], [4, 5]]], "polygon vertex 1: got a list of length 1"),
        ],
        ids=["dict", "polygon-then-dict", "str", "null", "pair-first", "pair-inside", "ragged-pairs"],
    )
    def test_polygon_of_neither_shape_exits_2(self, tmp_path, capsys, segmentation, fault):
        def edit(original):
            assert original == [MICRO_SQUARE]
            original[:] = segmentation

        code, err = self._eval_micro_with_polygon(tmp_path, capsys, edit)
        assert code == 2
        assert err == (
            f"error: annotations[1].segmentation: {fault}, "
            "but a polygon is a flat list of numbers or a list of (x, y) pairs\n"
        )

    def test_result_without_mask_exits_2_under_mask_iou(self, tmp_path, capsys):
        gt_path, _ = write_scenario_files(tmp_path)
        g = build_ground_truth()[0]
        results = tmp_path / "results.json"
        write_results(
            results,
            [Detection(g.image_id, g.category_id, 0.9, g.bbox, g.mask),
             Detection(g.image_id, g.category_id, 0.8, g.bbox)],
        )
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(out)
        )
        assert code == 2
        assert "error: results[1] has no segmentation, which --iou-on mask needs" in err
        assert not out.exists()
        code, _, _ = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results),
            "--iou-on", "bbox", "--out", str(out),
        )
        assert code == 0

    def test_result_on_unknown_image_exits_2(self, tmp_path, capsys):
        gt_path, _ = write_scenario_files(tmp_path)
        gts = build_ground_truth()
        stray = max(g.image_id for g in gts) + 90
        results = tmp_path / "results.json"
        write_results(
            results,
            [Detection(g.image_id, g.category_id, 0.9, g.bbox, g.mask) for g in gts[:1]]
            + [Detection(stray, gts[0].category_id, 0.8, gts[0].bbox, gts[0].mask)],
        )
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", str(results), "--out", str(out)
        )
        assert code == 2
        assert "results[1]" in err and f"image {stray}" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "spoil, named",
        [
            (lambda d: d.update(images=[1]), "images[0]: expected an object, got int"),
            (
                lambda d: d["annotations"][1].update(iscrowd=1),
                "annotations[1].iscrowd: crowd regions are not supported, got 1",
            ),
            (
                lambda d: d["images"].insert(0, dict(d["images"][0], width=8, height=8)),
                "images[1].id: image 1 already appears at images[0]",
            ),
            (
                lambda d: d["images"].append({"id": 99, "width": -4, "height": 8}),
                f"images[{N_IMAGES}].width: expected a positive integer, got -4",
            ),
            (
                lambda d: d["categories"].append({"id": 1, "name": "again"}),
                "categories[1].id: category 1 already appears at categories[0]",
            ),
        ],
    )
    def test_malformed_dataset_exits_2(self, tmp_path, capsys, spoil, named):
        gt_path, model_paths = write_scenario_files(tmp_path)
        data = json.loads(gt_path.read_text())
        spoil(data)
        gt_path.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt_path), "--results", model_paths[0][0], "--out", str(out)
        )
        assert code == 2
        assert f"error: {named}" in err
        assert not out.exists()

    @pytest.mark.parametrize("max_dets", ["-1", "0"])
    def test_bad_max_dets_exits_2(self, tmp_path, capsys, max_dets):
        gt_path, model_paths = write_scenario_files(tmp_path)
        out = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys,
            "eval",
            "--gt", str(gt_path),
            "--results", model_paths[0][0],
            "--max-dets", max_dets,
            "--out", str(out),
        )
        assert code == 2
        assert "max_detections_per_image" in err
        assert not out.exists()


class TestStatsCommand:
    @staticmethod
    def _stats_dataset(tmp_path, sides):
        path = tmp_path / "boxes.json"
        data = {
            "images": [{"id": i + 1, "width": 2000, "height": 2000} for i in range(len(sides))],
            "annotations": [
                {
                    "id": i + 1,
                    "image_id": i + 1,
                    "category_id": 1,
                    "bbox": [0, 0, s, s],
                }
                for i, s in enumerate(sides)
            ],
            "categories": [{"id": 1, "name": "box"}],
        }
        path.write_text(json.dumps(data))
        return path

    def test_known_distribution(self, tmp_path, capsys):
        path = self._stats_dataset(tmp_path, [10, 250, 251])
        out = tmp_path / "hist.csv"
        code, stdout, _ = run_cli(
            capsys, "stats", "--gt", str(path), "--bin-width", "50", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert lines[1] == "0,50,1"
        assert lines[-1] == "250,300,2"
        assert "median_sqrt_area 250.000000" in stdout

    def test_no_sampling_when_n_large(self, tmp_path, capsys):
        path = self._stats_dataset(tmp_path, [100, 200, 300])
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli(capsys, "stats", "--gt", str(path), "--sample-n", "999", "--seed", "1", "--out", str(out_a))
        run_cli(capsys, "stats", "--gt", str(path), "--sample-n", "999", "--seed", "2", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_repeated_category_id_exits_2(self, tmp_path, capsys):
        path = self._stats_dataset(tmp_path, [100, 200])
        data = json.loads(path.read_text())
        data["categories"] = [{"id": 1}, {"id": 1}]
        path.write_text(json.dumps(data))
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(capsys, "stats", "--gt", str(path), "--out", str(out))
        assert code == 2
        assert "error: categories[1].id: category 1 already appears at categories[0]" in err
        assert not out.exists()

    @pytest.mark.parametrize("bbox", HUGE_BOXES)
    def test_box_too_large_exits_2(self, tmp_path, capsys, bbox):
        gt = _micro_with_box(tmp_path, "eval_micro_gt.json", "annotations", bbox)
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(capsys, "stats", "--gt", str(gt), "--out", str(out))
        assert code == 2
        assert f"error: annotations[0].bbox: coordinates too large in {bbox}" in err
        assert not out.exists()

    def test_reads_no_segmentation(self, tmp_path, capsys):
        """``stats`` reads boxes, not polygons, so a polygon ``eval``
        refuses still gives it its boxes (README, "Command line")."""
        data = Path(__file__).parent / "data"
        doc = json.loads((data / "eval_micro_gt.json").read_text())
        doc["annotations"][1]["segmentation"][0][0] = True
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(capsys, "stats", "--gt", str(gt), "--out", str(tmp_path / "h.csv"))
        assert code == 0
        assert "boxes 4 " in stdout
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(gt), "--results", str(data / "eval_micro_results.json"),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert err == (
            "error: annotations[1].segmentation: polygon coordinate 0: expected a number, got bool\n"
        )

    def test_seeded_sampling_reproducible(self, tmp_path, capsys):
        path = self._stats_dataset(tmp_path, list(range(10, 400, 13)))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli(capsys, "stats", "--gt", str(path), "--sample-n", "5", "--seed", "9", "--out", str(out_a))
        run_cli(capsys, "stats", "--gt", str(path), "--sample-n", "5", "--seed", "9", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sampling_keeps_image_ids_past_2_63(self, tmp_path, capsys):
        """Sampled ids are looked up by position, so ids no int64 holds still
        match their annotations."""
        path = self._stats_dataset(tmp_path, [10, 20, 30])
        data = json.loads(path.read_text())
        for image, ann, image_id in zip(data["images"], data["annotations"], [2**63 + 1, 2**63 + 3, 5]):
            image["id"] = ann["image_id"] = image_id
        path.write_text(json.dumps(data))
        out = tmp_path / "hist.csv"
        code, stdout, _ = run_cli(capsys, "stats", "--gt", str(path), "--sample-n", "2", "--out", str(out))
        assert code == 0
        assert f"boxes 2 -> {out}" in stdout


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--bin-width", "0"], "bin_width"),
            (["--bin-width", "nan"], "bin_width"),
            (["--sample-n", "-5"], "sample_n"),
            (["--sample-n", "2", "--seed", "-1"], "seed"),
            (["--bin-width", "1e-300"], "bin_width 1e-300 needs 3e+302 bins"),
            (["--bin-width", "1e-6"], "bin_width 1e-06 needs 3e+08 bins"),
            (["--threads", "-3"], "invalid option: threads must be non-negative, got -3"),
        ],
    )
    def test_bad_option_value_exits_2(self, tmp_path, capsys, flags, named):
        path = self._stats_dataset(tmp_path, [100, 200, 300])
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(capsys, "stats", "--gt", str(path), *flags, "--out", str(out))
        assert code == 2
        assert named in err
        assert not out.exists()

    def test_negative_sample_n_named_before_the_dataset_is_read(self, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(capsys, "stats", "--sample-n", "-5", "--out", str(out))
        assert code == 2
        assert err == "error: invalid option: sample_n must be non-negative, got -5\n"
        assert not out.exists()


class TestConfigPrecedence:
    def test_config_file_overrides_default_flag_overrides_config(self, tmp_path, capsys):
        gt_path, model_paths = write_scenario_files(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"theta_min": 0.5, "sigma": 0.9}))
        out = tmp_path / "fused.json"
        args = [
            "ensemble",
            "--config", str(cfg_path),
            "--theta-min", "0.7",
            "--out", str(out),
        ]
        for (path, _), s in zip(model_paths, [70.0, 71.0, 72.0]):
            args += ["--model", f"{path}:{s}"]
        code, stdout, _ = run_cli(capsys, *args)
        assert code == 0
        sidecar = json.loads((tmp_path / "fused.json.config.json").read_text())
        assert sidecar["options"]["theta_min"] == 0.7  # flag wins
        assert sidecar["options"]["sigma"] == 0.9      # config wins over default
        weights = [float(line.split()[-1]) for line in stdout.splitlines() if line.startswith("weight ")]
        assert weights[0] == 0.7

    @pytest.mark.parametrize(
        "command, key, value, fault",
        [
            ("ensemble", "mask_iou_nms", "false", 'expected a boolean, got "false"'),
            ("refine", "subdivision_k", 27.9, "expected an integer, got 27.9"),
            ("ensemble", "sigma", True, "expected a number, got true"),
            ("refine", "predictor", "idenity", '"idenity" is not one of oracle, identity'),
            ("ensemble", "strategy", "vote", '"vote" is not one of linear_interpolation, linear_reweight'),
            ("refine", "predictor", 1, "expected a string, got 1"),
            ("refine", "threads", "many", 'expected an integer, got "many"'),
            ("stats", "seed", "x", 'expected an integer, got "x"'),
            ("refine", "predictr", "identity", "not an option of any subcommand"),
            ("ensemble", "sigm", 0.9, "not an option of any subcommand"),
        ],
    )
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, command, key, value, fault):
        gt_path, model_paths = write_scenario_files(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "out.json"
        inputs = {
            "refine": ["--synthetic", "disk:2"],
            "ensemble": ["--model", f"{model_paths[0][0]}:70.0"],
            "stats": ["--gt", str(gt_path)],
        }[command]
        code, _, err = run_cli(
            capsys, command, *inputs, "--config", str(cfg_path), "--out", str(out)
        )
        assert code == 2
        assert f"error: config file {cfg_path}: {key}: {fault}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["refine", "ensemble", "eval", "stats"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, from_config):
        gt_path, model_paths = write_scenario_files(tmp_path)
        inputs = {
            "refine": ["--synthetic", "disk:1"],
            "ensemble": ["--model", f"{model_paths[0][0]}:70.0"],
            "eval": ["--gt", str(gt_path), "--results", model_paths[0][0]],
            "stats": ["--gt", str(gt_path)],
        }[command]
        if from_config:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"seed": -4}))
            inputs += ["--config", str(cfg_path)]
        else:
            inputs += ["--seed", "-4"]
        out = tmp_path / "out.json"
        code, _, err = run_cli(capsys, command, *inputs, "--out", str(out))
        assert code == 2
        assert "error: invalid option: seed must be non-negative, got -4" in err
        assert not out.exists()

    # ensemble and stats take the flag case in their bad-option lists
    @pytest.mark.parametrize("command", ["refine", "eval"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_threads_exits_2(self, tmp_path, capsys, command, from_config):
        gt_path, model_paths = write_scenario_files(tmp_path)
        inputs = {
            "refine": ["--synthetic", "disk:1"],
            "eval": ["--gt", str(gt_path), "--results", model_paths[0][0]],
        }[command]
        if from_config:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"threads": -3}))
            inputs += ["--config", str(cfg_path)]
        else:
            inputs += ["--threads", "-3"]
        out = tmp_path / "out.json"
        code, _, err = run_cli(capsys, command, *inputs, "--out", str(out))
        assert code == 2
        assert "error: invalid option: threads must be non-negative, got -3" in err
        assert not out.exists()

    def test_config_key_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"sigma": 0.9, "predictor": "identity"}))
        out = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys, "refine", "--synthetic", "disk:1", "--config", str(cfg_path), "--out", str(out)
        )
        assert code == 0
        options = json.loads((tmp_path / "out.json.config.json").read_text())["options"]
        assert options["predictor"] == "identity"
        assert "sigma" not in options

    def test_config_int_accepted_for_float_option(self, tmp_path, capsys):
        gt_path, model_paths = write_scenario_files(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"sigma": 1, "nms_method": "linear"}))
        out = tmp_path / "fused.json"
        code, _, _ = run_cli(
            capsys, "ensemble", "--model", f"{model_paths[0][0]}:70.0",
            "--config", str(cfg_path), "--out", str(out),
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "fused.json.config.json").read_text())
        assert sidecar["options"]["sigma"] == 1
        assert sidecar["options"]["nms_method"] == "linear"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2


_MICRO_GT = str(Path(__file__).parent / "data" / "eval_micro_gt.json")
_MICRO_RESULTS = str(Path(__file__).parent / "data" / "eval_micro_results.json")
# a run of each subcommand on valid inputs, without --out
_WRITING_RUNS = [
    ["refine", "--synthetic", "disk:1"],
    ["ensemble", "--model", f"{_MICRO_RESULTS}:1"],
    ["eval", "--gt", _MICRO_GT, "--results", _MICRO_RESULTS],
    ["stats", "--gt", _MICRO_GT],
]
# each input flag: a run that reads the file under test at {bad}, and valid
# files elsewhere
_INPUT_RUNS = {
    "eval-gt": ["eval", "--gt", "{bad}", "--results", _MICRO_RESULTS],
    "eval-results": ["eval", "--gt", _MICRO_GT, "--results", "{bad}"],
    "stats-gt": ["stats", "--gt", "{bad}"],
    "ensemble-model": ["ensemble", "--model", "{bad}:1"],
    "refine-coarse": ["refine", "--coarse", "{bad}", "--oracle", "{oracle}"],
    "refine-oracle": ["refine", "--coarse", "{coarse}", "--oracle", "{bad}"],
    "config": ["stats", "--gt", _MICRO_GT, "--config", "{bad}"],
}
# bytes no JSON reader accepts: not UTF-8, nested past the parser's depth
# limit, an integer past its digit limit
_BAD_JSON = {
    "not-utf8": b"\xff\xfe\x00garbage",
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "digits": b"[" + b"9" * 5000 + b"]",
}
_UNREADABLE_ROWS = [
    (flag, failure)
    for flag in _INPUT_RUNS
    for failure in ("missing", "directory", *(() if flag.startswith("refine") else _BAD_JSON))
]


class TestFileBoundary:
    """Each reader opens its file once and maps every failure of the open
    and the parse: an input that cannot be read, or an --out that cannot be
    written, exits 2 with one error line naming the path."""

    @pytest.mark.parametrize(
        "flag, failure", _UNREADABLE_ROWS, ids=[f"{f}-{why}" for f, why in _UNREADABLE_ROWS]
    )
    def test_unreadable_input_exits_2(self, tmp_path, capsys, flag, failure):
        coarse, oracle, bad = tmp_path / "coarse.npz", tmp_path / "oracle.npz", tmp_path / "bad"
        _archive_bytes(coarse)
        _archive_bytes(oracle)
        if failure == "directory":
            bad.mkdir()
        elif failure in _BAD_JSON:
            bad.write_bytes(_BAD_JSON[failure])
        out = tmp_path / "out.json"
        argv = [arg.format(bad=bad, coarse=coarse, oracle=oracle) for arg in _INPUT_RUNS[flag]]
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        reason = {
            "missing": "cannot read (No such file or directory)",
            "directory": "cannot read (Is a directory)",
        }.get(failure, "invalid JSON (")
        prefix = "config file " if flag == "config" else ""
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {prefix}{bad}: {reason}"), err
        assert not out.exists() and not Path(f"{out}.config.json").exists()

    @pytest.mark.parametrize("argv", _WRITING_RUNS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, argv, where):
        out = tmp_path / "out"
        if where == "directory":
            out.mkdir()
        else:
            out = out / "r.json"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(out) in err, err
        assert not Path(f"{out}.config.json").exists()

    @pytest.mark.parametrize(
        "argv, reader",
        [
            (["refine", "--coarse", _MICRO_GT, "--predictor", "identity"], "load_field_archive"),
            (["ensemble", "--model", f"{_MICRO_RESULTS}:1"], "_load_columns"),
            (["eval", "--gt", _MICRO_GT, "--results", _MICRO_RESULTS], "load_dataset"),
            (["stats", "--gt", _MICRO_GT], "load_dataset"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else v,
    )
    def test_unwritable_out_found_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch, argv, reader
    ):
        def read(*_):
            raise AssertionError("an input was read")  # exit 1, not 2

        monkeypatch.setattr(cli, reader, read)
        out = tmp_path / "missing" / "o.json"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: {out}: cannot write (No such file or directory)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["eval", "--gt", "{missing}/gt.json", "--results", "{missing}/r.json", "--max-dets", "0"],
                "invalid option: max_detections_per_image must be at least 1, got 0",
            ),
            (
                ["ensemble", "--model", "{missing}/m.json:1", "--sigma", "0"],
                "invalid option: sigma must be positive, got 0.0",
            ),
            (
                ["ensemble", "--model", "{missing}/a.json:1", "--model", "bad"],
                "--model expects PATH:SCORE, got 'bad'",
            ),
            (
                ["ensemble", "--model", "/nonexistent/m.json:nan"],
                "--model '/nonexistent/m.json:nan': validation_score must be finite",
            ),
        ],
        ids=["eval-max-dets", "ensemble-sigma", "ensemble-later-spec", "ensemble-nan-score"],
    )
    def test_bad_option_named_before_any_input_is_read(self, tmp_path, capsys, argv, message):
        missing = tmp_path / "missing"
        argv = [arg.format(missing=missing) for arg in argv]
        code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.json"))
        assert (code, stdout) == (2, "")
        assert err == f"error: {message}\n"

    def test_eval_out_that_is_its_own_report_exits_2(self, tmp_path, capsys, monkeypatch):
        """``eval``'s text report is ``--out`` with the suffix ``.txt``, so
        an ``--out`` ending in ``.txt`` would be overwritten by it: refused
        before any input is read."""

        def read(*_):
            raise AssertionError("an input was read")  # exit 1, not 2

        monkeypatch.setattr(cli, "load_dataset", read)
        out = tmp_path / "r.txt"
        code, stdout, err = run_cli(capsys, *_WRITING_RUNS[2], "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: {out}: --out is also the .txt report; give it another suffix\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_check_leaves_files_as_they_were(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        out.write_text("kept")
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(tmp_path / "missing.json"), "--results", _MICRO_RESULTS,
            "--out", str(out),
        )
        assert code == 2 and "missing.json: cannot read" in err
        assert [p.name for p in tmp_path.iterdir()] == ["o.json"] and out.read_text() == "kept"

    @pytest.mark.parametrize(
        "argv, blocked",
        [(argv, "o.json.config.json") for argv in _WRITING_RUNS] + [(_WRITING_RUNS[2], "o.txt")],
        ids=[f"{argv[0]}-sidecar" for argv in _WRITING_RUNS] + ["eval-report"],
    )
    def test_unwritable_later_output_leaves_no_file(self, tmp_path, capsys, argv, blocked):
        """Every output path is checked before the work: one that cannot
        be written leaves no other output behind and no summary printed."""
        (tmp_path / blocked).mkdir()
        code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.json"))
        assert (code, stdout) == (2, "")
        assert err == f"error: {tmp_path / blocked}: cannot write (Is a directory)\n"
        assert [p.name for p in tmp_path.iterdir()] == [blocked]



# what each run of _WRITING_RUNS records as the sidecar's ``inputs``, and the
# summary it prints for the --out path ``{out}`` (None: eval's text report,
# which it also writes to <out>.txt)
_RUN_RECORDS = {
    "refine": (
        {"coarse": None, "oracle": None, "synthetic": "disk:1"},
        "mean_iou 1.000000\nrendered 1 instances -> {out}\n",
    ),
    "ensemble": (
        {"models": [f"{_MICRO_RESULTS}:1"]},
        f"weight {_MICRO_RESULTS} 1.000000\nfused 6 detections -> {{out}}\n",
    ),
    "eval": ({"gt": _MICRO_GT, "results": _MICRO_RESULTS}, None),
    "stats": ({"gt": _MICRO_GT}, "median_sqrt_area 40.000000\nboxes 4 -> {out}\n"),
}


class TestRunProtocol:
    """``main`` resolves the options, runs the subcommand, writes the
    sidecar and only then prints the summary, the same for all four."""

    @pytest.mark.parametrize("argv", _WRITING_RUNS, ids=lambda argv: argv[0])
    def test_sidecar_records_command_inputs_and_options(self, tmp_path, capsys, argv):
        command = argv[0]
        inputs, summary = _RUN_RECORDS[command]
        out = tmp_path / "o.json"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, err) == (0, "")
        sidecar = json.loads(Path(f"{out}.config.json").read_text())
        assert sorted(sidecar) == ["command", "inputs", "options"]
        assert sidecar["command"] == command
        assert sidecar["inputs"] == inputs
        assert sidecar["options"].keys() == cli._OPTIONS[command].keys()
        if summary is None:
            summary = out.with_suffix(".txt").read_text()
            assert summary.startswith("mAP    0.550990\n")
        assert stdout == summary.format(out=out)

    @pytest.mark.parametrize("argv", _WRITING_RUNS, ids=lambda argv: argv[0])
    def test_failed_sidecar_write_prints_no_summary(self, tmp_path, capsys, monkeypatch, argv):
        """A sidecar write that fails after the up-front writability check
        exits 2 with nothing on stdout."""
        write_text = Path.write_text

        def failing(path, *args, **kwargs):
            if path.name.endswith(".config.json"):
                raise OSError(28, "No space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "o.json"))
        assert (code, stdout) == (2, "")
        assert err == "error: [Errno 28] No space left on device\n"

    def test_internal_error_exits_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        """An exception that is not an input or output error exits 1 with
        one ``internal error`` line, no summary and no output files."""

        def failing(args, opts):
            raise RuntimeError("handler failed")

        monkeypatch.setattr(cli, "cmd_stats", failing)
        out = tmp_path / "o.csv"
        code, stdout, err = run_cli(capsys, "stats", "--gt", _MICRO_GT, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "internal error: RuntimeError: handler failed\n"
        assert sorted(tmp_path.iterdir()) == []


def _write_archive(path, ids, logits=None):
    """A field archive of 7x7 instances ``ids`` whose arrays are those of
    ``logits`` (default: all of ``ids``); without a manifest if ids is None."""
    logits = ids if logits is None else logits
    arrays = {f"logits:{i}": np.ones((7, 7)) for i in logits or ()}
    if ids is not None:
        meta = {"instances": [{"id": i, "image_id": 1, "category_id": 1, "score": 0.9} for i in ids]}
        arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    return str(path)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# each refusal: a run given a scratch directory, and the one message it
# exits 2 with
_REFUSALS = {
    "config-not-object": lambda d: (
        ["stats", "--gt", _MICRO_GT, "--config", _write(d / "c.json", [1])],
        f"config file {d / 'c.json'}: expected a JSON object",
    ),
    "refine-no-coarse": lambda d: (["refine"], "missing --coarse input (or use --synthetic)"),
    "stats-no-gt": lambda d: (["stats"], "missing --gt dataset file"),
    "oracle-lacks-instance": lambda d: (
        ["refine", "--coarse", _write_archive(d / "c.npz", ["a"]),
         "--oracle", _write_archive(d / "o.npz", ["b"])],
        "oracle archive has no instance a",
    ),
    "model-score-not-number": lambda d: (
        ["ensemble", "--model", f"{_MICRO_RESULTS}:abc"],
        f"--model '{_MICRO_RESULTS}:abc': score 'abc' is not a number",
    ),
    "ensemble-no-model": lambda d: (["ensemble"], "at least one --model PATH:SCORE is required"),
    "stats-no-boxes": lambda d: (
        ["stats", "--gt", _write(d / "g.json", {
            "images": [{"id": 1, "width": 8, "height": 8}],
            "annotations": [{"image_id": 1, "category_id": 1, "segmentation": [[0, 0, 4, 0, 4, 4]]}],
            "categories": [{"id": 1}],
        })],
        "no boxes found in the selected images",
    ),
    "dataset-not-object": lambda d: (
        ["stats", "--gt", _write(d / "g.json", [])], f"{d / 'g.json'}: top level must be an object"
    ),
    "results-not-array": lambda d: (
        ["eval", "--gt", _MICRO_GT, "--results", _write(d / "r.json", {})],
        f"{d / 'r.json'}: results file must be a JSON array",
    ),
    "archive-no-manifest": lambda d: (
        ["refine", "--coarse", _write_archive(d / "c.npz", None, ["a"]), "--predictor", "identity"],
        f"{d / 'c.npz'}: not a field archive (no manifest)",
    ),
    "archive-missing-logits": lambda d: (
        ["refine", "--coarse", _write_archive(d / "c.npz", ["a", "z"], ["a"]), "--predictor", "identity"],
        f"{d / 'c.npz'}: missing logits for instance z",
    ),
}


class TestRefusals:
    """Refusals that no other test reaches: each exits 2 with exactly its
    one error line, prints no summary and writes no output."""

    @pytest.mark.parametrize("case", _REFUSALS)
    def test_refusal_exits_2_with_its_message(self, tmp_path, capsys, case):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        argv, message = _REFUSALS[case](inputs)
        out = tmp_path / "out" / "o.json"
        out.parent.mkdir()
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: {message}\n"
        assert list(out.parent.iterdir()) == []


# ---------------------------------------------------------------------------
# Metamorphic relations: a change to the input that must not matter does not
# ---------------------------------------------------------------------------

_SIDES = {1: (6, 6), 2: (5, 7), 3: (7, 4)}  # image id -> (width, height)

# a few repeated values, so that many scores tie, and floats in [0, 1] above
# the subnormal range, where halving a score is exact
_SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(2.0**-1021, 1.0))

_FUSE_FLAGS = [
    [], ["--mask-iou-nms"], ["--merge-masks"], ["--mask-iou-nms", "--merge-masks"],
    ["--nms-method", "hard"], ["--class-agnostic"], ["--strategy", "linear_reweight"],
]


@st.composite
def _result_records(draw, images=(1, 2), min_size=0, speckle=False):
    """Results records on ``images``: rectangle masks, so that many overlap,
    each with its tight box, that box trimmed by half a pixel, or no box.
    With ``speckle``, up to three pixels of each mask are flipped."""
    records = []
    for _ in range(draw(st.integers(min_size, 6))):
        image_id = draw(st.sampled_from(images))
        w, h = _SIDES[image_id]
        x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
        x1, y1 = draw(st.integers(x0 + 1, w)), draw(st.integers(y0 + 1, h))
        bits = np.zeros((h, w), dtype=bool)
        bits[y0:y1, x0:x1] = True
        if speckle:
            pixel = st.tuples(st.integers(0, h - 1), st.integers(0, w - 1))
            for y, x in draw(st.lists(pixel, max_size=3)):
                bits[y, x] = not bits[y, x]
        rec = {
            "image_id": image_id,
            "category_id": draw(st.integers(1, 2)),
            "score": draw(_SCORES),
            "segmentation": {"size": [h, w], "counts": rle_string_encode(rle_encode(bits))},
        }
        box = draw(st.sampled_from(["tight", "trimmed", None]))
        if box:
            rec["bbox"] = [x0, y0, x1 - x0 - (box == "trimmed") / 2, y1 - y0]
        records.append(rec)
    return records


def _run_main(*argv):
    """``(exit code, stdout)`` of ``cli.main`` run in process; stderr is
    dropped (``ensemble`` warns there when model files differ in images)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


def _eval_report(tmp, truth, results, *flags, sides=_SIDES):
    """Run ``eval`` on ``truth`` (records whose scores are dropped) over
    images of ``sides``, and ``results``; the JSON and text reports."""
    gt, path = tmp / "gt.json", tmp / "results.json"
    gt.write_text(json.dumps({
        "images": [{"id": i, "width": w, "height": h} for i, (w, h) in sides.items()],
        "annotations": [
            {k: v for k, v in dict(rec, id=j).items() if k != "score"}
            for j, rec in enumerate(truth)
        ],
        "categories": [{"id": 1}, {"id": 2}],
    }))
    path.write_text(json.dumps(results))
    code, _ = _run_main("eval", "--gt", gt, "--results", path, *flags, "--out", tmp / "report.json")
    assert code == 0
    return (tmp / "report.json").read_bytes(), (tmp / "report.txt").read_bytes()


def _turned(records, transpose):
    """``records`` with every mask mirrored left to right, or transposed
    (its image's sides swapped), and its box to match."""
    turned = []
    for rec in records:
        h, w = rec["segmentation"]["size"]
        bits = rle_decode(rle_string_decode(rec["segmentation"]["counts"], w, h))
        bits = bits.T if transpose else bits[:, ::-1]
        counts = rle_string_encode(rle_encode(bits))
        rec = dict(rec, segmentation={"size": list(bits.shape), "counts": counts})
        if "bbox" in rec:
            x, y, bw, bh = rec["bbox"]
            rec["bbox"] = [y, x, bh, bw] if transpose else [w - x - bw, y, bw, bh]
        turned.append(rec)
    return turned


def _fuse(tmp, models, scores, flags):
    """Run ``ensemble`` on one results file per model; the fused bytes and
    the summary."""
    argv = ["ensemble", *flags, "--out", tmp / "fused.json"]
    for k, (records, score) in enumerate(zip(models, scores)):
        path = tmp / f"model{k}.json"
        path.write_text(json.dumps(records))
        argv += ["--model", f"{path}:{score}"]
    code, summary = _run_main(*argv)
    assert code == 0
    return (tmp / "fused.json").read_bytes(), summary


class TestMetamorphicRelations:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_ensemble_model_order_changes_only_the_weight_lines(self, data):
        models = data.draw(st.lists(_result_records(), min_size=2, max_size=3))
        scores = data.draw(st.lists(st.sampled_from([70.0, 71.0, 72.5]), min_size=3, max_size=3))
        flags = data.draw(st.sampled_from(_FUSE_FLAGS))
        order = data.draw(st.permutations(range(len(models))))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            fused, summary = _fuse(tmp, models, scores, flags)
            # the same files, listed in another order
            argv = ["ensemble", *flags, "--out", tmp / "fused.json"]
            argv += [arg for k in order for arg in ("--model", f"{tmp / f'model{k}.json'}:{scores[k]}")]
            code, permuted_summary = _run_main(*argv)
            assert code == 0
            assert (tmp / "fused.json").read_bytes() == fused
        lines, permuted = summary.splitlines(), permuted_summary.splitlines()
        assert permuted[:-1] == [lines[k] for k in order]
        assert permuted[-1] == lines[-1]

    @settings(max_examples=30, deadline=None)
    @given(
        _result_records(),
        _result_records(),
        st.sampled_from([[], ["--iou-on", "bbox"], ["--max-dets", "2"]]),
    )
    def test_eval_report_is_unchanged_when_every_score_is_halved(self, truth, results, flags):
        # AP depends only on the rank order of the scores; halving is exact
        # above the subnormal range, so it makes and breaks no tie
        with tempfile.TemporaryDirectory() as tmp:
            reports = []
            for halve in (False, True):
                halved = [dict(rec, score=rec["score"] / (1 + halve)) for rec in results]
                reports.append(_eval_report(Path(tmp), truth, halved, *flags))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("transpose", [False, True], ids=["mirror", "transpose"])
    @settings(max_examples=30, deadline=None)
    @given(_result_records(speckle=True), _result_records(speckle=True))
    def test_eval_mask_report_is_unchanged_when_every_mask_is_turned(self, transpose, truth, results):
        # mask IoU is a ratio of pixel counts, which neither a mirror nor a
        # transpose changes; RLE ground truth, as a polygon's rasterization
        # need not be mirror-symmetric
        sides = {i: (h, w) for i, (w, h) in _SIDES.items()} if transpose else _SIDES
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            report = _eval_report(tmp, truth, results)
            turned = _eval_report(tmp, _turned(truth, transpose), _turned(results, transpose), sides=sides)
        assert turned == report

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_ensemble_detection_on_another_image_leaves_this_image_alone(self, data):
        models = data.draw(st.lists(_result_records(), min_size=1, max_size=3))
        scores = data.draw(st.lists(st.sampled_from([70.0, 71.0, 72.5]), min_size=3, max_size=3))
        flags = data.draw(st.sampled_from(_FUSE_FLAGS))
        extra = data.draw(_result_records(images=(1, 2, 3), min_size=1))[0]
        k = data.draw(st.integers(0, len(models) - 1))
        position = data.draw(st.integers(0, len(models[k])))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            fused, _ = _fuse(tmp, models, scores, flags)
            models[k].insert(position, extra)
            grown, _ = _fuse(tmp, models, scores, flags)
        elsewhere = [
            [rec for rec in json.loads(out) if rec["image_id"] != extra["image_id"]]
            for out in (fused, grown)
        ]
        assert elsewhere[0] == elsewhere[1]


class TestOnePath:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_ensemble_command_writes_what_the_library_path_writes(self, data):
        """``ensemble`` fuses columns and copies the strings it read; the
        library path, ``write_results(ensemble(...))`` over ``load_results``,
        re-encodes every mask. Both write the same bytes: with score ties
        across models, one file given twice, ids past 2**63, records
        without a box, empty files, padded strings and every method."""
        models = data.draw(st.lists(_result_records(), min_size=1, max_size=3))
        big = data.draw(st.booleans())  # image 2 becomes an id past 2**63
        for records in models:
            for rec in records:
                if big and rec["image_id"] == 2:
                    rec["image_id"] = 2**64 + 2
                if data.draw(st.integers(0, 4)) == 0:  # a string the encoder would not write
                    counts = rec["segmentation"]["counts"]
                    rec["segmentation"]["counts"] = pad_value(counts, data.draw(st.integers(0, 99)))
        scores = data.draw(st.lists(st.sampled_from([70.0, 71.0]), min_size=3, max_size=3))
        method = data.draw(st.sampled_from(SoftNmsConfig.METHODS))
        masks = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            specs = []
            for k, records in enumerate(models):
                (tmp / f"model{k}.json").write_text(json.dumps(records))
                specs.append((str(tmp / f"model{k}.json"), scores[k]))
            if data.draw(st.booleans()):
                specs.append(specs[0])
            flags = ["--mask-iou-nms", "--merge-masks"] if masks else []
            argv = ["ensemble", "--nms-method", method, *flags, "--out", tmp / "cli.json"]
            for path, score in specs:
                argv += ["--model", f"{path}:{score}"]
            assert _run_main(*argv)[0] == 0
            cfg = EnsembleConfig(nms=SoftNmsConfig(method=method, use_mask_iou=masks), merge_masks=masks)
            candidates = [ModelCandidate(path, score, load_results(path)) for path, score in specs]
            write_results(tmp / "library.json", ensemble(candidates, cfg))
            assert (tmp / "cli.json").read_bytes() == (tmp / "library.json").read_bytes()

    @pytest.mark.parametrize("iou_on", EvalConfig.IOU_ON)
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_eval_command_reports_what_the_library_path_reports(self, iou_on, data):
        """``eval`` scores the column table it reads; the library path,
        ``evaluate`` over ``load_results``, scores detections. Both give the
        same report: with tied scores, records without a box and image ids
        past 2**63."""
        truth, results = data.draw(_result_records()), data.draw(_result_records(min_size=1))
        big = data.draw(st.booleans())  # image 2 becomes an id past 2**63
        sides = {2**64 + 2 if big and i == 2 else i: side for i, side in _SIDES.items()}
        for rec in truth + results:
            if big and rec["image_id"] == 2:
                rec["image_id"] = 2**64 + 2
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            report = _eval_report(tmp, truth, results, "--iou-on", iou_on, sides=sides)
            gts = dataset_ground_truth(load_dataset(tmp / "gt.json"))
            want = evaluate(gts, load_results(tmp / "results.json"), EvalConfig(iou_on=iou_on))
        assert report == (want.to_json().encode(), want.to_text().encode())

    def test_eval_builds_no_detection_and_scores_no_wire_string(self, tmp_path, capsys, monkeypatch):
        """The micro results file's masks are read from canonical strings,
        which ``ensemble`` keeps; ``eval`` keeps none and builds no
        ``Detection``."""
        def built(self):
            raise AssertionError("a Detection was built")  # exit 1, not 0

        scored = []

        def scoring(gts, cols, cfg):
            scored.append(cols)
            return evaluate(gts, cols, cfg)

        monkeypatch.setattr(Detection, "__post_init__", built)
        monkeypatch.setattr(cli, "evaluate", scoring)
        code, stdout, _ = run_cli(
            capsys, "eval", "--gt", _MICRO_GT, "--results", _MICRO_RESULTS, "--out", str(tmp_path / "r.json")
        )
        assert (code, stdout.splitlines()[0]) == (0, "mAP    0.550990")
        assert all(cli._load_columns(_MICRO_RESULTS).wire)
        (cols,) = scored
        assert len(cols) == 6 and cols.wire == [None] * 6
