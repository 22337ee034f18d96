import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from maskpost import (
    BBox,
    Detection,
    FieldInstance,
    ScoreField,
    binarize,
    load_results,
    plain_upsample,
    rle_decode,
    rle_encode,
    rle_string_encode,
    write_field_archive,
    write_results,
)
from maskpost import cli
from maskpost.cli import build_parser, main
from oracles import rle_counts_to_string
from scenario import N_IMAGES, build_ground_truth, build_models


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
_THREADS = ("--threads", "threads", "int", None, "_StoreAction", "worker threads (0 = all cores, default)")
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

        for name in ("shape_field", "subdivision_render"):
            monkeypatch.setattr(cli, name, traced(name, getattr(cli, name)))
        out = tmp_path / "rendered.json"
        code, _, _ = run_cli(
            capsys, "refine", "--synthetic", "disk:2,rect:1", "--target-side", "56",
            "--threads", "1", "--out", str(out),
        )
        assert code == 0
        assert events == ["shape_field", "subdivision_render"] * 3

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
        ],
        ids=["empty", "text", "npy", "truncated", "manifest"],
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

    @pytest.mark.parametrize("bbox", HUGE_BOXES)
    def test_box_too_large_exits_2(self, tmp_path, capsys, bbox):
        results = _micro_with_box(tmp_path, "eval_micro_results.json", None, bbox)
        out = tmp_path / "fused.json"
        code, _, err = run_cli(capsys, "ensemble", "--model", f"{results}:0.5", "--out", str(out))
        assert code == 2
        assert f"error: results[0].bbox: coordinates too large in {bbox}" in err
        assert not out.exists()

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
        assert "different image id" in err

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
        assert not out.exists()


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
        assert not (tmp_path / "r.json").exists()


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

    def test_seeded_sampling_reproducible(self, tmp_path, capsys):
        path = self._stats_dataset(tmp_path, list(range(10, 400, 13)))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli(capsys, "stats", "--gt", str(path), "--sample-n", "5", "--seed", "9", "--out", str(out_a))
        run_cli(capsys, "stats", "--gt", str(path), "--sample-n", "5", "--seed", "9", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()


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
