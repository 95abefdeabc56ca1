from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import detection_line, read_table_csv, traced_peak
from obbkit.cli import main
from obbkit.formats import FrameMeta, iter_detections, read_label_file, write_table
from obbkit import pipeline
from obbkit.geometry import obb_orientation_deg, quad_from_rect
from obbkit.tightness import (
    TR_BIN_FIELDS,
    TR_GAP_FIELDS,
    TRSample,
    bin_by_orientation,
    bin_rows,
    compare_gt_pred_tr,
    tightness_ratio,
    tr_rect_closed_form,
)


def write_meta(path: Path, width=100.0, height=100.0, fps=2.0, frames=4) -> Path:
    path.write_text(
        json.dumps({"video_id": "v", "width": width, "height": height, "fps": fps, "frame_count": frames})
    )
    return path


def label_line(cls, quad, w=100.0, h=100.0) -> str:
    vals = (np.asarray(quad, float) / (w, h)).reshape(-1)
    return f"{cls} " + " ".join(format(v, '.9g') for v in vals)


def make_eval_tree(tmp_path: Path):
    """Two-GT / three-prediction fixture reproducing the AP hand example."""
    split = tmp_path / "data" / "test"
    (split / "images").mkdir(parents=True)
    (split / "labels").mkdir(parents=True)
    g1 = quad_from_rect(20, 20, 10, 6, 0)
    g2 = quad_from_rect(60, 60, 10, 6, 40)
    far = quad_from_rect(40, 80, 10, 6, 90)
    for stem, quad in (("f0", g1), ("f1", g2)):
        (split / "images" / f"{stem}.jpg").write_bytes(b"")
        (split / "labels" / f"{stem}.txt").write_text(label_line(0, quad) + "\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "\n".join(
            [
                detection_line("f0", 0, 0, g1, 0.9),
                detection_line("f0", 0, 0, far, 0.8),
                detection_line("f1", 0, 0, g2, 0.7),
            ]
        )
        + "\n"
    )
    return split, preds


@pytest.fixture
def toy_analyze(tmp_path):
    dets = tmp_path / "dets.jsonl"
    lines = [
        detection_line("v", 1, 0, quad_from_rect(50, 50, 20, 10, 0), 0.9),  # area 200 -> c=0.02
        detection_line("v", 2, 0, quad_from_rect(50, 50, 20, 20, 0), 0.9),  # area 400 -> c=0.04
    ]
    dets.write_text("\n".join(lines) + "\n")
    meta = write_meta(tmp_path / "meta.json")
    out = tmp_path / "out"
    return dets, meta, out


class TestAnalyze:
    def test_toy_fixture_metrics(self, toy_analyze, capsys):
        dets, meta, out = toy_analyze
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out)])
        assert code == 0
        _, rows = read_table_csv(out / "brand_metrics.csv")
        assert len(rows) == 1
        row = rows[0]
        assert float(row["exposure_s"]) == 1.0
        assert float(row["avg_cov_present_pct"]) == 3.0
        assert float(row["avg_cov_overall_pct"]) == 1.5
        assert float(row["max_cov_pct"]) == 4.0
        assert int(row["detection_count"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["records_total"] == 2
        assert report["counts"]["records_accepted"] == 2

    def test_flag_overrides_replace_meta(self, toy_analyze):
        dets, _, out = toy_analyze
        code = main(
            [
                "analyze",
                "--detections",
                str(dets),
                "--width",
                "100",
                "--height",
                "100",
                "--fps",
                "2",
                "--frames",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, rows = read_table_csv(out / "brand_metrics.csv")
        assert float(rows[0]["exposure_s"]) == 1.0

    def test_empty_detections_warns(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text("")
        meta = write_meta(tmp_path / "meta.json")
        out = tmp_path / "out"
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert any("empty detections" in w for w in report["warnings"])
        assert (out / "brand_metrics.csv").read_text().count("\n") == 1  # header only

    def test_unknown_class_strict_exits_2(self, tmp_path):
        dets = tmp_path / "dets.jsonl"
        dets.write_text(detection_line("v", 0, "mystery", quad_from_rect(50, 50, 10, 10, 0), 0.9) + "\n")
        classes = tmp_path / "classes.txt"
        classes.write_text("acme\n")
        meta = write_meta(tmp_path / "meta.json")
        out = tmp_path / "out"
        args = [
            "analyze", "--detections", str(dets), "--meta", str(meta),
            "--classes", str(classes), "--out", str(out),
        ]
        assert main(args + ["--strict"]) == 2
        assert main(args) == 0

    def test_config_echo(self, toy_analyze):
        dets, meta, out = toy_analyze
        classes = dets.parent / "classes.txt"
        classes.write_text("acme\n")
        argv = ["analyze", "--detections", str(dets), "--classes", str(classes), "--meta", str(meta), "--jobs", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        assert json.loads((out / "run_report.json").read_text())["config"] == {
            "classes": str(classes), "conf_threshold": 0.5, "detections": str(dets), "format": "csv", "fps": None,
            "frames": None, "height": None, "jobs": 2, "max_gap": 0, "meta": str(meta), "min_run": 1, "out": str(out),
            "strict": False, "top_k": 5, "width": None,
        }  # fmt: skip

    def test_accounting_invariant(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        lines = [
            detection_line("v", 0, 0, quad_from_rect(50, 50, 10, 10, 0), 0.9),
            '{"broken json',
            detection_line("v", 1, 0, quad_from_rect(50, 50, 10, 10, 0), 0.2),  # below threshold
            detection_line("v", 2, 0, [[0, 0], [1, 1], [1, 0], [0, 1]], 0.9),  # bow-tie
        ]
        dets.write_text("\n".join(lines) + "\n")
        meta = write_meta(tmp_path / "meta.json")
        out = tmp_path / "out"
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out)])
        assert code == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["records_total"] == 4
        assert counts["records_accepted"] + counts["records_skipped"] == counts["records_total"]
        assert counts["records_skipped"] == 2
        assert counts["records_below_confidence"] == 1
        assert counts["records_used"] == 1

    def test_missing_dimensions_exit_1(self, tmp_path):
        dets = tmp_path / "dets.jsonl"
        dets.write_text("")
        assert main(["analyze", "--detections", str(dets), "--out", str(tmp_path / "o")]) == 1

    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["analyze"]) == 1

    def test_jobs_do_not_change_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        dets = tmp_path / "dets.jsonl"
        with open(dets, "w") as fh:
            for i in range(3000):
                quad = quad_from_rect(
                    float(rng.uniform(-10, 110)), float(rng.uniform(-10, 110)),
                    float(rng.uniform(4, 30)), float(rng.uniform(3, 20)), float(rng.uniform(0, 180)),
                )
                fh.write(detection_line("v", i % 100, int(rng.integers(0, 6)), quad, float(rng.uniform(0.3, 1))) + "\n")
        meta = write_meta(tmp_path / "meta.json", frames=100, fps=25.0)
        outs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"out{jobs}"
            code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out), "--jobs", jobs])
            assert code == 0
            outs.append(out)
        for name in ("brand_metrics.csv", "timeline.csv", "ranking.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_worker_count_is_clamped_to_the_cpu_count(self, toy_analyze, monkeypatch, capsys):
        import concurrent.futures

        started = []

        class InlinePool:  # records the worker count and runs each task at once, in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        dets, meta, out = toy_analyze
        cpus = pipeline.default_jobs()
        argv = ["analyze", "--detections", str(dets), "--meta", str(meta), "--jobs", str(cpus + 1)]
        assert main([*argv, "--out", str(out)]) == 0
        assert started == ([cpus] if cpus > 1 else [])
        assert json.loads(capsys.readouterr().out)["counts"]["records_used"] == 2

    def test_strict_error_propagates_from_workers(self, tmp_path):
        dets = tmp_path / "dets.jsonl"
        lines = [detection_line("v", i % 4, 0, quad_from_rect(50, 50, 10, 10, 0), 0.9) for i in range(50)]
        lines[37] = '{"oops'
        dets.write_text("\n".join(lines) + "\n")
        meta = write_meta(tmp_path / "meta.json")
        out = tmp_path / "out"
        code = main(
            ["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out), "--strict", "--jobs", "3"]
        )
        assert code == 2

    def test_temporal_filter_flags(self, tmp_path):
        dets = tmp_path / "dets.jsonl"
        quad = quad_from_rect(50, 50, 20, 10, 0)
        # visible frames 0 and 2; max-gap 1 bridges frame 1
        dets.write_text(
            detection_line("v", 0, 0, quad, 0.9) + "\n" + detection_line("v", 2, 0, quad, 0.9) + "\n"
        )
        meta = write_meta(tmp_path / "meta.json", frames=4)
        out = tmp_path / "out"
        code = main(
            ["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out), "--max-gap", "1"]
        )
        assert code == 0
        _, rows = read_table_csv(out / "brand_metrics.csv")
        assert int(rows[0]["frames_visible"]) == 3
        _, tl_rows = read_table_csv(out / "timeline.csv")
        bridged = [r for r in tl_rows if r["frame_index"] == "1"]
        assert bridged and float(bridged[0]["coverage"]) == 0.0  # presence only
        # the ranking's exposure agrees with the filtered brand metrics
        _, rank_rows = read_table_csv(out / "ranking.csv")
        assert float(rank_rows[0]["exposure_s"]) == float(rows[0]["exposure_s"])

    PARSED_FLAGS = [  # argparse rejects each, before any file is read
        ["--top-k", "0"], ["--conf-threshold", "1.5"], ["--jobs", "0"], ["--jobs", "-3"], ["--conf-threshold", "nan"],
        ["--conf-threshold", "-0.1"], ["--min-run", "0"], ["--max-gap", "-1"],
    ]  # fmt: skip
    FRAME_FLAGS = [["--fps", "nan"], ["--fps", "inf"], ["--fps", "1e-320"]]  # FrameMeta rejects each, with --meta

    @pytest.mark.parametrize(
        "stream, flag",
        [
            *itertools.product(["", "toy", "undecodable-classes", "meta-array"], PARSED_FLAGS),
            *itertools.product(["", "toy", "undecodable-classes"], FRAME_FLAGS),
        ],
        ids=lambda value: "=".join(value) if isinstance(value, list) else value or "empty",
    )
    def test_invalid_config_exit_1_before_reading(self, toy_analyze, flag, stream, capsys):
        dets, meta, out = toy_analyze
        extra = []
        if not stream:
            dets.write_text("")
        elif stream == "undecodable-classes":
            (dets.parent / "classes.txt").write_bytes(b"logo\n\xff\n")
            extra = ["--classes", str(dets.parent / "classes.txt")]
        elif stream == "meta-array":
            meta.write_text("[100, 100]")
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out), *extra, *flag])
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        if flag in self.PARSED_FLAGS:
            assert f"error: argument {flag[0]}: " in captured.err and flag[1] in captured.err

    def test_strict_reports_first_fault_in_line_order(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        lines = [
            detection_line("v", 0, 0, quad_from_rect(50, 50, 10, 10, 0), 0.9),
            detection_line("v", 1, 0, [[0, 0], [1, 1], [1, 0], [0, 1]], 0.9),  # bow-tie
            '{"broken json',
        ]
        dets.write_text("\n".join(lines) + "\n")
        meta = write_meta(tmp_path / "meta.json")
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(tmp_path / "o"), "--strict"])
        assert code == 2
        assert "error: line 2: degenerate quad" in capsys.readouterr().err

    def test_json_format(self, toy_analyze):
        dets, meta, out = toy_analyze
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads((out / "brand_metrics.json").read_text())
        assert payload[0]["exposure_s"] == 1.0


class TestEvaluate:
    def test_ap_fixture_report(self, tmp_path):
        split, preds = make_eval_tree(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "evaluate", "--labels", str(split), "--detections", str(preds),
                "--width", "100", "--height", "100", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "eval.json").read_text())
        assert payload["map50"] == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert payload["per_class_ap"]["0"] == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_perfect_predictions(self, tmp_path):
        split, _ = make_eval_tree(tmp_path)
        preds = tmp_path / "perfect.jsonl"
        g1 = quad_from_rect(20, 20, 10, 6, 0)
        g2 = quad_from_rect(60, 60, 10, 6, 40)
        preds.write_text(
            detection_line("f0", 0, 0, g1, 1.0) + "\n" + detection_line("f1", 0, 0, g2, 1.0) + "\n"
        )
        out = tmp_path / "out"
        code = main(
            [
                "evaluate", "--labels", str(split), "--detections", str(preds),
                "--width", "100", "--height", "100", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "eval.json").read_text())
        assert payload["map50"] == 1.0
        assert payload["precision"] == 1.0 and payload["recall"] == 1.0

    def test_hbb_mode_axis_aligned_identical(self, tmp_path):
        split = tmp_path / "data" / "test"
        (split / "images").mkdir(parents=True)
        (split / "labels").mkdir(parents=True)
        rng = np.random.default_rng(6)
        pred_lines = []
        for f in range(3):
            stem = f"f{f}"
            (split / "images" / f"{stem}.jpg").write_bytes(b"")
            lines = []
            for _ in range(3):
                quad = quad_from_rect(
                    float(rng.uniform(20, 80)), float(rng.uniform(20, 80)),
                    float(rng.uniform(6, 16)), float(rng.uniform(4, 12)), 0.0,
                )
                lines.append(label_line(0, quad))
                pred_lines.append(detection_line(stem, 0, 0, quad + rng.uniform(-1.5, 1.5, 2), float(rng.uniform(0.3, 1))))
            (split / "labels" / f"{stem}.txt").write_text("\n".join(lines) + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("\n".join(pred_lines) + "\n")
        payloads = {}
        for mode in ("obb", "hbb"):
            out = tmp_path / f"out_{mode}"
            code = main(
                [
                    "evaluate", "--labels", str(split), "--detections", str(preds),
                    "--width", "100", "--height", "100", "--box-mode", mode,
                    "--format", "json", "--out", str(out),
                ]
            )
            assert code == 0
            payloads[mode] = json.loads((out / "eval.json").read_text())
        assert payloads["obb"]["map50"] == pytest.approx(payloads["hbb"]["map50"], abs=1e-12)
        assert payloads["obb"]["precision"] == pytest.approx(payloads["hbb"]["precision"], abs=1e-12)
        assert payloads["obb"]["recall"] == pytest.approx(payloads["hbb"]["recall"], abs=1e-12)

    def test_class_names_resolved_against_map(self, tmp_path):
        split, _ = make_eval_tree(tmp_path)
        classes = tmp_path / "classes.txt"
        classes.write_text("acme\n")
        preds = tmp_path / "named.jsonl"
        g1 = quad_from_rect(20, 20, 10, 6, 0)
        g2 = quad_from_rect(60, 60, 10, 6, 40)
        preds.write_text(
            detection_line("f0", 0, "acme", g1, 1.0) + "\n" + detection_line("f1", 0, "acme", g2, 1.0) + "\n"
        )
        out = tmp_path / "out"
        code = main(
            [
                "evaluate", "--labels", str(split), "--detections", str(preds), "--classes", str(classes),
                "--width", "100", "--height", "100", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "eval.json").read_text())
        assert payload["per_class_ap"] == {"acme": 1.0}

    def test_no_ground_truth_exit_2(self, tmp_path):
        split = tmp_path / "data" / "test"
        (split / "images").mkdir(parents=True)
        (split / "labels").mkdir(parents=True)
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        code = main(
            [
                "evaluate", "--labels", str(split), "--detections", str(preds),
                "--width", "100", "--height", "100", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2

    def test_flagged_label_under_skipped_dir_is_not_a_skip(self, tmp_path, capsys):
        split, preds = make_eval_tree(tmp_path / "skipped_run")
        bowtie = [[20, 20], [30, 30], [30, 20], [20, 30]]
        with open(split / "labels" / "f0.txt", "a") as fh:
            fh.write(label_line(0, bowtie) + "\n")
        code = main(
            [
                "evaluate", "--labels", str(split), "--detections", str(preds),
                "--width", "100", "--height", "100", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert any("degenerate quad flagged" in w for w in report["warnings"])
        assert report["counts"]["ground_truth_parsed"] == 3
        assert report["counts"]["ground_truth_skipped"] == 0


    def test_unmatched_predictions_counted_and_warned(self, tmp_path, capsys):
        split, preds = make_eval_tree(tmp_path)
        g1 = quad_from_rect(20, 20, 10, 6, 0)
        with open(preds, "a") as fh:
            fh.write(detection_line("f0.jpg", 0, 0, g1, 0.95) + "\n")
            for i in range(6):
                fh.write(detection_line(f"x{i}", 0, 0, g1, 0.01) + "\n")
        args = [
            "evaluate", "--labels", str(split), "--detections", str(preds),
            "--width", "100", "--height", "100", "--format", "json",
        ]  # fmt: skip
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["predictions_unmatched_frame"] == 7
        assert report["counts"]["predictions_evaluated"] == 10
        assert [w for w in report["warnings"] if "match no frame" in w] == [
            "7 predictions match no frame (video_id is not a label stem), counted as false positives: "
            "'f0.jpg', 'x0', 'x1', 'x2', 'x3'"
        ]
        # the false positive at 0.95 ranks ahead of the hand example's TP, FP, TP
        assert report["summary"]["map50"] == pytest.approx(0.5, abs=1e-12)
        assert main([*args, "--out", str(tmp_path / "strict"), "--strict"]) == 2
        assert "'f0.jpg' matches no frame" in capsys.readouterr().err


class TestConfigValidation:
    """evaluate and fit settings are checked where argparse parses them, before any input is read."""

    @staticmethod
    def _exit_1(tmp_path, capsys, argv: list[str], classes: bytes | None, message: str) -> str:
        """Stderr of ``argv``, which must exit 1 with ``message``, print nothing and make no --out."""
        out = tmp_path / "out"
        if classes is not None:
            (tmp_path / "classes.txt").write_bytes(classes)
            argv = [*argv, "--classes", str(tmp_path / "classes.txt")]
        assert main([*argv, "--width", "100", "--height", "100", "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        return captured.err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--iou-threshold", "1.5"], ["--iou-threshold", "0"], ["--conf-threshold", "1.5"], ["--conf-threshold", "-0.1"],
            ["--iou-threshold", "1"], ["--conf-threshold", "2"], ["--conf-threshold", "nan"], ["--box-mode", "square"],
            ["--interpolation", "bogus"],
        ],
    )  # fmt: skip
    @pytest.mark.parametrize("classes", [None, b"logo\n\xff\n"], ids=["", "undecodable-classes"])
    def test_evaluate_exit_1(self, tmp_path, flag, classes, capsys):
        split, preds = make_eval_tree(tmp_path)
        argv = ["evaluate", "--labels", str(split), "--detections", str(preds), *flag]
        assert flag[1] in self._exit_1(tmp_path, capsys, argv, classes, f"error: argument {flag[0]}: ")

    @pytest.mark.parametrize("width", ["7", "0", "-15", "nan", "inf", "-inf", "1e300", "0.05"])
    @pytest.mark.parametrize("classes", [None, b"logo\n\xff\n"], ids=["", "undecodable-classes"])
    def test_fit_bin_width_exit_1(self, tmp_path, width, classes, capsys):
        split, preds = make_eval_tree(tmp_path)
        argv = ["fit", "--labels", str(split), "--detections", str(preds), "--bin-width", width]
        self._exit_1(tmp_path, capsys, argv, classes, "error: argument --bin-width: ")

    @pytest.mark.parametrize("classes", [None, b"logo\n\xff\n"], ids=["", "undecodable-classes"])
    def test_fit_without_input_exit_1(self, tmp_path, classes, capsys):
        self._exit_1(tmp_path, capsys, ["fit"], classes, "error: fit requires --labels and/or --detections")

    def test_fit_labels_without_dimensions_exit_1(self, tmp_path, capsys):
        split, preds = make_eval_tree(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--labels", str(split), "--detections", str(preds), "--out", str(out)]) == 1
        assert "error: frame dimensions required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--fps", "25"], ["--frames", "100"]])
    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    def test_fps_and_frames_are_analyze_only(self, tmp_path, command, flag, capsys):
        split, preds = make_eval_tree(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--labels", str(split), "--detections", str(preds), "--width", "100", "--height", "100"]
        assert main([*argv, *flag, "--out", str(out)]) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--fps" not in capsys.readouterr().out

    def test_edge_settings_accepted(self, tmp_path):
        split, preds = make_eval_tree(tmp_path)
        argv = ["--labels", str(split), "--detections", str(preds), "--width", "100", "--height", "100"]
        settings = ["--box-mode", "hbb", "--conf-threshold", "0", "--interpolation", "11point"]
        assert main(["evaluate", *argv, *settings, "--out", str(tmp_path / "eval")]) == 0
        assert main(["fit", *argv, "--bin-width", "7.5", "--out", str(tmp_path / "fit")]) == 0


class TestHugeJsonIntegers:
    """Integers beyond the float or int64 range are skipped records, not internal errors."""

    GOOD = quad_from_rect(20, 20, 10, 6, 0)
    WARNINGS = [
        "line 2: skipped: coordinate too large for a float",
        "line 3: skipped: confidence too large for a float",
        f"line 4: skipped: frame index {10**30} too large",
        f"line 5: skipped: class id {10**30} too large",
    ]

    def _write(self, path: Path) -> Path:
        def record(**fields):
            base = {"video_id": "f0", "frame": 0, "class": 0, "poly": [[float(x), float(y)] for x, y in self.GOOD], "conf": 0.9}
            return json.dumps({**base, **fields})

        lines = [
            detection_line("f0", 0, 0, self.GOOD, 0.9),
            record(poly=[[10**400, 0], [10, 0], [10, 10], [0, 10]]),
            record(conf=10**400),
            record(frame=10**30),
            record(**{"class": 10**30}),
        ]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_analyze(self, tmp_path, capsys):
        dets = self._write(tmp_path / "dets.jsonl")
        meta = write_meta(tmp_path / "meta.json", frames=0)  # frame count inferred from the records
        args = ["analyze", "--detections", str(dets), "--meta", str(meta)]
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"][:4] == self.WARNINGS
        assert report["counts"]["records_skipped"] == 4
        assert report["counts"]["records_accepted"] == 1
        assert report["counts"]["frames"] == 1
        assert main([*args, "--out", str(tmp_path / "strict"), "--strict"]) == 2
        assert "error: line 2: coordinate too large for a float" in capsys.readouterr().err

    def test_evaluate(self, tmp_path, capsys):
        split, _ = make_eval_tree(tmp_path)
        preds = self._write(tmp_path / "huge.jsonl")
        args = ["evaluate", "--labels", str(split), "--detections", str(preds), "--width", "100", "--height", "100"]
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"] == self.WARNINGS
        assert report["counts"]["predictions_skipped"] == 4
        assert report["counts"]["predictions_parsed"] == 1
        assert main([*args, "--out", str(tmp_path / "strict"), "--strict"]) == 2


class TestOneDetectionParser:
    """analyze, evaluate and iter_detections read a detection line the same way."""

    LINES = [
        detection_line("f0", 0, 0, quad_from_rect(20, 20, 10, 6, 0), 0.9),
        detection_line("f0", 1, 0, [[10, 10], [20, 20], [20, 10], [10, 20]], 0.9),  # bow-tie
        '{"broken json',
        detection_line("f1", 2, 0, quad_from_rect(60, 60, 10, 6, 40), 1.7),
        "",
        detection_line("f1", 3, 0, quad_from_rect(60, 60, 10, 6, 40), 0.7),
    ]

    def test_same_warnings_and_counts(self, tmp_path, capsys):
        preds = tmp_path / "mixed.jsonl"
        preds.write_text("\n".join(self.LINES) + "\n")
        warnings: list[str] = []
        with open(preds) as fh:
            kept = list(iter_detections(fh, warnings=warnings))
        assert len(kept) == 2
        assert len(warnings) == 3
        assert warnings[0] == "line 2: skipped: degenerate quad"
        assert warnings[1].startswith("line 3: skipped: invalid JSON: ")
        assert warnings[2] == "line 4: skipped: confidence 1.7 out of range [0, 1]"

        split, _ = make_eval_tree(tmp_path)
        meta = write_meta(tmp_path / "meta.json")
        out = tmp_path / "out"
        assert main(["analyze", "--detections", str(preds), "--meta", str(meta), "--out", str(out / "a")]) == 0
        analyzed = json.loads(capsys.readouterr().out)
        args = ["--labels", str(split), "--detections", str(preds), "--width", "100", "--height", "100"]
        assert main(["evaluate", *args, "--out", str(out / "e")]) == 0
        evaluated = json.loads(capsys.readouterr().out)

        assert analyzed["warnings"] == evaluated["warnings"] == warnings
        assert analyzed["counts"]["records_skipped"] == evaluated["counts"]["predictions_skipped"] == 3
        assert analyzed["counts"]["records_accepted"] == evaluated["counts"]["predictions_parsed"] == len(kept)


FIT_SIDE = 128.0  # pixel coordinates k / 128 survive the labels' 9-digit normalization exactly


def make_fit_tree(tmp_path: Path):
    """A split and predictions for fit: shuffled vertex orders, 0/45/90-degree boxes, faulty lines.

    Each source holds one malformed line, one degenerate box and one
    blank line; the labels are spread over three files.
    """
    rng = np.random.default_rng(31)
    split = tmp_path / "data" / "test"
    (split / "images").mkdir(parents=True)
    (split / "labels").mkdir(parents=True)
    on_edges = [  # 45, 0 and 90 degrees, exactly
        [[50, 40], [60, 50], [50, 60], [40, 50]],
        [[10, 10], [30, 10], [30, 20], [10, 20]],
        [[10, 10], [20, 10], [20, 40], [10, 40]],
    ]
    boxes = [np.array(q, float) for q in on_edges] + [
        quad_from_rect(*rng.uniform(30, 98, 2), *rng.uniform(4, 30, 2), rng.uniform(0, 180)) for _ in range(60)
    ]
    shuffled = []
    for quad in boxes:
        quad = np.roll(quad, rng.integers(4), axis=0)
        shuffled.append(quad[::-1] if rng.random() < 0.5 else quad)
    flat = [[10, 10], [20, 10], [30, 10], [40, 10]]
    labels = [label_line(i % 3, q, FIT_SIDE, FIT_SIDE) for i, q in enumerate(shuffled)]
    labels[5:5] = ["0 0.1 0.2", "", label_line(1, flat, FIT_SIDE, FIT_SIDE)]
    for k in range(3):
        (split / "images" / f"f{k}.jpg").write_bytes(b"")
        (split / "labels" / f"f{k}.txt").write_text("\n".join(labels[k::3]) + "\n")
    preds = tmp_path / "preds.jsonl"
    lines = [detection_line(f"f{i % 3}", 0, i % 3, q, 0.5) for i, q in enumerate(shuffled)]
    lines[7:7] = ["{not json", "", detection_line("f0", 0, 0, flat, 0.9)]
    preds.write_text("\n".join(lines) + "\n")
    return split, preds


def fit_argv(split: Path, preds: Path, out: Path, *extra: str) -> list[str]:
    side = format(FIT_SIDE, "g")
    return [
        "fit", "--labels", str(split), "--detections", str(preds),
        "--width", side, "--height", side, "--out", str(out), *extra,
    ]  # fmt: skip


class TestFit:
    def test_record_accounting(self, tmp_path, capsys):
        split, preds = make_fit_tree(tmp_path)
        assert main(fit_argv(split, preds, tmp_path / "out")) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        label_lines = [s for p in (split / "labels").iterdir() for s in p.read_text().splitlines() if s.strip()]
        pred_lines = [s for s in preds.read_text().splitlines() if s.strip()]
        assert counts["ground_truth_parsed"] + counts["ground_truth_skipped"] == len(label_lines) == 65
        assert counts["predictions_parsed"] + counts["predictions_skipped"] == len(pred_lines) == 65
        assert counts["ground_truth_skipped"] == 1 and counts["predictions_skipped"] == 2
        assert counts["gt_samples"] == counts["ground_truth_parsed"] - 1  # the degenerate label is kept, not sampled
        assert counts["pred_samples"] == counts["predictions_parsed"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tables_equal_the_per_object_route(self, tmp_path, capsys, fmt):
        split, preds = make_fit_tree(tmp_path)
        out, want = tmp_path / "out", tmp_path / "want"
        assert main(fit_argv(split, preds, out, "--format", fmt)) == 0
        gaps = json.loads(capsys.readouterr().out)["summary"]["overall_mean_abs_gap"]

        meta = FrameMeta(width=FIT_SIDE, height=FIT_SIDE)
        gts = [gt for p in sorted((split / "labels").iterdir()) for gt in read_label_file(p, meta, warnings=[])]
        with open(preds, encoding="utf-8") as fh:
            dets = list(iter_detections(fh))
        def sample(source, item):  # one box through the one-quad functions
            return TRSample(source, tightness_ratio(item.quad), obb_orientation_deg(item.quad), item.class_id)

        gt_samples = [sample("ground_truth", g) for g in gts if not g.degenerate]
        pred_samples = [sample("prediction", d) for d in dets]
        assert sorted({s.orientation_deg for s in gt_samples} & {0.0, 45.0, 90.0}) == [0.0, 45.0, 90.0]
        want.mkdir()
        overall = {}
        for width in (15.0, 5.0):
            tag = format(width, "g")
            rows = bin_rows(bin_by_orientation(gt_samples, width), "ground_truth")
            rows += bin_rows(bin_by_orientation(pred_samples, width), "prediction")
            write_table(want / f"tr_bins_bw{tag}.{fmt}", TR_BIN_FIELDS, rows, fmt)
            gap_rows, overall[tag] = compare_gt_pred_tr(gt_samples, pred_samples, width)
            write_table(want / f"tr_gap_bw{tag}.{fmt}", TR_GAP_FIELDS, gap_rows, fmt)
        assert sorted(p.name for p in want.iterdir()) == sorted(p.name for p in out.glob("tr_*"))
        for path in sorted(want.iterdir()):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        assert gaps == overall

    def test_sources_that_come_out_empty(self, tmp_path, capsys):
        split, _ = make_fit_tree(tmp_path)
        preds = tmp_path / "malformed.jsonl"
        flat = detection_line("f0", 0, 0, [[10, 10], [20, 10], [30, 10], [40, 10]], 0.9)
        preds.write_text('{"oops\n' + '{"frame": 1}\n' + flat + "\n")
        out = tmp_path / "out"
        assert main(fit_argv(split, preds, out)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["pred_samples"] == report["counts"]["predictions_parsed"] == 0
        assert report["counts"]["predictions_skipped"] == 3 and report["counts"]["gt_samples"] == 63
        assert sorted(p.name for p in out.glob("tr_*")) == ["tr_bins_bw15.csv", "tr_bins_bw5.csv"]
        for width in (15, 5):
            _, rows = read_table_csv(out / f"tr_bins_bw{width}.csv")
            assert len(rows) == 90 // width and {row["source"] for row in rows} == {"ground_truth"}
        assert report["summary"]["overall_mean_abs_gap"] == {}

        assert main(["fit", "--detections", str(preds), "--out", str(tmp_path / "alone")]) == 2
        assert "no valid samples for TR analysis" in capsys.readouterr().err

    def test_swept_rectangles_match_closed_form(self, tmp_path):
        split = tmp_path / "data" / "test"
        (split / "images").mkdir(parents=True)
        (split / "labels").mkdir(parents=True)
        rng = np.random.default_rng(8)
        expected_bin_means = {}
        lines_by_stem: dict[str, list[str]] = {}
        for i, theta in enumerate(np.arange(2.5, 90.0, 5.0)):
            stem = f"f{i:02d}"
            w = float(rng.uniform(12, 20))  # keep w > h so orientation equals theta
            h = float(rng.uniform(3, 9))
            quad = quad_from_rect(50, 50, w, h, float(theta))
            lines_by_stem.setdefault(stem, []).append(label_line(0, quad))
            # one sample per 15-degree bin index
            expected_bin_means.setdefault(int(theta // 15), []).append((w, h, theta))
        for stem, lines in lines_by_stem.items():
            (split / "images" / f"{stem}.jpg").write_bytes(b"")
            (split / "labels" / f"{stem}.txt").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(
            [
                "fit", "--labels", str(split), "--width", "100", "--height", "100",
                "--bin-width", "15", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_table_csv(out / "tr_bins_bw15.csv")
        gt_rows = [r for r in rows if r["source"] == "ground_truth"]
        assert len(gt_rows) == 6
        for idx, row in enumerate(gt_rows):
            entries = expected_bin_means[idx]
            expected = np.mean([tr_rect_closed_form(w, h, t) for w, h, t in entries])
            # label round-trip quantizes corners at 9 significant digits
            assert float(row["mean_tr"]) == pytest.approx(expected, abs=1e-6)

    def test_axis_aligned_single_bin(self, tmp_path):
        split = tmp_path / "data" / "test"
        (split / "images").mkdir(parents=True)
        (split / "labels").mkdir(parents=True)
        (split / "images" / "f0.jpg").write_bytes(b"")
        (split / "labels" / "f0.txt").write_text(
            label_line(0, quad_from_rect(30, 30, 20, 10, 0)) + "\n" + label_line(0, quad_from_rect(60, 60, 14, 8, 0)) + "\n"
        )
        out = tmp_path / "out"
        code = main(["fit", "--labels", str(split), "--width", "100", "--height", "100", "--out", str(out)])
        assert code == 0
        # default emits both bin widths
        _, rows15 = read_table_csv(out / "tr_bins_bw15.csv")
        _, rows5 = read_table_csv(out / "tr_bins_bw5.csv")
        occupied = [r for r in rows15 if int(r["n"]) > 0]
        assert len(occupied) == 1
        assert float(occupied[0]["mean_tr"]) == 1.0
        assert len(rows5) == 18

    def test_gt_equals_pred_zero_gap(self, tmp_path):
        split = tmp_path / "data" / "test"
        (split / "images").mkdir(parents=True)
        (split / "labels").mkdir(parents=True)
        (split / "images" / "f0.jpg").write_bytes(b"")
        quad = quad_from_rect(50, 50, 20, 10, 30)
        (split / "labels" / "f0.txt").write_text(label_line(0, quad) + "\n")
        preds = tmp_path / "preds.jsonl"
        gt_px = np.asarray(quad)
        # same quad after the label's 9-digit round trip
        from obbkit.formats import FrameMeta, parse_obb_label_line
        meta = FrameMeta(width=100.0, height=100.0)
        rt = parse_obb_label_line(label_line(0, quad), meta)
        preds.write_text(detection_line("f0", 0, 0, rt.quad, 0.9) + "\n")
        out = tmp_path / "out"
        code = main(
            [
                "fit", "--labels", str(split), "--detections", str(preds),
                "--width", "100", "--height", "100", "--bin-width", "15", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_table_csv(out / "tr_gap_bw15.csv")
        gaps = [float(r["abs_gap"]) for r in rows if r["abs_gap"] != ""]
        assert gaps == [0.0]

    def test_requires_some_input(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path / "o")]) == 1


class TestLosscheck:
    def test_default_passes(self, capsys):
        assert main(["losscheck"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_injected_alpha_fails(self, capsys):
        assert main(["losscheck", "--alpha", "0.8"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] vfl(p=0.5, y=0)" in captured.out
        assert "losscheck failed" in captured.err

    def test_params_file(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"gamma": 2.0, "alpha": 0.75}))
        assert main(["losscheck", "--params", str(params)]) == 0

    def test_report_written(self, tmp_path):
        out = tmp_path / "out"
        assert main(["losscheck", "--out", str(out)]) == 0
        payload = json.loads((out / "run_report.json").read_text())
        assert payload["counts"]["checks_failed"] == 0

    def test_failing_report_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["losscheck", "--alpha", "0.8", "--out", str(out)]) == 1
        assert "[FAIL] vfl(p=0.5, y=0)" in capsys.readouterr().out
        payload = json.loads((out / "run_report.json").read_text())
        assert payload["counts"]["checks_failed"] > 0
        assert payload["outputs"] == []

    def test_bad_param_file_exit_1(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"beta": 1.0}))
        assert main(["losscheck", "--params", str(params)]) == 1

    @pytest.mark.parametrize(
        "text, shown",
        [
            ('{"gamma": "2"}', "gamma must be a finite number, got '2'"),
            ('{"gamma": null}', "gamma must be a finite number, got None"),
            ('{"alpha": true}', "alpha must be a finite number, got True"),
            ('{"lambda_box": NaN}', "lambda_box must be a finite number, got nan"),
            ('{"lambda_cls": -Infinity}', "lambda_cls must be a finite number, got -inf"),
            ('{"lambda_dfl": 1e999}', "lambda_dfl must be a finite number, got inf"),
            ('{"gamma": 1' + "0" * 400 + "}", "gamma must be a finite number, got 1" + "0" * 400),
            ('{"alpha": [0.5]}', "alpha must be a finite number, got [0.5]"),
        ],
        ids=["string", "null", "bool", "nan", "-inf", "overflow", "int-beyond-float", "list"],
    )
    def test_param_file_value_that_is_not_a_finite_number_exit_1(self, tmp_path, capsys, text, shown):
        params = tmp_path / "params.json"
        params.write_text(text)
        out = tmp_path / "out"
        assert main(["losscheck", "--params", str(params), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {shown}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--alpha", "--lambda-box", "--lambda-cls", "--lambda-dfl"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_flag_that_is_not_a_finite_number_exit_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert main(["losscheck", f"{flag}={value}", "--out", str(out)]) == 1
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()


class TestExposureLogEnv:
    def test_verbosity_env(self, toy_analyze, monkeypatch, capsys):
        dets, meta, out = toy_analyze
        monkeypatch.setenv("EXPOSURE_LOG", "debug")
        assert main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out)]) == 0


class TestExitCodes:
    def test_internal_error_exit_3(self, toy_analyze, monkeypatch, capsys):
        dets, meta, out = toy_analyze

        def boom(args, config_echo, meta, class_map):
            raise RuntimeError("unexpected")

        monkeypatch.setattr("obbkit.cli.pipeline.run_analyze", boom)
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out)])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_eval_csv_format(self, tmp_path):
        split, preds = make_eval_tree(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "evaluate", "--labels", str(split), "--detections", str(preds),
                "--width", "100", "--height", "100", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_table_csv(out / "eval.csv")
        by_metric = {}
        for r in rows:
            by_metric.setdefault(r["metric"], []).append(r)
        assert float(by_metric["map50"][0]["value"]) == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert len(by_metric["iou_fraction"]) == 5
        assert len(by_metric["ap"]) == 1


class TestOutlierFrameIndex:
    """One record far beyond the other frames costs no memory per frame and fails no run."""

    QUAD = quad_from_rect(50, 50, 20, 10, 0)

    def _stream(self, path: Path, frames) -> Path:
        path.write_text("".join(detection_line("v", f, 0, self.QUAD, 0.9) + "\n" for f in frames))
        return path

    def test_frame_beyond_32_bits_without_frame_count(self, tmp_path, capsys):
        dets = self._stream(tmp_path / "dets.jsonl", [0, 1, 2**40])
        meta = write_meta(tmp_path / "meta.json", frames=0)
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(tmp_path / "o"), "--min-run", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["records_accepted"] == 3
        assert report["counts"]["frames"] == 2**40 + 1
        assert report["warnings"][1] == (
            f"inferred frame count {2**40 + 1} is over 1000x the 3 distinct frames with detections; "
            "check for an outlier frame index"
        )
        _, rows = read_table_csv(tmp_path / "o" / "timeline.csv")
        assert [r["frame_index"] for r in rows] == ["0", "1", str(2**40)]  # runs shorter than 3 suppressed

    def test_frame_beyond_32_bits_outside_frame_count(self, tmp_path, capsys):
        dets = self._stream(tmp_path / "dets.jsonl", [0, 1, 2**40])
        meta = write_meta(tmp_path / "meta.json", frames=4)
        code = main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(tmp_path / "o"), "--min-run", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"] == [f"line 3: skipped: frame index {2**40} outside video of 4 frames"]
        assert report["counts"]["records_skipped"] == 1

    def test_memory_does_not_grow_with_the_frame_count(self, tmp_path, capsys):
        dets = self._stream(tmp_path / "dets.jsonl", [0, 1, 2, 3, 10**7])
        meta = write_meta(tmp_path / "meta.json", frames=0)
        args = ["analyze", "--detections", str(dets), "--meta", str(meta), "--min-run", "3", "--jobs", "1"]
        assert main([*args, "--out", str(tmp_path / "warm")]) == 0  # imports and caches outside the measurement
        code, peak = traced_peak(lambda: main([*args, "--out", str(tmp_path / "o")]))
        assert code == 0
        assert peak < 2 * 2**20  # a dense series of 10**7 frames would take 10 MB
        assert "check for an outlier frame index" in capsys.readouterr().out

    def _outlier_warnings(self, tmp_path, capsys, frames, confs) -> list[str]:
        dets = tmp_path / "dets.jsonl"
        dets.write_text("".join(detection_line("v", f, 0, self.QUAD, c) + "\n" for f, c in zip(frames, confs)))
        meta = write_meta(tmp_path / "meta.json", frames=0)
        assert main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(tmp_path / "o")]) == 0
        return [w for w in json.loads(capsys.readouterr().out)["warnings"] if "outlier" in w]

    def test_low_confidence_frames_count_as_distinct_frames(self, tmp_path, capsys):
        frames = [*range(0, 2000, 2), 1999]  # 1001 distinct frames, only the last record above the threshold
        assert self._outlier_warnings(tmp_path, capsys, frames, [0.1] * 1000 + [0.9]) == []

    def test_outlier_warns_when_every_record_is_below_the_threshold(self, tmp_path, capsys):
        assert self._outlier_warnings(tmp_path, capsys, [0, 1, 10**7], [0.1] * 3) == [
            f"inferred frame count {10**7 + 1} is over 1000x the 3 distinct frames with detections; "
            "check for an outlier frame index"
        ]


class TestVideoIds:
    QUAD = quad_from_rect(50, 50, 20, 10, 0)

    def _stream(self, path: Path, ids) -> Path:
        path.write_text("".join(detection_line(v, i % 4, 0, self.QUAD, 0.9) + "\n" for i, v in enumerate(ids)))
        return path

    def test_mixed_videos_warn_once_naming_the_first_five(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr("obbkit.pipeline.CHUNK_LINES", 2)  # ids spread over chunks
        dets = self._stream(tmp_path / "dets.jsonl", ["a", "a", "b", "c", "a", "d", "e", "f", "g"])
        meta = write_meta(tmp_path / "meta.json")
        with caplog.at_level("WARNING", logger="obbkit"):
            assert main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(tmp_path / "o")]) == 0
        mixed = [r.getMessage() for r in caplog.records if "more than one video" in r.getMessage()]
        assert mixed == [
            "detections of more than one video are merged into one timeline: 'a', 'b', 'c', 'd', 'e'"
        ]


class TestUnreadableLines:
    """Bytes that are not UTF-8 and over-long integer literals are skipped lines, not internal errors."""

    QUAD = quad_from_rect(20, 20, 10, 6, 0)

    def _write(self, path: Path, middle: bytes) -> Path:
        good = detection_line("f0", 0, 0, self.QUAD, 0.9).encode()
        path.write_bytes(good + b"\n" + middle + b"\n" + detection_line("f1", 1, 0, self.QUAD, 0.8).encode() + b"\n")
        return path

    def _check(self, tmp_path, capsys, command: list[str], dets: Path, warning: str, skipped_key: str):
        assert main([*command, "--detections", str(dets), "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [w for w in report["warnings"] if w.startswith("line ")] == [warning]
        assert report["counts"][skipped_key] == 1
        assert main([*command, "--detections", str(dets), "--out", str(tmp_path / "strict"), "--strict"]) == 2
        assert f"error: {warning.replace('skipped: ', '')}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_analyze_skips_invalid_utf8(self, tmp_path, capsys, jobs):
        middle = detection_line("fé", 0, 0, self.QUAD, 0.9).encode().replace(b"f\\u00e9", b"f\xff")
        dets = self._write(tmp_path / "dets.jsonl", middle)
        command = ["analyze", "--meta", str(write_meta(tmp_path / "meta.json")), "--jobs", jobs]
        self._check(tmp_path, capsys, command, dets, "line 2: skipped: invalid UTF-8", "records_skipped")

    def test_evaluate_skips_invalid_utf8(self, tmp_path, capsys):
        split, _ = make_eval_tree(tmp_path)
        dets = self._write(tmp_path / "dets.jsonl", b'{"video_id": "f0\xc3"}')
        command = ["evaluate", "--labels", str(split), "--width", "100", "--height", "100"]
        self._check(tmp_path, capsys, command, dets, "line 2: skipped: invalid UTF-8", "predictions_skipped")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_analyze_skips_overlong_integer_literals(self, tmp_path, capsys, jobs):
        dets = self._write(tmp_path / "dets.jsonl", b'{"video_id": "f0", "frame": 1' + b"0" * 5000 + b"}")
        command = ["analyze", "--meta", str(write_meta(tmp_path / "meta.json")), "--jobs", jobs]
        warning = "line 2: skipped: invalid JSON: integer literal too long"
        self._check(tmp_path, capsys, command, dets, warning, "records_skipped")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_analyze_skips_lines_nested_too_deep(self, tmp_path, capsys, jobs):
        dets = self._write(tmp_path / "dets.jsonl", b'{"broken\n' + b"[" * 100_000)
        command = ["analyze", "--meta", str(write_meta(tmp_path / "meta.json")), "--jobs", jobs]
        assert main([*command, "--detections", str(dets), "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        warnings = [w for w in report["warnings"] if w.startswith("line ")]
        assert warnings[0].startswith("line 2: skipped: invalid JSON: Invalid control character")
        assert warnings[1:] == ["line 3: skipped: invalid JSON: nesting too deep"]
        assert report["counts"]["records_skipped"] == 2
        assert main([*command, "--detections", str(dets), "--out", str(tmp_path / "strict"), "--strict"]) == 2
        assert "error: line 2: invalid JSON: Invalid control character" in capsys.readouterr().err


class TestInputFiles:
    """Missing and undecodable input files are configuration or data errors, never internal ones."""

    @staticmethod
    def _run(tmp_path, capsys, argv: list[str], **extra: Path) -> tuple[int, str, Path]:
        split, preds = make_eval_tree(tmp_path)
        paths = {"split": split, "preds": preds, "meta": write_meta(tmp_path / "meta.json"), **extra}
        out = tmp_path / "out"
        code = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        err = capsys.readouterr().err
        assert "internal error" not in err
        return code, err, out

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--labels", "{split}", "--detections", "{missing}", "--meta", "{meta}"],
            ["fit", "--labels", "{split}", "--detections", "{missing}", "--meta", "{meta}"],
            ["fit", "--labels", "{missing}", "--detections", "{preds}", "--meta", "{meta}"],
            ["analyze", "--detections", "{preds}", "--meta", "{missing}"],
            ["analyze", "--detections", "{preds}", "--meta", "{split}"],
            ["losscheck", "--params", "{missing}"],
        ],
        ids=["evaluate-detections", "fit-detections", "fit-labels", "meta", "meta-is-a-directory", "params"],
    )
    def test_missing_input_exits_1_when_the_arguments_are_parsed(self, tmp_path, capsys, argv):
        code, err, out = self._run(tmp_path, capsys, argv, missing=tmp_path / "missing")
        assert code == 1
        assert "not found" in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"", b"\n\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--detections", "{preds}", "--meta", "{meta}", "--classes", "{bad}"],
            ["evaluate", "--labels", "{split}", "--detections", "{preds}", "--meta", "{meta}", "--classes", "{bad}"],
        ],
        ids=["analyze", "evaluate"],
    )
    def test_class_map_without_names_exit_2(self, tmp_path, capsys, argv, content):
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        code, err, out = self._run(tmp_path, capsys, argv, bad=bad)
        assert code == 2
        assert f"error: {bad}: class map has no names" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, content, want_code, message",
        [
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100,', 2, "invalid metadata JSON"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "video_id": "\xff"}', 2, "invalid metadata JSON"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b"[" * 100_000, 2, "invalid metadata JSON"),
            (["analyze", "--detections", "{preds}", "--meta", "{meta}", "--classes", "{bad}"], b"logo\n\xff\n", 2, "line 2: invalid UTF-8"),
            (["losscheck", "--params", "{bad}"], b'{"gamma": 2.0', 1, "invalid loss parameter JSON"),
            (["losscheck", "--params", "{bad}"], b"[" * 100_000, 1, "invalid loss parameter JSON"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b"[100, 100]", 2, "metadata file must be a JSON object"),
            (["losscheck", "--params", "{bad}"], b'"gamma"', 1, "loss parameter file must be a JSON object"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 100, "fps": NaN}', 2, "invalid metadata: frame rate"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 100, "fps": 1e999}', 2, "invalid metadata: frame rate"),
            (["evaluate", "--labels", "{split}", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 100, "fps": NaN}', 2, "invalid metadata: frame rate"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 100, "frame_count": 1e999}', 2, "invalid metadata: cannot convert"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 1e999, "height": 100}', 2, "invalid metadata: frame dimensions"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 1' + b"0" * 400 + b"}", 2, "invalid metadata: int too large"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": "100", "height": 100}', 2, "invalid metadata: width must be a number, got '100'"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 100, "fps": true}', 2, "invalid metadata: fps must be a number, got True"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 100, "frame_count": 2.7}', 2, "invalid metadata: frame_count must be an integer, got 2.7"),
            (["analyze", "--detections", "{preds}", "--meta", "{bad}"], b'{"width": 100, "height": 100, "video_id": null}', 2, "invalid metadata: video_id must be a string, got None"),
        ],
        ids=[
            "meta-syntax", "meta-utf8", "meta-nesting", "classes-utf8", "params-syntax", "params-nesting",
            "meta-not-an-object", "params-not-an-object", "meta-fps-nan", "meta-fps-inf", "evaluate-meta-fps-nan",
            "meta-frame-count-inf", "meta-width-inf", "meta-height-beyond-float", "meta-width-string", "meta-fps-bool",
            "meta-frame-count-fraction", "meta-video-id-null",
        ],
    )
    def test_undecodable_config_file(self, tmp_path, capsys, argv, content, want_code, message):
        bad = tmp_path / "bad"
        bad.write_bytes(content)
        code, err, out = self._run(tmp_path, capsys, argv, bad=bad)
        assert code == want_code
        assert f"error: {bad}: " in err and message in err
        assert not out.exists()


class TestOutDirectory:
    """An --out that is a file, or lies under one, is a configuration error raised before any input is read."""

    ARGV = {
        "analyze": ["analyze", "--detections", "{preds}", "--meta", "{meta}"],
        "evaluate": ["evaluate", "--labels", "{split}", "--detections", "{preds}", "--meta", "{meta}"],
        "fit": ["fit", "--labels", "{split}", "--detections", "{preds}", "--meta", "{meta}"],
        "losscheck": ["losscheck"],
    }

    def _argv(self, tmp_path, command: str, bad_first_line: bool = False) -> list[str]:
        split, preds = make_eval_tree(tmp_path)
        if bad_first_line:
            preds.write_text("{not json\n" + preds.read_text())
        paths = {"split": split, "preds": preds, "meta": write_meta(tmp_path / "meta.json")}
        return [arg.format(**paths) for arg in self.ARGV[command]]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_exits_1(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "outfile"
        blocker.write_text("keep")
        out = blocker / "sub" if below else blocker
        assert main([*self._argv(tmp_path, command), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: cannot make output directory {out}: " in captured.err
        assert "internal error" not in captured.err
        assert captured.out == ""
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("command", ["analyze", "evaluate"])
    def test_checked_before_the_first_detection_line(self, tmp_path, capsys, command):
        blocker = tmp_path / "outfile"
        blocker.write_text("")
        argv = [*self._argv(tmp_path, command, bad_first_line=True), "--strict"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2  # reading the first line fails
        assert main([*argv, "--out", str(blocker)]) == 1
        assert "internal error" not in capsys.readouterr().err


class TestOutputs:
    """A fresh --out holds the run report's outputs, listed in their documented order, and run_report.json."""

    def _check(self, capsys, out: Path, names: list[str]) -> None:
        report = json.loads(capsys.readouterr().out)
        assert report["outputs"] == [str(out / name) for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "run_report.json"])
        assert json.loads((out / "run_report.json").read_text()) == report

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_analyze(self, toy_analyze, capsys, fmt):
        dets, meta, out = toy_analyze
        assert main(["analyze", "--detections", str(dets), "--meta", str(meta), "--format", fmt, "--out", str(out)]) == 0
        self._check(capsys, out, [f"brand_metrics.{fmt}", f"timeline.{fmt}", f"ranking.{fmt}"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_evaluate(self, tmp_path, capsys, fmt):
        split, preds = make_eval_tree(tmp_path)
        out = tmp_path / "out"
        argv = ["evaluate", "--labels", str(split), "--detections", str(preds), "--width", "100", "--height", "100"]
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        self._check(capsys, out, [f"eval.{fmt}"])

    @pytest.mark.parametrize("widths", [[], ["--bin-width", "5"]], ids=["both-widths", "one-width"])
    @pytest.mark.parametrize("both_sources", [False, True], ids=["labels", "labels-and-predictions"])
    def test_fit(self, tmp_path, capsys, widths, both_sources):
        split, preds = make_fit_tree(tmp_path)
        out = tmp_path / "out"
        side = format(FIT_SIDE, "g")
        argv = ["fit", "--labels", str(split), "--width", side, "--height", side, "--out", str(out), *widths]
        assert main([*argv, *(["--detections", str(preds)] if both_sources else [])]) == 0
        tables = ["bins", "gap"] if both_sources else ["bins"]
        self._check(capsys, out, [f"tr_{t}_bw{tag}.csv" for tag in (widths[1:] or ["15", "5"]) for t in tables])


class TestStaleReports:
    """Before it reads any input, a run removes from --out the report files it writes and run_report.json, nothing else."""

    @pytest.mark.parametrize("command", ["analyze", "evaluate", "fit"])
    def test_a_failed_run_leaves_no_earlier_report(self, tmp_path, capsys, command):
        argv = TestOutDirectory()._argv(tmp_path, command)
        out = tmp_path / "out"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        json_names = sorted(Path(p).name for p in json.loads(capsys.readouterr().out)["outputs"])
        assert main([*argv, "--out", str(out)]) == 0
        (out / "notes.txt").write_text("keep")
        preds = Path(argv[argv.index("--detections") + 1])
        preds.write_text(preds.read_text() + '{"bad": 1}\n')
        assert main([*argv, "--strict", "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == sorted([*json_names, "notes.txt"])
        assert (out / "notes.txt").read_text() == "keep"


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a label file, class map or detection stream is ignored."""

    BOM = "\ufeff"
    QUAD = quad_from_rect(20, 20, 10, 6, 0)

    def test_evaluate_split_class_map_and_stream(self, tmp_path, capsys):
        split = tmp_path / "split"
        (split / "images").mkdir(parents=True)
        (split / "labels").mkdir()
        (split / "images" / "a.jpg").write_bytes(b"")
        (split / "labels" / "a.txt").write_text(self.BOM + label_line(0, self.QUAD) + "\n", encoding="utf-8")
        classes = tmp_path / "classes.txt"
        classes.write_text(self.BOM + "logo\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(self.BOM + detection_line("a", 0, "logo", self.QUAD, 0.9) + "\n", encoding="utf-8")
        argv = ["evaluate", "--labels", str(split), "--detections", str(preds), "--classes", str(classes)]
        assert main([*argv, "--width", "100", "--height", "100", "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"] == []
        assert report["counts"]["ground_truth_parsed"] == report["counts"]["predictions_parsed"] == 1
        assert report["summary"]["map50"] == 1.0

    def test_analyze_in_workers(self, toy_analyze, capsys, monkeypatch):
        dets, meta, out = toy_analyze
        with_bom = dets.with_name("bom.jsonl")
        with_bom.write_text(self.BOM + dets.read_text(), encoding="utf-8")
        monkeypatch.setattr(pipeline, "CHUNK_LINES", 1)  # the second chunk starts at a byte offset past the mark
        reports = []
        for path, name in ((dets, "plain"), (with_bom, "bom")):
            argv = ["analyze", "--detections", str(path), "--meta", str(meta), "--jobs", "2"]
            assert main([*argv, "--out", str(out / name)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1]["counts"] == reports[0]["counts"] and reports[1]["counts"]["records_skipped"] == 0
        assert reports[1]["warnings"] == reports[0]["warnings"]
        for name in reports[0]["outputs"]:
            assert (out / "bom" / Path(name).name).read_bytes() == Path(name).read_bytes()

    def test_analyze_meta_file(self, toy_analyze, capsys):
        dets, meta, out = toy_analyze
        text = meta.read_text(encoding="utf-8")
        reports = []
        for name, body in (("plain", text), ("bom", self.BOM + text)):
            path = meta.with_name(f"{name}.json")
            path.write_text(body, encoding="utf-8")
            assert main(["analyze", "--detections", str(dets), "--meta", str(path), "--out", str(out / name)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[1]["counts"] == reports[0]["counts"] and reports[1]["summary"] == reports[0]["summary"]
        for body in (self.BOM * 2 + text, " " + self.BOM + text, text.replace(",", "," + self.BOM, 1)):
            meta.write_text(body, encoding="utf-8")
            assert main(["analyze", "--detections", str(dets), "--meta", str(meta), "--out", str(out / "bad")]) == 2
            assert "invalid metadata JSON" in capsys.readouterr().err

    def test_losscheck_params_file(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        text = json.dumps({"gamma": 2.0, "alpha": 0.75})
        params.write_text(self.BOM + text, encoding="utf-8")
        assert main(["losscheck", "--params", str(params)]) == 0
        for body in (self.BOM * 2 + text, " " + self.BOM + text, text.replace(",", "," + self.BOM, 1)):
            params.write_text(body, encoding="utf-8")
            assert main(["losscheck", "--params", str(params)]) == 1
            assert "invalid loss parameter JSON" in capsys.readouterr().err


class TestLabelFileFaults:
    """A label line that is not UTF-8 is a skipped line, and an entry of labels/ that is not a file is ignored."""

    QUAD = quad_from_rect(20, 20, 10, 6, 0)
    COUNTS = {  # the one good label and the one prediction, in frame a
        "evaluate": {
            "ground_truth_parsed": 1, "ground_truth_skipped": 0, "predictions_parsed": 1, "predictions_skipped": 0,
            "predictions_unmatched_frame": 0, "predictions_evaluated": 1, "ground_truth_evaluated": 1,
        },
        "fit": {
            "gt_samples": 1, "pred_samples": 1, "ground_truth_parsed": 1, "ground_truth_skipped": 0,
            "predictions_parsed": 1, "predictions_skipped": 0,
        },
    }  # fmt: skip
    NO_LABEL = "image b.jpg has no label file (treated as empty)"

    def _split(self, tmp_path: Path, fault: str) -> tuple[Path, Path]:
        split = tmp_path / "data" / "test"
        (split / "images").mkdir(parents=True)
        (split / "labels").mkdir(parents=True)
        good = label_line(0, self.QUAD) + "\n"
        for stem in ("a", "b"):
            (split / "images" / f"{stem}.jpg").write_bytes(b"")
        if fault == "invalid-utf8":  # nine fields, the class id a byte that is not UTF-8
            (split / "labels" / "a.txt").write_bytes((good + good.replace("0", "\xff", 1)).encode("latin-1"))
        else:
            (split / "labels" / "a.txt").write_text(good)
            (split / "labels" / "b.txt").mkdir()
        preds = tmp_path / "preds.jsonl"
        preds.write_text(detection_line("a", 0, 0, self.QUAD, 0.9) + "\n")
        return split, preds

    def _run(self, tmp_path, capsys, fault: str, command: str, strict: bool):
        split, preds = self._split(tmp_path, fault)
        argv = [command, "--labels", str(split), "--detections", str(preds), "--width", "100", "--height", "100"]
        code = main([*argv, "--out", str(tmp_path / "out"), *(["--strict"] if strict else [])])
        captured = capsys.readouterr()
        assert "internal error" not in captured.err
        return code, captured, split / "labels" / "a.txt"

    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    @pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
    def test_invalid_utf8_line_is_skipped(self, tmp_path, capsys, command, strict):
        code, captured, label_file = self._run(tmp_path, capsys, "invalid-utf8", command, strict)
        if strict:
            assert code == 2
            assert f"error: {label_file}: line 2: invalid UTF-8" in captured.err
            return
        assert code == 0
        report = json.loads(captured.out)
        assert report["counts"] == {**self.COUNTS[command], "ground_truth_skipped": 1}
        assert report["warnings"] == [self.NO_LABEL, f"{label_file}:2: skipped: invalid UTF-8"]

    @pytest.mark.parametrize("command", ["evaluate", "fit"])
    @pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
    def test_directory_in_labels_is_ignored(self, tmp_path, capsys, command, strict):
        code, captured, _ = self._run(tmp_path, capsys, "directory", command, strict)
        assert code == 0
        report = json.loads(captured.out)
        assert report["counts"] == self.COUNTS[command]
        assert report["warnings"] == [self.NO_LABEL]


class TestChunkBoundaries:
    """Line numbers and counts across chunks, for every text-mode line end, at any chunk size and job count."""

    QUAD = quad_from_rect(50, 50, 20, 10, 0)

    def _lines(self) -> list[str]:
        lines = [detection_line("v", i % 4, 0, self.QUAD, 0.9) for i in range(7)]
        lines[1] = json.dumps({"frame": 1, "class": 0, "poly": self.QUAD.tolist(), "conf": 0.9})
        lines[3] = json.dumps({**json.loads(lines[3]), "video_id": "a\u2028b\x85c"}, ensure_ascii=False)
        lines[4] = '{"broken'
        lines[5] = "   "
        return lines

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("chunk_lines", [2, 3])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_same_warnings_and_counts_as_the_reference(self, tmp_path, capsys, monkeypatch, end, chunk_lines, jobs):
        from oracles import parse_detection_chunk_reference

        monkeypatch.setattr("obbkit.pipeline.CHUNK_LINES", chunk_lines)
        dets = tmp_path / "dets.jsonl"
        dets.write_bytes(end.join(self._lines()).encode("utf-8"))
        with open(dets, encoding="utf-8") as fh:
            want = parse_detection_chunk_reference(list(fh), 1, meta=FrameMeta(100.0, 100.0, frame_count=4))
        meta = write_meta(tmp_path / "meta.json")
        assert main(["analyze", "--detections", str(dets), "--meta", str(meta), "--jobs", jobs, "--out", str(tmp_path / "o")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["warnings"] == want.warnings
        assert (report["counts"]["records_total"], report["counts"]["records_skipped"]) == (want.n_records, want.n_skipped)
        assert want.warnings[0] == "line 2: skipped: missing field 'video_id'"  # as with every line end before
        assert want.warnings[1].startswith("line 5: skipped: invalid JSON: ") and want.n_records == 6


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this checkout's sources on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point_prints_usage():
    proc = _python("-m", "obbkit.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:") and "analyze" in proc.stdout


def test_cli_import_loads_no_process_pool():
    code = "import sys, obbkit.cli; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    proc = _python("-c", code)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


@pytest.mark.parametrize("box_mode", ["obb", "hbb"])
def test_evaluate_loads_no_numpy_ma(tmp_path, box_mode):
    # numpy.ma costs about 25 ms of start-up in every interpreter that imports it
    split, preds = make_eval_tree(tmp_path)
    argv = ["evaluate", "--labels", str(split), "--detections", str(preds), "--width", "100", "--height", "100",
            "--box-mode", box_mode, "--out", str(tmp_path / "out")]  # fmt: skip
    code = f"import sys, obbkit.cli; rc = obbkit.cli.main({argv!r}); print(rc, 'numpy.ma' in sys.modules)"
    proc = _python("-c", code)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "0 False"


def test_analyze_without_frame_count_loads_no_numpy_ma(tmp_path):
    # the distinct frames behind the outlier check come from a sort, not np.unique (which imports numpy.ma)
    dets = tmp_path / "dets.jsonl"
    quad = quad_from_rect(50, 50, 20, 10, 0)
    dets.write_text("".join(detection_line("v", f, 0, quad, 0.9) + "\n" for f in (3, 1, 3, 0, 1)))
    argv = ["analyze", "--detections", str(dets), "--width", "100", "--height", "100", "--fps", "2", "--jobs", "1",
            "--out", str(tmp_path / "out")]  # fmt: skip
    code = f"import sys, obbkit.cli; rc = obbkit.cli.main({argv!r}); print(rc, 'numpy.ma' in sys.modules)"
    proc = _python("-c", code)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "0 False"
    assert "frame count not provided; inferred 4 from detections" in proc.stdout


def test_distinct_frames_equal_np_unique():
    rng = np.random.default_rng(7)
    for values in (np.zeros(0, np.int64), np.array([5]), rng.integers(0, 9, 50), rng.integers(-(2**62), 2**62, 300)):
        assert pipeline._distinct(values).tobytes() == np.unique(values).tobytes()
