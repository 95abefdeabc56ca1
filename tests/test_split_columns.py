"""The column path of evaluate and fit: a split read once as columns, matched without per-record objects."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit import cli, evaluation, formats, pipeline
from obbkit.evaluation import EVAL_TABLE_FIELDS
from conftest import traced_peak
from obbkit.formats import FrameMeta, iter_detections, read_label_file, read_split_labels, write_json_report, write_table
from obbkit.geometry import canonical_order, degenerate_mask
from oracles import evaluate_reference, label_columns_reference, read_split_labels_reference, run_evaluate_reference

BENCH_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def _bench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _bench_gen()
META = FrameMeta(width=GEN.WIDTH, height=GEN.HEIGHT)


def faulted_split(root: Path, seed: int) -> tuple[Path, Path]:
    """A small generated split plus every fault the column path has to carry: returns (split dir, predictions)."""
    GEN.gen_labeled_split(root, seed, n_images=12, gt_per_image=6, preds_per_image=12)
    split, preds = root / "split", root / "predictions.jsonl"
    labels = sorted((split / "labels").glob("*.txt"))
    lines = labels[0].read_text().splitlines()
    lines[1:1] = ["oops", "", lines[0]]  # a malformed line, a blank one, and a twin label: equal IoUs
    lines += [
        "0 0.1 0.1 0.2 0.2 0.2 0.1 0.1 0.2",  # bow-tie: degenerate, kept and flagged
        "1 0.1 0.1 0.2 0.1 0.2 0.2 0.1 1.5",
        "x 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2",
    ]
    labels[0].write_text("\n".join(lines) + "\n")
    first, *rest = labels[2].read_text().splitlines()
    labels[2].write_text("\n".join([first.split()[0] + " 0.3 0.3 0.3 0.3 0.3 0.3 0.3 0.3", *rest]) + "\n")
    labels[3].write_text("")  # an empty label file
    labels[4].unlink()  # an image without labels
    (split / "images" / f"{labels[5].stem}.jpg").unlink()  # labels without an image

    records = [json.loads(line) for line in preds.read_text().splitlines()][::-1]  # line order is not frame order
    bowtie_box = [[GEN.WIDTH * x, GEN.HEIGHT * y] for x, y in ((0.1, 0.1), (0.2, 0.1), (0.2, 0.2), (0.1, 0.2))]
    records.append({**records[0], "video_id": labels[0].stem, "class": 0, "poly": bowtie_box, "conf": 0.95})
    out = []
    for i, rec in enumerate(records):
        if i % 5 == 0:
            rec["conf"] = 0.5  # equal confidences across frames and classes
        if i % 23 == 3:
            rec["video_id"] += ".jpg"  # not a stem
        if i % 31 == 7:
            rec["video_id"] = f"zz_{i % 2}"
        out.append(json.dumps(rec))
        if i % 9 == 0:
            out.append(json.dumps(rec))  # a twin prediction: equal IoU and equal confidence
        if i == 4:
            out += ["{bad json", json.dumps({**rec, "poly": [[1, 1], [1, 1], [1, 1], [1, 1]]})]
    preds.write_text("\n".join(out) + "\n")
    return split, preds


def run_cli(argv: list[str]) -> tuple[int, dict]:
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    return code, json.loads(stdout.getvalue()) if code == 0 else {}


def split_argv(command: str, split: Path, preds: Path, out: Path, *extra: str) -> list[str]:
    return [
        command, "--labels", str(split), "--detections", str(preds),
        "--width", str(GEN.WIDTH), "--height", str(GEN.HEIGHT), "--out", str(out), *extra,
    ]  # fmt: skip


class TestEvaluateAgainstReference:
    @pytest.mark.parametrize("seed", [3, 1234])
    @pytest.mark.parametrize("box_mode", ["obb", "hbb"])
    @pytest.mark.parametrize("interpolation", ["all_points", "11point"])
    @pytest.mark.parametrize("conf_threshold", [None, 0.5])
    def test_faulted_split(self, tmp_path, seed, box_mode, interpolation, conf_threshold):
        split, preds = faulted_split(tmp_path, seed)
        settings = dict(box_mode=box_mode, interpolation=interpolation, conf_threshold=conf_threshold)
        result, counts, warnings = run_evaluate_reference(split, preds, META, **settings)
        assert counts["predictions_unmatched_frame"] > 0 and counts["ground_truth_skipped"] == 3
        assert sum("degenerate" in w for w in warnings) == 5  # two labels flagged and dropped, one prediction skipped

        flags = ["--box-mode", box_mode, "--interpolation", interpolation]
        flags += ["--conf-threshold", str(conf_threshold)] if conf_threshold is not None else []
        for fmt in ("csv", "json"):
            out, want = tmp_path / f"out-{fmt}", tmp_path / f"want-{fmt}"
            code, report = run_cli(split_argv("evaluate", split, preds, out, *flags, "--format", fmt))
            assert code == 0
            assert report["counts"] == counts
            assert report["warnings"] == warnings
            want.mkdir()
            if fmt == "json":
                write_json_report(want / "eval.json", result.to_payload())
            else:
                write_table(want / "eval.csv", EVAL_TABLE_FIELDS, result.to_rows(), "csv")
            name = f"eval.{fmt}"
            assert (out / name).read_bytes() == (want / name).read_bytes()


def test_cli_builds_no_per_record_objects(tmp_path, monkeypatch):
    split, preds = faulted_split(tmp_path, 5)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the CLI path")

    monkeypatch.setattr(formats.Detection, "__init__", refuse)
    monkeypatch.setattr(formats.GroundTruth, "__init__", refuse)
    for i, extra in enumerate([["--box-mode", "obb"], ["--box-mode", "hbb"]]):
        assert run_cli(split_argv("evaluate", split, preds, tmp_path / f"e{i}", *extra))[0] == 0
    assert run_cli(split_argv("fit", split, preds, tmp_path / "fit"))[0] == 0
    with pytest.raises(AssertionError, match="GroundTruth built"):
        read_split_labels(split, META).ground_truths()


class TestSplitReader:
    def test_one_batch_call_per_split(self, tmp_path, monkeypatch):
        split, _ = faulted_split(tmp_path, 6)
        calls = []
        for name in ("canonical_order", "degenerate_mask"):
            fn = getattr(formats, name)
            monkeypatch.setattr(formats, name, lambda quads, fn=fn, name=name: calls.append(name) or fn(quads))
        labels = read_split_labels(split, META)
        assert sorted(calls) == ["canonical_order", "degenerate_mask"]
        assert labels.classes.size > 60 and labels.degenerate.sum() == 2

    def test_columns_equal_the_file_by_file_reference(self, tmp_path):
        split, _ = faulted_split(tmp_path, 8)
        got_warnings, want_warnings = [], []
        labels = read_split_labels(split, META, warnings=got_warnings)
        gts, stems, n_skipped = read_split_labels_reference(split, META, warnings=want_warnings)
        assert got_warnings == want_warnings
        assert labels.stems == stems and labels.n_skipped == n_skipped == 3
        got = labels.ground_truths()
        assert [(g.frame_id, g.class_id, g.degenerate, g.quad.tobytes()) for g in got] == [
            (g.frame_id, g.class_id, g.degenerate, g.quad.tobytes()) for g in gts
        ]
        by_file = [
            gt for p in sorted((split / "labels").glob("*.txt")) if p.stem in stems for gt in read_label_file(p, META)
        ]
        assert [(g.frame_id, g.quad.tobytes()) for g in by_file] == [(g.frame_id, g.quad.tobytes()) for g in got]

    def test_strict_mode_raises_at_the_first_faulty_file(self, tmp_path):
        split, _ = faulted_split(tmp_path, 9)
        first = sorted((split / "labels").glob("*.txt"))[0]
        with pytest.raises(formats.ParseError, match=rf"^{re.escape(str(first))}: line 2: expected 9 fields, got 1$"):
            read_split_labels(split, META, strict=True)


_CLASS_IDS = st.sampled_from(["0", "2", "+2", "1_0", "\u0663", "\uff12", "7"])  # int() takes each
_ODD_CLASS_IDS = st.sampled_from(["-1", "9223372036854775808", "x", "1.0", "2e0"])
_COORDS = st.one_of(
    st.floats(0.0, 1.0).map(repr), st.sampled_from(["0", "1", "+0.25", "\u0660.\u0665", "\uff11", "-0", "-1e-7", "1.0000005"])
)
_ODD_COORDS = st.sampled_from(["nan", "-inf", "inf", "1e999", "-1e999", "1.1", "-0.5", "0_5", "abc", "0x1"])


@st.composite
def _label_line(draw) -> str:
    """A label line with at most one fault: a bad class id or coordinate, 8 or 10 fields, or none at all (blank)."""
    fields = [draw(_CLASS_IDS), *draw(st.lists(_COORDS, min_size=8, max_size=8))]
    fault = draw(st.sampled_from(["none"] * 6 + ["class", "coord", "coord", "count", "blank"]))
    if fault == "class":
        fields[0] = draw(_ODD_CLASS_IDS)
    elif fault == "coord":
        fields[draw(st.integers(1, 8))] = draw(_ODD_COORDS)
    elif fault == "count":
        fields = fields[:8] if draw(st.booleans()) else [*fields, "0.5"]
    elif fault == "blank":
        fields = [draw(st.sampled_from(["", " ", "\t \u3000"]))]
    return draw(st.sampled_from([" ", "  ", "\t"])).join(fields) + draw(st.sampled_from(["\n", "\r\n", ""]))


_SOURCES = st.lists(st.lists(_label_line(), max_size=6), max_size=5).map(lambda files: list(enumerate(files)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SOURCES, st.sampled_from([None, 3, 8]), st.booleans())
def test_label_columns_equal_the_per_line_check(sources, n_classes, strict):
    records, want_faults = label_columns_reference(sources, n_classes, strict)
    labels, faults = formats._label_columns(sources, ["f"] * len(sources), META, n_classes, strict)
    assert faults == want_faults and labels.n_skipped == len(want_faults)
    assert labels.frames.tolist() == [r[0] for r in records]
    assert labels.classes.tolist() == [r[1] for r in records]
    assert labels.line_nos.tolist() == [r[3] for r in records]
    raw = np.array([r[2] for r in records]).reshape(-1, 4, 2) * (META.width, META.height)
    assert labels.quads.tobytes() == canonical_order(raw).tobytes()
    assert labels.degenerate.tolist() == degenerate_mask(raw).tolist()


def _generated_columns(root: Path, seed: int, n_images: int):
    """A generated split's SplitLabels, its predictions as Detections, and the predictions' columns as evaluate reads them."""
    GEN.gen_labeled_split(root, seed, n_images=n_images)
    labels = read_split_labels(root / "split", META)
    with open(root / "predictions.jsonl", encoding="utf-8") as fh:
        preds = list(iter_detections(fh))
    classes, confs = np.array([p.class_id for p in preds], np.int64), np.array([p.confidence for p in preds], np.float64)
    return labels, preds, ([p.video_id for p in preds], classes, confs, np.stack([p.quad for p in preds]))


@pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 0.75])
def test_split_match_decisions_equal_the_per_frame_reference(tmp_path, iou_threshold):
    labels, preds, columns = _generated_columns(tmp_path, 12, 30)
    want = evaluate_reference(preds, labels.ground_truths(), iou_threshold)
    assert evaluation.evaluate_columns(labels, *columns, iou_threshold=iou_threshold) == want
    assert evaluation.evaluate(preds, labels.ground_truths(), iou_threshold) == want
    assert 0 < want.n_matched < want.n_predictions


@pytest.mark.parametrize("box_mode", ["obb", "hbb"])
def test_matching_memory_is_bounded_by_the_quad_columns(tmp_path, box_mode):
    # no whole-split list of quads: one of the label quads alone is about 9x their array bytes
    labels, _, columns = _generated_columns(tmp_path, 13, 100)
    result, peak = traced_peak(lambda: evaluation.evaluate_columns(labels, *columns, box_mode=box_mode))
    assert result.n_matched > 0
    assert peak < 4 * (columns[3].nbytes + labels.quads.nbytes)


def test_unmatched_ids_named_in_line_order_across_chunks(tmp_path, monkeypatch):
    GEN.gen_labeled_split(tmp_path, 10, n_images=4, gt_per_image=3, preds_per_image=3)
    split, preds = tmp_path / "split", tmp_path / "predictions.jsonl"
    record = json.loads(preds.read_text().splitlines()[0])
    ids = ["x3", "x3", "x1", "x3", "x0", "x2", "x4", "x5", "x1"]
    preds.write_text("".join(json.dumps({**record, "video_id": v}) + "\n" for v in ids))
    monkeypatch.setattr(pipeline, "CHUNK_LINES", 2)
    code, report = run_cli(split_argv("evaluate", split, preds, tmp_path / "out"))
    assert code == 0 and report["counts"]["predictions_unmatched_frame"] == 9
    assert [w for w in report["warnings"] if "match no frame" in w] == [
        "9 predictions match no frame (video_id is not a label stem), counted as false positives: "
        "'x3', 'x1', 'x0', 'x2', 'x4'"
    ]
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert cli.main(split_argv("evaluate", split, preds, tmp_path / "strict", "--strict")) == 2
    assert "prediction video_id 'x3' matches no frame" in stderr.getvalue()


def test_rotated_iou_goes_through_the_module_global(tmp_path, monkeypatch):
    split, preds = faulted_split(tmp_path, 11)
    calls = []
    iou_obb = evaluation.iou_obb
    monkeypatch.setattr(evaluation, "iou_obb", lambda *args: calls.append(1) or iou_obb(*args))
    assert run_cli(split_argv("evaluate", split, preds, tmp_path / "obb"))[0] == 0
    n_obb = len(calls)
    assert run_cli(split_argv("evaluate", split, preds, tmp_path / "hbb", "--box-mode", "hbb"))[0] == 0
    assert n_obb > 0 and len(calls) == n_obb  # HBB mode computes no rotated IoU
