"""Every report's bytes, pinned: sha256 digests of a seeded command matrix against ``report_digests.json``.

The matrix runs ``analyze`` (csv and json, the temporal filter, a class
map), ``evaluate`` (obb and hbb, a fixed confidence threshold, 11-point
AP), ``fit`` (both bin widths) and ``losscheck`` on inputs made in a tmp
directory by ``conftest.make_synthetic_stream`` and by the benchmark's
generators (``perfbench/gen.py``, imported read-only, at test sizes).
Each case records its exit code, the digest of every report file and the
digest of ``run_report.json``'s counts, warnings and summary, with the
tmp directory replaced by a fixed token.

A change that moves report bits on purpose rewrites the file with::

    OBBKIT_REGEN_DIGESTS=1 PYTHONPATH=src python -m pytest tests/test_report_digests.py

and names each moved report in CHANGES.md; the file's diff shows which
ones moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import make_synthetic_stream
from obbkit import pipeline
from obbkit.cli import main

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
TMP_TOKEN = "<tmp>"
SEED = 1234

CASES = {
    "analyze-dense-csv": ["analyze", "--detections", "{dense}", "--meta", "{dense_meta}", "--jobs", "1"],
    "analyze-dense-json-classes": [
        "analyze", "--detections", "{dense}", "--meta", "{dense_meta}", "--classes", "{classes}",
        "--format", "json", "--conf-threshold", "0.3", "--top-k", "3", "--jobs", "1",
    ],
    "analyze-sparse-csv-filter": [
        "analyze", "--detections", "{sparse}", "--meta", "{sparse_meta}", "--min-run", "3", "--max-gap", "2", "--jobs", "1",
    ],
    "analyze-sparse-json-filter-classes": [
        "analyze", "--detections", "{sparse}", "--meta", "{sparse_meta}", "--classes", "{classes}",
        "--format", "json", "--min-run", "2", "--max-gap", "4", "--jobs", "1",
    ],
    "analyze-sparse-inferred-frames": ["analyze", "--detections", "{sparse}", "--width", "1280", "--height", "720", "--jobs", "1"],
    "evaluate-obb-csv": ["evaluate", "--labels", "{split}", "--detections", "{preds}", "--width", "1280", "--height", "720"],
    "evaluate-hbb-json-11point": [
        "evaluate", "--labels", "{split}", "--detections", "{preds}", "--width", "1280", "--height", "720",
        "--box-mode", "hbb", "--format", "json", "--interpolation", "11point",
    ],
    "evaluate-obb-json-conf-classes": [
        "evaluate", "--labels", "{split}", "--detections", "{preds}", "--width", "1280", "--height", "720",
        "--conf-threshold", "0.5", "--format", "json", "--classes", "{classes}",
    ],
    "evaluate-hbb-csv-conf-11point": [
        "evaluate", "--labels", "{split}", "--detections", "{preds}", "--width", "1280", "--height", "720",
        "--box-mode", "hbb", "--conf-threshold", "0.4", "--interpolation", "11point",
    ],
    "fit-csv-both-widths": ["fit", "--labels", "{split}", "--detections", "{preds}", "--width", "1280", "--height", "720"],
    "fit-json-both-widths": [
        "fit", "--labels", "{split}", "--detections", "{preds}", "--width", "1280", "--height", "720", "--format", "json",
    ],
    "fit-sparse-predictions-bw5": ["fit", "--detections", "{sparse}", "--bin-width", "5"],
    "losscheck": ["losscheck"],
}  # fmt: skip


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """The matrix's input files, made from fixed seeds."""
    root = tmp_path_factory.mktemp("digest-inputs")
    spec = importlib.util.spec_from_file_location("obbkit_perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    info = make_synthetic_stream(root / "dense.jsonl", 40, 10, SEED)
    (root / "dense_meta.json").write_text(
        json.dumps({"video_id": "synthetic", "width": info["width"], "height": info["height"], "fps": info["fps"],
                    "frame_count": info["n_frames"]})  # fmt: skip
    )
    for name in ("sparse", "split"):
        (root / name).mkdir()
    gen.gen_sparse_long(root / "sparse", SEED, n_frames=5_000, n_brands=8, bursts_per_brand=10, mean_run=20.0)
    gen.gen_labeled_split(root / "split", SEED, n_images=12, gt_per_image=5, preds_per_image=10)
    (root / "classes.txt").write_text("".join(f"brand{i:02d}\n" for i in range(gen.N_CLASSES)))
    return {
        "root": root,
        "dense": root / "dense.jsonl",
        "dense_meta": root / "dense_meta.json",
        "sparse": root / "sparse" / "detections.jsonl",
        "sparse_meta": root / "sparse" / "meta.json",
        "split": root / "split" / "split",
        "preds": root / "split" / "predictions.jsonl",
        "classes": root / "classes.txt",
    }


def run_case(inputs: dict[str, Path], case: str, out: Path) -> dict:
    """Exit code, report-file digests and the run report's digest of one matrix case, run in-process."""
    argv = [arg.format(**inputs) for arg in CASES[case]] + ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    audited = json.dumps({k: report[k] for k in ("counts", "warnings", "summary")}, sort_keys=True)
    return {
        "exit": code,
        "files": {Path(p).name: _sha256(Path(p).read_bytes()) for p in report["outputs"]},
        "run_report": _sha256(audited.replace(str(inputs["root"]), TMP_TOKEN).encode("utf-8")),
    }


@pytest.fixture(scope="module")
def digests(inputs) -> dict:
    got = {case: run_case(inputs, case, inputs["root"] / "out" / case) for case in CASES}
    if os.environ.get("OBBKIT_REGEN_DIGESTS") == "1":
        DIGESTS.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return got


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_inputs_hold_malformed_and_nan_lines(inputs):
    text = inputs["sparse"].read_text(encoding="utf-8")
    assert "NaN" in text
    assert sum(1 for line in text.splitlines() if not line.endswith("}")) > 0  # truncated lines


def test_matrix_is_pinned(digests, pinned):
    assert sorted(digests) == sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes(digests, pinned, case):
    assert digests[case] == pinned[case]


def _nudged(rows, fieldnames: list[str]):
    """``rows`` (row dicts or columns) with its first float cell moved up by one ulp."""
    if isinstance(rows, dict):
        for name in fieldnames:
            col = np.asarray(rows[name])
            if col.dtype.kind == "f" and col.size:
                col = col.copy()
                col[0] = np.nextafter(col[0], np.inf)
                return {**rows, name: col}
    for i, row in enumerate(rows):
        for name in fieldnames:
            if isinstance(row.get(name), float) and math.isfinite(row[name]):
                return [*rows[:i], {**row, name: math.nextafter(row[name], math.inf)}, *rows[i + 1 :]]
    raise AssertionError("no float cell to nudge")


@pytest.mark.parametrize(
    "case, report",
    [
        ("analyze-dense-csv", "brand_metrics.csv"),
        ("analyze-sparse-json-filter-classes", "timeline.json"),
        ("evaluate-obb-csv", "eval.csv"),
        ("fit-csv-both-widths", "tr_gap_bw5.csv"),
    ],
)
def test_one_ulp_in_one_report_value_fails_it(inputs, pinned, monkeypatch, tmp_path, case, report):
    real = pipeline.write_table

    def write_nudged(path, fieldnames, rows, fmt):
        if Path(path).name == report:
            rows = _nudged(rows, fieldnames)
        real(path, fieldnames, rows, fmt)

    monkeypatch.setattr(pipeline, "write_table", write_nudged)
    got = run_case(inputs, case, tmp_path / "out")
    assert got["files"][report] != pinned[case]["files"][report]
    assert {k: v for k, v in got["files"].items() if k != report} == {
        k: v for k, v in pinned[case]["files"].items() if k != report
    }
