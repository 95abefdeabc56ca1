"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy cases
(the million-sample geometry oracle and the 500k-detection stream) run
here rather than in the unit suites.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import detection_line
from obbkit.cli import main
from obbkit.errors import ParseError
from obbkit.evaluation import average_precision, evaluate
from obbkit.formats import Detection, FrameMeta, parse_detection_chunk, parse_obb_label_line, serialize_obb_label_line
from obbkit.geometry import convex_intersection, iou_obb, polygon_area, quad_from_rect
from obbkit.losses import run_loss_checks
from obbkit.metrics import FrameCoverage, aggregate_brand, frame_coverage
from obbkit.tightness import tightness_ratio, tr_rect_closed_form
from oracles import brute_force_ap, mc_intersection_area, raster_iou

from test_evaluation import _toy_instance


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}{suffix}")


def _random_rect_pair(rng):
    w1, h1 = rng.uniform(8, 60, 2)
    cx1 = rng.uniform(35, 65)
    cy1 = rng.uniform(35, 65)
    a = quad_from_rect(cx1, cy1, w1, h1, rng.uniform(0, 180))
    w2, h2 = rng.uniform(8, 60, 2)
    cx2 = np.clip(cx1 + rng.uniform(-25, 25), 32, 68)
    cy2 = np.clip(cy1 + rng.uniform(-25, 25), 32, 68)
    b = quad_from_rect(cx2, cy2, w2, h2, rng.uniform(0, 180))
    return a, b


def test_criterion_1_geometry_oracle():
    """1,000 random pairs vs a 1e6-sample membership oracle, < 60 s."""
    rng = np.random.default_rng(2024)
    n_samples = 1_000_000
    jitter = rng.random(2 * n_samples)  # reused across pairs; uniform per pair
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a, b = _random_rect_pair(rng)
        inter = polygon_area(convex_intersection(a, b))
        union = polygon_area(a) + polygon_area(b) - inter
        estimate = mc_intersection_area(a, b, n=n_samples, jitter=jitter)
        err = abs(estimate - inter) / union
        worst = max(worst, err)
        assert err < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 1: geometry oracle", f"max normalized error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_rotated_iou_fixtures():
    rng = np.random.default_rng(7)
    for _ in range(20):
        quad = quad_from_rect(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(1, 40), rng.uniform(1, 40), rng.uniform(0, 180))
        assert iou_obb(quad, quad) == 1.0

    unit = quad_from_rect(0.5, 0.5, 1.0, 1.0, 0.0)
    shifted = quad_from_rect(1.0, 0.5, 1.0, 1.0, 0.0)
    assert abs(iou_obb(unit, shifted) - 1.0 / 3.0) < 1e-9

    rotated = quad_from_rect(0.5, 0.5, 1.0, 1.0, 45.0)
    value = iou_obb(unit, rotated)
    assert abs(value - 0.70711) < 1e-4
    oracle = raster_iou(unit, rotated, resolution=3000)
    assert abs(value - oracle) < 1e-4
    _report("criterion 2: rotated IoU fixtures", f"concentric-45 IoU {value:.6f} vs raster {oracle:.6f}")


def test_criterion_3_tightness_closed_form():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10_000):
        w = float(rng.uniform(0.5, 300.0))
        h = float(rng.uniform(0.5, 300.0))
        theta = float(rng.uniform(0.0, 90.0))
        quad = quad_from_rect(float(rng.uniform(-500, 1500)), float(rng.uniform(-500, 1500)), w, h, theta)
        geo = tightness_ratio(quad)
        ref = tr_rect_closed_form(w, h, theta)
        rel = abs(geo - ref) / ref
        worst = max(worst, rel)
        assert rel < 1e-9
    for _ in range(200):
        quad = quad_from_rect(float(rng.uniform(-500, 1500)), float(rng.uniform(-500, 1500)), float(rng.uniform(0.5, 300)), float(rng.uniform(0.5, 300)), 0.0)
        assert tightness_ratio(quad) == 1.0
    assert tightness_ratio(quad_from_rect(12.3, -4.5, 7.0, 7.0, 45.0)) == pytest.approx(0.5, abs=1e-12)
    _report("criterion 3: TR closed form", f"max relative error {worst:.2e} over 10,000 rectangles")


def test_criterion_4_metric_arithmetic():
    meta = FrameMeta(width=100.0, height=100.0, fps=2.0, frame_count=4)

    def cov(frame, c):
        return FrameCoverage(frame_index=frame, brand_id=0, c=c, z=1 if c > 0 else 0, detection_count=1)

    m = aggregate_brand([cov(1, 0.02), cov(2, 0.04)], meta)
    assert m.exposure_s == 1.0
    assert m.avg_cov_present_pct == 3.0
    assert m.avg_cov_overall_pct == 1.5
    assert m.max_cov_pct == 4.0

    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        series_meta = FrameMeta(width=10.0, height=10.0, fps=float(rng.uniform(1, 60)), frame_count=n)
        covs = [cov(f, float(rng.uniform(0, 1))) for f in range(n) if rng.random() < 0.5]
        m = aggregate_brand(covs, series_meta)
        visible = sum(1 for c in covs if c.c > 0)
        lhs = m.avg_cov_overall_pct * n
        rhs = m.avg_cov_present_pct * visible
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    full = quad_from_rect(50, 50, 100, 100, 0)
    det = Detection("v", 0, 0, full, 0.9)
    fc = frame_coverage([det, det, det], meta)
    assert fc.c == 1.0
    _report("criterion 4: metric arithmetic", "fixture exact; identity to 1e-12 on 1,000 series; cap holds")


def test_criterion_5_ap_protocol():
    def rec(conf, tp):
        from obbkit.evaluation import MatchRecord

        return MatchRecord("f", 0, 0 if tp else None, 0.9 if tp else 0.0, tp, 0, conf)

    fixture = [rec(0.9, True), rec(0.8, False), rec(0.7, True)]
    ap = average_precision(fixture, total_gt=2)
    assert abs(ap - 5.0 / 6.0) < 1e-12

    rng = np.random.default_rng(55)
    for _ in range(200):
        total_gt = int(rng.integers(1, 5))
        n_preds = int(rng.integers(0, 7))
        n_tp = int(rng.integers(0, min(total_gt, n_preds) + 1))
        flags = [True] * n_tp + [False] * (n_preds - n_tp)
        rng.shuffle(flags)
        confs = [float(c) for c in rng.uniform(0, 1, n_preds)]
        if n_preds >= 2 and rng.random() < 0.25:
            confs[1] = confs[0]
        records = [rec(c, f) for c, f in zip(confs, flags)]
        expected = brute_force_ap(list(zip(confs, flags)), total_gt)
        assert abs(average_precision(records, total_gt) - expected) <= 1e-12

    for seed in range(20):
        preds, gts = _toy_instance(np.random.default_rng(seed))
        result = evaluate(preds, gts)
        vals = [result.iou_histogram[t] for t in sorted(result.iou_histogram)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    _report("criterion 5: AP protocol", "fixture 0.8333...; 200 oracle instances; histograms monotone")


def test_criterion_6_loss_suite():
    checks = run_loss_checks()
    failed = [c.name for c in checks if not c.passed]
    assert failed == []
    by_name = {c.name: c for c in checks}
    assert abs(by_name["bce_soft(p=0.5, q=0.5)"].actual - 0.6931) < 1e-4
    assert abs(by_name["vfl(p=0.5, y=0)"].actual - 0.1300) < 1e-4
    assert abs(by_name["vfl(p=0.8, y=1, q=0.8)"].actual - 0.4003) < 1e-4
    assert abs(by_name["focal(p=0.9, y=1, gamma=2)"].actual - 0.001054) < 1e-4
    assert by_name["reduction: focal(gamma=0) == one-hot bce"].actual <= 1e-12
    assert by_name["reduction: vfl(y=1, q=1) == -log p"].actual <= 1e-12
    grad = by_name["gradient grid max relative error vs central differences"]
    assert grad.actual < 1e-6
    _report("criterion 6: loss suite", f"gradient grid max relative error {grad.actual:.2e}")


def test_criterion_7_format_round_trip():
    meta = FrameMeta(width=1280.0, height=720.0)
    rng = np.random.default_rng(77)
    for i in range(10_000):
        cx, cy = rng.uniform(0.2, 0.8, 2)
        w, h = rng.uniform(0.02, 0.18, 2)
        theta = rng.uniform(0, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        dx = np.array([-1.0, 1.0, 1.0, -1.0]) * (w / 2)
        dy = np.array([-1.0, -1.0, 1.0, 1.0]) * (h / 2)
        quad = np.stack([cx + dx * c - dy * s, cy + dx * s + dy * c], axis=1)
        line = f"{int(rng.integers(0, 670))} " + " ".join(format(v, ".9g") for v in quad.reshape(-1))
        gt1 = parse_obb_label_line(line, meta)
        line2 = serialize_obb_label_line(gt1, meta)
        gt2 = parse_obb_label_line(line2, meta)
        assert gt1.class_id == gt2.class_id
        assert gt1.quad.tolist() == gt2.quad.tolist()  # bit-identical
        assert serialize_obb_label_line(gt2, meta) == line2

    ok_quad = quad_from_rect(50, 50, 10, 6, 15)
    label_cases = [
        ("0 0.1 0.1 0.2", "expected 9 fields"),
        ("0 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2 0.3", "expected 9 fields"),
        ("x 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "class id must be an integer"),
        ("3.5 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "class id must be an integer"),
        ("-1 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "class id must be non-negative"),
        ("99 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "unknown class id"),
        ("0 a 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "non-numeric token"),
        ("0 0,5 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "non-numeric token"),
        ("0 nan 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "non-finite coordinate"),
        ("0 inf 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "non-finite coordinate"),
        ("0 -inf 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "non-finite coordinate"),
        ("0 1.5 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "outside [0, 1]"),
        ("0 -0.2 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "outside [0, 1]"),
        ("0 1.000002 0.1 0.2 0.1 0.2 0.2 0.1 0.2", "outside [0, 1]"),
    ]
    for line, expected in label_cases:
        with pytest.raises(ParseError) as err:
            parse_obb_label_line(line, meta, n_classes=5)
        assert expected in str(err.value), line

    det_cases = [
        ("{broken", "invalid JSON"),
        (json.dumps({"video_id": "v", "frame": 0, "class": 0, "poly": [[0, 0], [1, 0], [1, 1], [0, 1]]}), "missing field 'conf'"),
        (detection_line("v", 0, 0, ok_quad, 1.7), "out of range"),
        (detection_line("v", 0, 0, ok_quad, -0.1), "out of range"),
        (json.dumps({"video_id": "v", "frame": 0, "class": 0, "poly": [[0, 0], [1, 0], [1, 1]], "conf": 0.5}), "expected 4 vertices"),
        (json.dumps({"video_id": "v", "frame": -1, "class": 0, "poly": [[0, 0], [1, 0], [1, 1], [0, 1]], "conf": 0.5}), "non-negative integer"),
    ]
    for line, expected in det_cases:
        with pytest.raises(ParseError) as err:
            parse_detection_chunk([line], 1, strict=True)
        assert expected in str(err.value), line

    assert len(label_cases) + len(det_cases) == 20
    _report("criterion 7: format round trip", "10,000 lines bit-identical; 20 malformed cases classified")


def _run_analyze(stream: Path, info: dict, out: Path, jobs: int) -> float:
    meta = out.parent / "meta.json"
    meta.write_text(
        json.dumps(
            {
                "video_id": "synthetic",
                "width": info["width"],
                "height": info["height"],
                "fps": info["fps"],
                "frame_count": info["n_frames"],
            }
        )
    )
    t0 = time.perf_counter()
    code = main(
        [
            "analyze",
            "--detections",
            str(stream),
            "--meta",
            str(meta),
            "--out",
            str(out),
            "--jobs",
            str(jobs),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    return elapsed


def test_criterion_8_determinism_under_parallelism(synthetic_stream, tmp_path, capsys):
    stream, info = synthetic_stream
    out1 = tmp_path / "jobs1"
    out8 = tmp_path / "jobs8"
    _run_analyze(stream, info, out1, jobs=1)
    _run_analyze(stream, info, out8, jobs=8)
    capsys.readouterr()  # swallow the run-report JSON
    for name in ("brand_metrics.csv", "timeline.csv", "ranking.csv"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
    r1 = json.loads((out1 / "run_report.json").read_text())
    r8 = json.loads((out8 / "run_report.json").read_text())
    # everything except wall-clock duration and the echoed paths/job count
    for key in ("counts", "warnings", "summary"):
        assert r1[key] == r8[key], key
    _report("criterion 8: determinism under parallelism", "3 payload files byte-identical at jobs 1 vs 8")


def test_criterion_9_throughput(synthetic_stream, tmp_path, capsys):
    stream, info = synthetic_stream
    out = tmp_path / "timed"
    elapsed = _run_analyze(stream, info, out, jobs=2)
    capsys.readouterr()
    rate = info["n_detections"] / elapsed
    assert elapsed < 10.0, f"analyze took {elapsed:.1f}s"
    assert rate >= 50_000.0
    _report("criterion 9: throughput", f"{info['n_detections']:,} detections in {elapsed:.2f}s = {rate:,.0f}/s")
