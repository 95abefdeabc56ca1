from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from obbkit import evaluation, geometry
from obbkit.errors import ConfigError, DataError
from obbkit.evaluation import (
    MatchAudit,
    MatchRecord,
    average_precision,
    evaluate,
    iou_threshold_histogram,
    match_frame,
)
from obbkit.formats import Detection, FrameMeta, GroundTruth, iter_detections, read_split_labels
from obbkit.geometry import iou_obb, quad_from_rect
from oracles import brute_force_ap, match_frame_reference, random_convex_quad

BENCH_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def det(video, frame, cls, quad, conf, degenerate=False):
    return Detection(video, frame, cls, np.asarray(quad, float), conf, degenerate)


def gt(frame_id, cls, quad, degenerate=False):
    return GroundTruth(frame_id, cls, np.asarray(quad, float), degenerate)


def rec(conf, tp, cls=0, iou=0.9, frame="f"):
    return MatchRecord(frame, 0, 0 if tp else None, iou if tp else 0.0, tp, cls, conf)


class TestMatchFrame:
    def test_exact_hit(self):
        quad = quad_from_rect(10, 10, 4, 2, 30)
        records = match_frame([det("f", 0, 1, quad, 0.9)], [gt("f", 1, quad)])
        assert len(records) == 1
        assert records[0].tp and records[0].iou == 1.0

    def test_double_match_forbidden(self):
        quad = quad_from_rect(10, 10, 4, 2, 0)
        records = match_frame(
            [det("f", 0, 0, quad, 0.8), det("f", 0, 0, quad, 0.9)],
            [gt("f", 0, quad)],
        )
        by_conf = {r.confidence: r.tp for r in records}
        assert by_conf[0.9] is True
        assert by_conf[0.8] is False

    def test_below_threshold_fp(self):
        a = quad_from_rect(10, 10, 10, 10, 0)
        b = quad_from_rect(14, 10, 10, 10, 0)  # IoU 6/14 ~ 0.43
        records = match_frame([det("f", 0, 0, b, 0.9)], [gt("f", 0, a)], iou_threshold=0.5)
        assert not records[0].tp
        assert records[0].iou == pytest.approx(6.0 / 14.0)

    def test_class_exact_matching(self):
        quad = quad_from_rect(10, 10, 4, 4, 0)
        records = match_frame([det("f", 0, 2, quad, 0.9)], [gt("f", 3, quad)])
        assert not records[0].tp

    def test_claims_highest_iou(self):
        g1 = quad_from_rect(10, 10, 10, 10, 0)
        g2 = quad_from_rect(30, 10, 10, 10, 0)
        pred = quad_from_rect(29, 10, 10, 10, 0)  # overlaps g2 strongly
        records = match_frame([det("f", 0, 0, pred, 0.9)], [gt("f", 0, g1), gt("f", 0, g2)])
        assert records[0].tp and records[0].gt_index == 1

    def test_degenerate_dropped_with_audit(self):
        quad = quad_from_rect(10, 10, 4, 4, 0)
        bad = [[0, 0], [1, 1], [1, 0], [0, 1]]
        audit = MatchAudit()
        records = match_frame(
            [det("f", 0, 0, quad, 0.9), det("f", 0, 0, bad, 0.8, degenerate=True)],
            [gt("f", 0, quad), gt("f", 0, bad, degenerate=True)],
            audit=audit,
        )
        assert len(records) == 1
        assert audit.degenerate_predictions == 1
        assert audit.degenerate_ground_truth == 1

    def test_one_to_one_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            gts = [
                gt("f", 0, quad_from_rect(rng.uniform(10, 90), rng.uniform(10, 90), 8, 6, rng.uniform(0, 180)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            preds = []
            for g in gts:
                for _ in range(int(rng.integers(0, 3))):
                    jitter = rng.uniform(-2, 2, (4, 2))
                    preds.append(det("f", 0, 0, g.quad + jitter, float(rng.uniform(0.1, 1.0))))
            records = match_frame(preds, gts, iou_threshold=0.3)
            claimed = [r.gt_index for r in records if r.tp]
            assert len(claimed) == len(set(claimed))

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            match_frame([], [], iou_threshold=0.0)
        with pytest.raises(ConfigError):
            match_frame([], [], box_mode="square")


class TestAveragePrecision:
    def test_hand_fixture(self):
        records = [rec(0.9, True), rec(0.8, False), rec(0.7, True)]
        ap = average_precision(records, total_gt=2)
        assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-12)

    def test_perfect(self):
        records = [rec(0.9, True), rec(0.8, True)]
        assert average_precision(records, total_gt=2) == 1.0

    def test_no_predictions(self):
        assert average_precision([], total_gt=3) == 0.0

    def test_no_ground_truth_skipped(self):
        assert average_precision([rec(0.9, False)], total_gt=0) is None

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            total_gt = int(rng.integers(1, 5))
            n_preds = int(rng.integers(0, 7))
            n_tp = int(rng.integers(0, min(total_gt, n_preds) + 1))
            flags = [True] * n_tp + [False] * (n_preds - n_tp)
            rng.shuffle(flags)
            confs = rng.uniform(0, 1, n_preds)
            if rng.random() < 0.3 and n_preds >= 2:
                confs[1] = confs[0]  # exercise tie-breaking
            records = [rec(float(c), f) for c, f in zip(confs, flags)]
            expected = brute_force_ap([(float(c), f) for c, f in zip(confs, flags)], total_gt)
            assert average_precision(records, total_gt) == pytest.approx(expected, abs=1e-12)

    def test_11point_variant(self):
        records = [rec(0.9, True), rec(0.8, False), rec(0.7, True)]
        ap11 = average_precision(records, total_gt=2, interpolation="11point")
        # envelope: 1.0 on recalls 0..0.5 (6 points), 2/3 above (5 points)
        assert ap11 == pytest.approx((6 * 1.0 + 5 * (2.0 / 3.0)) / 11.0, abs=1e-12)


class TestIouHistogram:
    def test_all_perfect(self):
        records = [rec(0.9, True, iou=1.0), rec(0.8, True, iou=1.0)]
        hist, n = iou_threshold_histogram(records)
        assert n == 2
        assert all(v == 1.0 for v in hist.values())

    def test_counting_fixture(self):
        records = [rec(0.9, True, iou=0.55), rec(0.8, True, iou=0.75), rec(0.7, True, iou=0.95)]
        hist, n = iou_threshold_histogram(records)
        assert n == 3
        assert hist[0.5] == pytest.approx(1.0)
        assert hist[0.6] == pytest.approx(2.0 / 3.0)
        assert hist[0.7] == pytest.approx(2.0 / 3.0)
        assert hist[0.8] == pytest.approx(1.0 / 3.0)
        assert hist[0.9] == pytest.approx(1.0 / 3.0)

    def test_empty(self):
        hist, n = iou_threshold_histogram([rec(0.9, False)])
        assert n == 0
        assert all(v == 0.0 for v in hist.values())

    def test_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            records = [rec(0.5, True, iou=float(rng.uniform(0.5, 1.0))) for _ in range(int(rng.integers(0, 20)))]
            hist, _ = iou_threshold_histogram(records)
            vals = [hist[t] for t in sorted(hist)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def _toy_instance(rng, n_frames=3, n_classes=2):
    gts, preds = [], []
    for f in range(n_frames):
        frame_id = f"f{f:03d}"
        for _ in range(int(rng.integers(1, 4))):
            cls = int(rng.integers(0, n_classes))
            quad = quad_from_rect(rng.uniform(15, 85), rng.uniform(15, 85), rng.uniform(6, 14), rng.uniform(4, 10), rng.uniform(0, 180))
            gts.append(gt(frame_id, cls, quad))
            if rng.random() < 0.85:
                jitter = rng.uniform(-1.5, 1.5, (4, 2))
                preds.append(det(frame_id, 0, cls, quad + jitter, float(rng.uniform(0.2, 1.0))))
        if rng.random() < 0.5:
            quad = quad_from_rect(rng.uniform(15, 85), rng.uniform(15, 85), 8, 6, rng.uniform(0, 180))
            preds.append(det(frame_id, 0, int(rng.integers(0, n_classes)), quad, float(rng.uniform(0.2, 1.0))))
    return preds, gts


class TestEvaluate:
    def test_single_class_fixture(self):
        # same PR structure as the AP hand fixture, realized geometrically
        g1 = quad_from_rect(20, 20, 10, 6, 0)
        g2 = quad_from_rect(60, 60, 10, 6, 40)
        far = quad_from_rect(40, 80, 10, 6, 90)
        preds = [
            det("f0", 0, 0, g1, 0.9),
            det("f0", 0, 0, far, 0.8),
            det("f1", 0, 0, g2, 0.7),
        ]
        gts = [gt("f0", 0, g1), gt("f1", 0, g2)]
        result = evaluate(preds, gts)
        assert result.map50 == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert result.n_ground_truth == 2

    def test_perfect_predictions(self):
        rng = np.random.default_rng(21)
        preds, gts = [], []
        for f in range(4):
            frame_id = f"f{f}"
            for c in range(3):
                quad = quad_from_rect(rng.uniform(20, 80), rng.uniform(20, 80), 10, 5, rng.uniform(0, 180))
                gts.append(gt(frame_id, c, quad))
                preds.append(det(frame_id, 0, c, quad, 1.0))
        result = evaluate(preds, gts)
        assert result.map50 == 1.0
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert all(v == 1.0 for v in result.iou_histogram.values())

    def test_obb_hbb_identical_on_axis_aligned(self):
        rng = np.random.default_rng(31)
        preds, gts = [], []
        for f in range(3):
            frame_id = f"f{f}"
            for _ in range(3):
                quad = quad_from_rect(rng.uniform(20, 80), rng.uniform(20, 80), rng.uniform(6, 16), rng.uniform(4, 12), 0.0)
                gts.append(gt(frame_id, 0, quad))
                shift = rng.uniform(-2, 2, 2)
                preds.append(det(frame_id, 0, 0, quad + shift, float(rng.uniform(0.3, 1.0))))
        res_obb = evaluate(preds, gts, box_mode="obb")
        res_hbb = evaluate(preds, gts, box_mode="hbb")
        assert res_obb.map50 == pytest.approx(res_hbb.map50, abs=1e-12)
        assert res_obb.precision == pytest.approx(res_hbb.precision, abs=1e-12)
        assert res_obb.recall == pytest.approx(res_hbb.recall, abs=1e-12)
        for t in res_obb.iou_histogram:
            assert res_obb.iou_histogram[t] == pytest.approx(res_hbb.iou_histogram[t], abs=1e-12)

    def test_empty_ground_truth_rejected(self):
        pred = det("f", 0, 0, quad_from_rect(10, 10, 4, 4, 0), 0.9)
        with pytest.raises(DataError):
            evaluate([pred], [])

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            preds, gts = _toy_instance(rng)
            maps = [evaluate(preds, gts, iou_threshold=t).map50 for t in (0.3, 0.5, 0.7, 0.9)]
            assert all(a >= b - 1e-12 for a, b in zip(maps, maps[1:]))

    def test_fixed_operating_point(self):
        records_preds = [
            det("f", 0, 0, quad_from_rect(20, 20, 10, 6, 0), 0.9),
            det("f", 0, 0, quad_from_rect(70, 70, 10, 6, 0), 0.4),
        ]
        gts = [gt("f", 0, quad_from_rect(20, 20, 10, 6, 0)), gt("f", 0, quad_from_rect(40, 40, 10, 6, 0))]
        result = evaluate(records_preds, gts, conf_threshold=0.5)
        assert result.operating_confidence == 0.5
        assert result.precision == 1.0  # only the 0.9 TP survives the cut
        assert result.recall == 0.5

    def test_payload_schema(self):
        quad = quad_from_rect(20, 20, 10, 6, 0)
        result = evaluate([det("f", 0, 0, quad, 1.0)], [gt("f", 0, quad)])
        payload = result.to_payload(names={0: "acme"})
        assert payload["map50"] == 1.0
        assert payload["per_class_ap"] == {"acme": 1.0}
        assert set(payload["iou_histogram"]) == {"0.5", "0.6", "0.7", "0.8", "0.9"}
        assert payload["n_ground_truth"] == 1

    def test_map_sweep_non_increasing(self):
        rng = np.random.default_rng(61)
        preds, gts = _toy_instance(rng)
        vals = [evaluate(preds, gts, iou_threshold=t).map50 for t in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def _bench_gen():
    """The benchmark's input generator module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_matches_reference(preds, gts, modes=("obb", "hbb"), thresholds=(0.3, 0.5, 0.75)):
    for mode in modes:
        for t in thresholds:
            got = match_frame(preds, gts, t, mode, frame_id="f")
            want = match_frame_reference(preds, gts, t, mode, frame_id="f")
            assert got == want, (mode, t)


def _diamond(cx, cy, r):
    return np.array([[cx, cy - r], [cx + r, cy], [cx, cy + r], [cx - r, cy]], float)


class TestRotatedIoUInEitherVertexOrder:
    def test_match_frame_gives_iou_obb_bits(self):
        # the adapters put quads in canonical order once; the per-pair kernel then sees the pair iou_obb orders itself
        rng = np.random.default_rng(31)
        orders = (lambda q: q, lambda q: q[::-1], lambda q: np.roll(q, 1, axis=0), lambda q: np.roll(q[::-1], 2, axis=0))
        for _ in range(60):
            a = random_convex_quad(rng, rng.uniform(100, 200, 2), rng.uniform(5, 40))
            b = random_convex_quad(rng, a.mean(axis=0) + rng.uniform(-20, 20, 2), rng.uniform(5, 40))
            want = iou_obb(a, b)
            for pred_order in orders:
                for gt_order in orders[::2]:
                    [record] = match_frame([det("f", 0, 0, pred_order(a), 0.9)], [gt("f", 0, gt_order(b))], 0.5)
                    assert record.iou == want


class TestPrefilteredMatching:
    """match_frame against the per-pair greedy matcher it replaced, record for record."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_generated_splits(self, tmp_path, monkeypatch, seed):
        gen = _bench_gen()
        gen.gen_labeled_split(tmp_path, seed, n_images=8)
        meta = FrameMeta(width=gen.WIDTH, height=gen.HEIGHT)
        gts = read_split_labels(tmp_path / "split", meta).ground_truths()
        with open(tmp_path / "predictions.jsonl", encoding="utf-8") as fh:
            preds = list(iter_detections(fh))
        calls = {"prefiltered": 0, "reference": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(evaluation, "iou_obb", counted("prefiltered", evaluation.iou_obb))
        monkeypatch.setattr(geometry, "iou_obb", counted("reference", iou_obb))
        frames = sorted({g.frame_id for g in gts})
        assert len(frames) == 8
        for frame in frames:
            _assert_matches_reference(
                [p for p in preds if p.video_id == frame], [g for g in gts if g.frame_id == frame]
            )
        assert 0 < calls["prefiltered"] < calls["reference"]

    @pytest.mark.parametrize("mode", ["obb", "hbb"])
    def test_equal_iou_and_equal_confidence(self, mode):
        g = quad_from_rect(50, 50, 10, 10, 0)
        left, right = quad_from_rect(40, 80, 10, 10, 0), quad_from_rect(50, 80, 10, 10, 0)
        mid = quad_from_rect(45, 80, 10, 10, 0)  # IoU 1/3 with left and with right, exactly
        preds = [det("f", 0, 0, g, 0.7), det("f", 0, 0, g, 0.7), det("f", 0, 0, mid, 0.7)]
        gts = [gt("f", 0, g), gt("f", 0, right), gt("f", 0, left)]
        records = match_frame(preds, gts, 0.3, mode)
        assert [(r.pred_index, r.gt_index, r.tp) for r in records] == [(0, 0, True), (1, None, False), (2, 1, True)]
        assert records[2].iou == 1.0 / 3.0
        _assert_matches_reference(preds, gts, modes=(mode,))

    def test_touching_boxes(self):
        g = [[0, 0], [10, 0], [10, 10], [0, 10]]
        edge = [[10, 0], [20, 0], [20, 10], [10, 10]]
        corner = [[10, 10], [20, 10], [20, 20], [10, 20]]
        preds = [det("f", 0, 0, edge, 0.9), det("f", 0, 0, corner, 0.8)]
        gts = [gt("f", 0, g)]
        for mode in ("obb", "hbb"):
            records = match_frame(preds, gts, 0.5, mode)
            assert [(r.tp, r.iou) for r in records] == [(False, 0.0), (False, 0.0)]
        _assert_matches_reference(preds, gts)

    def test_disjoint_enclosing_boxes(self):
        a = _diamond(10, 10, 5)
        apart = _diamond(21, 10, 5)  # enclosing boxes disjoint
        near = _diamond(18, 18, 5)  # enclosing boxes overlap, diamonds do not
        rot = quad_from_rect(40, 10, 12, 4, 30)
        rot_apart = quad_from_rect(60, 30, 12, 4, 120)
        assert iou_obb(a, apart) == 0.0
        assert iou_obb(a, near) == 0.0
        assert iou_obb(rot, rot_apart) == 0.0
        preds = [det("f", 0, 0, apart, 0.9), det("f", 0, 0, near, 0.8), det("f", 0, 1, rot_apart, 0.7)]
        gts = [gt("f", 0, a), gt("f", 1, rot)]
        assert all(not r.tp and r.iou == 0.0 for r in match_frame(preds, gts))
        _assert_matches_reference(preds, gts)

    def test_toy_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            preds, gts = _toy_instance(rng, n_frames=1, n_classes=2)
            _assert_matches_reference(preds, gts)
