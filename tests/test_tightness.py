from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit.errors import ConfigError, GeometryError
from obbkit.geometry import obb_orientation_deg, quad_from_rect
from oracles import random_convex_quad, tr_sample_reference
from obbkit.tightness import (
    TRSample,
    bin_by_orientation,
    compare_gt_pred_tr,
    tightness_ratio,
    tr_rect_closed_form,
    tr_sample,
)


def sample(tr, deg, source="ground_truth", cls=0):
    return TRSample(source=source, tr=tr, orientation_deg=deg, class_id=cls)


class TestTightnessRatio:
    def test_axis_aligned_exactly_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            quad = quad_from_rect(
                float(rng.uniform(-500, 1500)),
                float(rng.uniform(-500, 1500)),
                float(rng.uniform(0.5, 300)),
                float(rng.uniform(0.5, 300)),
                0.0,
            )
            assert tightness_ratio(quad) == 1.0

    def test_square_45(self):
        assert tightness_ratio(quad_from_rect(3, 7, 1, 1, 45)) == pytest.approx(0.5, rel=1e-12)

    def test_two_by_one_45(self):
        assert tightness_ratio(quad_from_rect(0, 0, 2, 1, 45)) == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            tightness_ratio([[0, 0], [1, 0], [2, 0], [3, 0]])

    def test_bounds_and_rotated_below_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            theta = float(rng.uniform(0.001, 89.999))
            quad = quad_from_rect(0, 0, float(rng.uniform(1, 50)), float(rng.uniform(1, 50)), theta)
            tr = tightness_ratio(quad)
            assert 0.0 < tr <= 1.0
            if 1e-5 < theta < 90 - 1e-5:
                assert tr < 1.0

    @given(
        st.floats(0.5, 200.0),
        st.floats(0.5, 200.0),
        st.floats(0.0, 90.0),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=150)
    def test_scale_invariance(self, w, h, theta, scale):
        base = tightness_ratio(quad_from_rect(0, 0, w, h, theta))
        scaled = tightness_ratio(quad_from_rect(0, 0, w * scale, h * scale, theta))
        assert scaled == pytest.approx(base, rel=1e-12)


class TestClosedForm:
    def test_theta_zero(self):
        assert tr_rect_closed_form(3.0, 2.0, 0.0) == 1.0

    def test_square_45(self):
        assert tr_rect_closed_form(1.0, 1.0, 45.0) == pytest.approx(0.5, rel=1e-12)

    def test_two_one_45(self):
        assert tr_rect_closed_form(2.0, 1.0, 45.0) == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_agrees_with_polygon_route(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            w = float(rng.uniform(0.5, 300))
            h = float(rng.uniform(0.5, 300))
            theta = float(rng.uniform(0.0, 90.0))
            geo = tightness_ratio(quad_from_rect(float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)), w, h, theta))
            assert geo == pytest.approx(tr_rect_closed_form(w, h, theta), rel=1e-9)

    def test_minimum_at_45(self):
        rng = np.random.default_rng(13)
        thetas = np.arange(0.0, 90.0 + 1e-9, 0.1)
        for _ in range(20):
            w = float(rng.uniform(0.5, 100))
            h = float(rng.uniform(0.5, 100))
            vals = [tr_rect_closed_form(w, h, float(t)) for t in thetas]
            assert thetas[int(np.argmin(vals))] == pytest.approx(45.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            tr_rect_closed_form(0.0, 1.0, 10.0)
        with pytest.raises(ConfigError):
            tr_rect_closed_form(1.0, 1.0, 91.0)


class TestBinning:
    def test_single_occupied_bin(self):
        stats = bin_by_orientation([sample(1.0, 0.0), sample(1.0, 3.0)], 15.0)
        assert len(stats) == 6
        assert stats[0].n == 2 and stats[0].mean_tr == 1.0
        assert all(s.n == 0 and s.mean_tr is None for s in stats[1:])

    def test_ci_formula(self):
        stats = bin_by_orientation([sample(0.4, 20.0), sample(0.6, 22.0)], 15.0)
        target = stats[1]
        assert target.n == 2
        assert target.mean_tr == pytest.approx(0.5)
        s = np.std([0.4, 0.6], ddof=1)
        assert target.ci95_half_width == pytest.approx(1.96 * s / np.sqrt(2), rel=1e-12)
        assert target.ci95_half_width == pytest.approx(0.196, abs=5e-4)

    def test_singleton_bin_reports_no_ci(self):
        stats = bin_by_orientation([sample(0.7, 50.0)], 15.0)
        assert stats[3].n == 1
        assert stats[3].mean_tr == 0.7
        assert stats[3].ci95_half_width is None

    def test_ninety_in_last_bin(self):
        stats = bin_by_orientation([sample(0.9, 90.0)], 15.0)
        assert stats[-1].n == 1

    def test_five_degree_bins(self):
        stats = bin_by_orientation([sample(0.5, 47.0)], 5.0)
        assert len(stats) == 18
        assert stats[9].n == 1  # [45, 50)

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            bin_by_orientation([], 7.0)


class TestCompare:
    def test_identical_zero_gap(self):
        samples = [sample(0.5 + 0.01 * i, 10.0 * (i % 9), "ground_truth") for i in range(30)]
        preds = [TRSample("prediction", s.tr, s.orientation_deg, s.class_id) for s in samples]
        rows, overall = compare_gt_pred_tr(samples, preds, 15.0)
        occupied = [r for r in rows if r["gt_n"] > 0]
        assert occupied and all(r["abs_gap"] == 0.0 for r in occupied)
        assert overall == 0.0

    def test_constant_shift(self):
        gt = [sample(0.5, d) for d in (5.0, 20.0, 40.0, 55.0, 70.0, 88.0)]
        pred = [TRSample("prediction", 0.55, s.orientation_deg, 0) for s in gt]
        rows, overall = compare_gt_pred_tr(gt, pred, 15.0)
        gaps = [r["abs_gap"] for r in rows if r["abs_gap"] is not None]
        assert len(gaps) == 6
        assert all(g == pytest.approx(0.05, abs=1e-12) for g in gaps)
        assert overall == pytest.approx(0.05, abs=1e-12)

    def test_disjoint_bins_skipped(self):
        gt = [sample(0.5, 5.0)]
        pred = [TRSample("prediction", 0.6, 50.0, 0)]
        rows, overall = compare_gt_pred_tr(gt, pred, 15.0)
        assert all(r["abs_gap"] is None for r in rows)
        assert overall is None


class TestTrSample:
    def test_from_quad(self):
        quad = quad_from_rect(10, 10, 2, 1, 30)
        trs, angles = tr_sample(quad[None])
        assert (trs.dtype, angles.dtype, trs.shape, angles.shape) == (np.float64, np.float64, (1,), (1,))
        assert angles[0] == pytest.approx(30.0, abs=1e-9)
        assert trs[0] == pytest.approx(tr_rect_closed_form(2, 1, 30), rel=1e-12)
        assert (trs[0], angles[0]) == (tightness_ratio(quad), obb_orientation_deg(quad))

    def test_one_quad_is_no_batch(self):
        with pytest.raises(GeometryError, match=r"got shape \(4, 2\)"):
            tr_sample(quad_from_rect(10, 10, 2, 1, 30))


def _quad_mix(rng) -> tuple[np.ndarray, int]:
    """2,000 quads: 500 axis-aligned, 500 rectangles at 45 degrees, 500 squares, 500 random convex."""
    quads = []
    for i in range(2000):
        cx, cy = rng.uniform(-200, 1500, 2)
        w, h = rng.uniform(0.5, 300, 2)
        if i < 500:
            quads.append(quad_from_rect(cx, cy, w, h, 0.0))  # exactly axis-aligned; h > w gives 90 degrees
        elif i < 1000:
            quads.append(quad_from_rect(cx, cy, w, h, 45.0))
        elif i < 1500:
            quads.append(quad_from_rect(cx, cy, w, w, float(rng.uniform(0, 180))))
        else:
            quads.append(random_convex_quad(rng, (cx, cy), w))
    return np.stack(quads), 500


class TestBatchTrSample:
    def test_batch_equals_one_quad_route(self):
        rng = np.random.default_rng(17)
        quads, block = _quad_mix(rng)
        trs, angles = tr_sample(quads)
        assert (trs.dtype, angles.dtype, trs.shape, angles.shape) == (np.float64, np.float64, (2000,), (2000,))
        assert trs.tolist() == [tightness_ratio(q) for q in quads]
        assert angles.tolist() == [obb_orientation_deg(q) for q in quads]
        assert (trs[:block] == 1.0).all()
        assert np.isin(angles[:block], (0.0, 90.0)).all()
        assert angles[block : 2 * block] == pytest.approx(np.full(block, 45.0), abs=1e-9)

    def test_against_scalar_reference(self):
        rng = np.random.default_rng(19)
        quads, _ = _quad_mix(rng)
        for tr, angle, q in zip(*tr_sample(quads), quads):
            want_tr, want_angle = tr_sample_reference(q)
            assert tr == pytest.approx(want_tr, rel=1e-12, abs=0.0)
            assert angle == pytest.approx(want_angle, rel=0.0, abs=1e-9)

    def test_empty_and_invalid_batches(self):
        trs, angles = tr_sample(np.zeros((0, 4, 2)))
        assert (trs.dtype, angles.dtype, trs.shape, angles.shape) == (np.float64, np.float64, (0,), (0,))
        bowtie = [[0, 0], [1, 1], [1, 0], [0, 1]]
        good = quad_from_rect(5, 5, 2, 1, 10)
        with pytest.raises(GeometryError):
            tr_sample(np.stack([good, bowtie]))
        with pytest.raises(GeometryError):
            tr_sample(np.zeros((2, 3, 2)))
        with pytest.raises(GeometryError):
            tr_sample(np.stack([good, good * np.nan]))
