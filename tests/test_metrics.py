from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit.cli import main
from obbkit.errors import ConfigError
from conftest import read_table_csv, traced_peak
from obbkit.formats import Detection, FrameMeta, iter_detections
from obbkit.geometry import quad_from_rect
from obbkit.metrics import (
    BrandMetrics,
    CoverageColumns,
    FrameCoverage,
    aggregate_brand,
    aggregate_columns,
    build_timeline,
    coverage_columns,
    frame_coverage,
    metrics_rows,
    reduce_coverage,
    temporal_filter,
)
from conftest import detection_line
from oracles import aggregate_brand_reference, build_timeline_reference, reduce_coverage_reference, temporal_filter_reference

META = FrameMeta(width=100.0, height=100.0, fps=2.0, frame_count=4)


def det(brand, frame, quad, conf=0.9):
    return Detection(video_id="v", frame_index=frame, class_id=brand, quad=np.asarray(quad, float), confidence=conf)


def cov(frame, brand, c, count=1):
    return FrameCoverage(frame_index=frame, brand_id=brand, c=c, z=1 if c > 0 else 0, detection_count=count)


class TestFrameCoverage:
    def test_empty(self):
        fc = frame_coverage([], META)
        assert (fc.c, fc.z, fc.detection_count) == (0.0, 0, 0)

    def test_small_square(self):
        fc = frame_coverage([det(3, 1, quad_from_rect(50, 50, 10, 10, 0))], META)
        assert fc.c == pytest.approx(0.01, rel=1e-12)
        assert fc.z == 1
        assert fc.brand_id == 3 and fc.frame_index == 1

    def test_overlapping_full_frames_capped(self):
        full = quad_from_rect(50, 50, 100, 100, 0)
        fc = frame_coverage([det(0, 0, full), det(0, 0, full)], META)
        assert fc.c == 1.0
        assert fc.detection_count == 2

    def test_clipping_applied(self):
        # half of a 10x10 square hangs outside the frame
        fc = frame_coverage([det(0, 0, quad_from_rect(0, 50, 10, 10, 0))], META)
        assert fc.c == pytest.approx(0.005, rel=1e-12)

    def test_mixed_brands_rejected(self):
        with pytest.raises(ValueError):
            frame_coverage(
                [det(0, 0, quad_from_rect(5, 5, 2, 2, 0)), det(1, 0, quad_from_rect(5, 5, 2, 2, 0))],
                META,
            )

    def test_bits_equal_the_analyze_timeline(self, tmp_path):
        """Each (brand, frame) group of the parsed records of a stream gives the coverage cell analyze writes, bit for bit.

        The stream's quads start at any vertex; the parser puts them in
        canonical order for analyze and iter_detections alike.
        """
        rng = np.random.default_rng(21)
        lines = []
        for frame in range(400):
            for brand in range(2):
                for _ in range(int(rng.integers(3, 8))):
                    cx, cy = rng.uniform(-60.0, 1340.0), rng.uniform(-40.0, 760.0)  # some boxes cross the edge
                    quad = quad_from_rect(cx, cy, rng.uniform(8.0, 300.0), rng.uniform(6.0, 200.0), rng.uniform(0, 180))
                    lines.append(detection_line("v", frame, brand, quad, 0.9))
        stream = tmp_path / "stream.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        argv = ["analyze", "--detections", str(stream), "--width", "1280", "--height", "720", "--jobs", "1"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        _, rows = read_table_csv(tmp_path / "out" / "timeline.csv")
        written = {(int(r["brand_id"]), int(r["frame_index"])): float(r["coverage"]).hex() for r in rows}

        groups: dict[tuple[int, int], list[Detection]] = {}
        for d in iter_detections(lines):
            groups.setdefault((d.class_id, d.frame_index), []).append(d)
        meta = FrameMeta(width=1280.0, height=720.0)
        assert len(written) == len(groups) == 800
        assert {key: frame_coverage(dets, meta).c.hex() for key, dets in groups.items()} == written


class TestAggregateBrand:
    def test_four_frame_fixture(self):
        coverages = [cov(1, 7, 0.02), cov(2, 7, 0.04)]
        m = aggregate_brand(coverages, META)
        assert m.exposure_s == 1.0
        assert m.avg_cov_present_pct == 3.0
        assert m.avg_cov_overall_pct == 1.5
        assert m.max_cov_pct == 4.0
        assert m.detection_count == 2
        assert m.frames_visible == 2

    def test_never_visible(self):
        m = aggregate_brand([], META)
        assert m == BrandMetrics(0, 0.0, 0.0, 0.0, 0.0, 0, 0)

    def test_saturated(self):
        coverages = [cov(i, 1, 1.0) for i in range(4)]
        m = aggregate_brand(coverages, META)
        assert m.exposure_s == pytest.approx(4 / 2.0)
        assert m.avg_cov_present_pct == 100.0
        assert m.avg_cov_overall_pct == 100.0
        assert m.max_cov_pct == 100.0

    def test_mixed_brands_rejected(self):
        with pytest.raises(ValueError, match="one brand"):
            aggregate_brand([cov(0, 0, 0.5), cov(1, 1, 0.25)], META)

    def test_equals_the_reference_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            meta = FrameMeta(width=10, height=10, fps=float(rng.uniform(1, 60)), frame_count=n)
            frames = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
            covs = [cov(f, 4, float(rng.choice([0.0, rng.uniform(0, 1)])), int(rng.integers(0, 4))) for f in frames]
            assert aggregate_brand(covs, meta) == aggregate_brand_reference(covs, meta)

    def test_requires_frame_count(self):
        with pytest.raises(ConfigError):
            aggregate_brand([cov(0, 0, 0.5)], FrameMeta(width=10, height=10, fps=1.0, frame_count=0))

    def test_consistency_identity(self):
        # overall * N == present * sum(z), from the defining ratios
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            meta = FrameMeta(width=10, height=10, fps=float(rng.uniform(1, 60)), frame_count=n)
            covs = []
            for f in range(n):
                if rng.random() < 0.6:
                    covs.append(cov(f, 0, float(rng.uniform(0, 1))))
            m = aggregate_brand(covs, meta)
            visible = sum(1 for c in covs if c.c > 0)
            lhs = m.avg_cov_overall_pct * n
            rhs = m.avg_cov_present_pct * visible
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_exposure_additive_over_disjoint_ranges(self):
        rng = np.random.default_rng(9)
        meta = FrameMeta(width=10, height=10, fps=3.0, frame_count=100)
        first = [cov(f, 0, float(rng.uniform(0.1, 1))) for f in range(0, 40, 2)]
        second = [cov(f, 0, float(rng.uniform(0.1, 1))) for f in range(41, 100, 3)]
        e_first = aggregate_brand(first, meta).exposure_s
        e_second = aggregate_brand(second, meta).exposure_s
        e_joint = aggregate_brand(first + second, meta).exposure_s
        assert e_joint == e_first + e_second

    def test_order_independent(self):
        rng = np.random.default_rng(10)
        covs = [cov(f, 0, float(rng.uniform(0, 1))) for f in range(50)]
        meta = FrameMeta(width=10, height=10, fps=7.0, frame_count=50)
        a = aggregate_brand(covs, meta)
        b = aggregate_brand(list(reversed(covs)), meta)
        assert a == b  # fsum reductions are exactly rounded

    def test_columns_memory_bounded_by_one_brand(self):
        n = 200_000
        rng = np.random.default_rng(13)
        c = rng.random(n) * (rng.random(n) < 0.7)
        cov = CoverageColumns(np.sort(rng.integers(0, 64, n)), np.arange(n), c, c > 0, rng.integers(1, 4, n))
        meta = FrameMeta(width=10, height=10, fps=25.0, frame_count=n)
        got, peak = traced_peak(lambda: aggregate_columns(cov, meta))
        assert [m.brand_id for m in got] == list(range(64))
        assert sum(m.detection_count for m in got) == int(cov.counts.sum())
        assert peak < 2 * 2**20  # lists of the whole c and c*z columns take about 14 MiB


class TestTemporalFilter:
    def test_defaults_identity(self):
        z = [1, 0, 1, 1, 0, 0, 1]
        assert temporal_filter(z).tolist() == z

    def test_gap_bridging(self):
        assert temporal_filter([1, 0, 1], max_gap=1).tolist() == [1, 1, 1]
        assert temporal_filter([1, 0, 0, 1], max_gap=1).tolist() == [1, 0, 0, 1]

    def test_run_suppression(self):
        assert temporal_filter([0, 1, 0], min_run=2).tolist() == [0, 0, 0]
        assert temporal_filter([0, 1, 1, 0], min_run=2).tolist() == [0, 1, 1, 0]

    def test_bridge_before_suppress(self):
        # two 1-frame bursts across a bridged gap form one 3-frame run
        assert temporal_filter([1, 0, 1], min_run=3, max_gap=1).tolist() == [1, 1, 1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            temporal_filter([1], min_run=0)
        with pytest.raises(ConfigError):
            temporal_filter([1], max_gap=-1)

    @given(st.lists(st.integers(0, 1), max_size=60), st.integers(1, 5), st.integers(0, 5))
    @settings(max_examples=300)
    def test_equals_the_reference_loop(self, z, min_run, max_gap):
        got = temporal_filter(z, min_run=min_run, max_gap=max_gap)
        assert got.dtype == np.int8
        assert got.tolist() == temporal_filter_reference(z, min_run=min_run, max_gap=max_gap).tolist()

    @given(st.lists(st.integers(0, 1), max_size=60), st.integers(1, 5))
    @settings(max_examples=150)
    def test_suppression_never_increases(self, z, min_run):
        out = temporal_filter(z, min_run=min_run, max_gap=0)
        assert int(out.sum()) <= sum(z)

    @given(st.lists(st.integers(0, 1), max_size=60), st.integers(0, 5))
    @settings(max_examples=150)
    def test_bridging_never_decreases(self, z, max_gap):
        out = temporal_filter(z, min_run=1, max_gap=max_gap)
        assert int(out.sum()) >= sum(z)
        # existing visibility is preserved
        assert all(o >= zi for o, zi in zip(out.tolist(), z))


class TestTimeline:
    META10 = FrameMeta(width=10, height=10, fps=5.0, frame_count=10)

    def test_top_k(self):
        covs = [cov(0, 1, 0.5), cov(1, 1, 0.5), cov(0, 2, 0.5), cov(0, 3, 0.1)]
        tl = build_timeline(covs, 2, self.META10)
        assert len(tl.ranking) == 2
        assert tl.ranking[0][0] == 1  # two visible frames
        assert tl.ranking[0][1] == pytest.approx(0.4)

    def test_tie_breaks_by_brand_id(self):
        covs = [cov(0, 5, 0.5), cov(0, 2, 0.5)]
        tl = build_timeline(covs, 2, self.META10)
        assert [b for b, _ in tl.ranking] == [2, 5]

    def test_k_clamped(self):
        covs = [cov(0, 1, 0.5)]
        tl = build_timeline(covs, 10, self.META10)
        assert len(tl.ranking) == 1

    def test_series_sorted(self):
        covs = [cov(5, 1, 0.2), cov(1, 1, 0.3), cov(3, 1, 0.1)]
        tl = build_timeline(covs, 1, self.META10)
        assert [f for f, _ in tl.series[1]] == [1, 3, 5]

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            build_timeline([], 0, self.META10)

    def test_equals_the_reference_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            covs = [cov(int(f), int(b), float(rng.choice([0.0, rng.random()]))) for f, b in rng.integers(0, 6, (30, 2))]
            k = int(rng.integers(1, 8))
            assert build_timeline(covs, k, self.META10) == build_timeline_reference(covs, k, self.META10)


class TestMetricsRows:
    def test_ordering(self):
        rows = metrics_rows(
            [
                BrandMetrics(2, 1.0, 5.0, 1.0, 9.0, 4, 2),
                BrandMetrics(1, 2.0, 5.0, 1.0, 9.0, 4, 2),
                BrandMetrics(3, 2.0, 5.0, 1.0, 9.0, 4, 2),
            ],
            names={1: "acme", 2: "globex", 3: "initech"},
        )
        assert [r["brand_id"] for r in rows] == [1, 3, 2]
        assert rows[0]["brand_name"] == "acme"


def _bits(values) -> list[str]:
    """Floats as hex strings, so equality is bit equality (0.0 and -0.0 differ)."""
    return [v.hex() if isinstance(v, float) else repr(v) for v in values]


class TestColumnarReduction:
    """metrics.reduce_coverage against the object-per-entry reduction it replaced."""

    META = FrameMeta(width=10.0, height=8.0, fps=3.0, frame_count=0)

    def _check(self, frames, classes, areas, n_frames, top_k=3, min_run=1, max_gap=0):
        frames, classes, areas = np.asarray(frames, np.int64), np.asarray(classes, np.int64), np.asarray(areas, float)
        args = (frames, classes, areas, self.META, n_frames, top_k, min_run, max_gap)
        want_metrics, want_timeline = reduce_coverage_reference(*args)
        got_metrics, got_cov, got_ranking = reduce_coverage(*args)
        assert [_bits(astuple(m)) for m in got_metrics] == [_bits(astuple(m)) for m in want_metrics]
        want_rows = [(b, f, c) for b in sorted(want_timeline.series) for f, c in want_timeline.series[b]]
        got_rows = list(zip(got_cov.brands.tolist(), got_cov.frames.tolist(), got_cov.c.tolist()))
        assert [_bits(r) for r in got_rows] == [_bits(r) for r in want_rows]
        assert [_bits(r) for r in got_ranking] == [_bits(r) for r in want_timeline.ranking]
        self._check_dense(frames, classes, areas, n_frames, min_run, max_gap, got_cov)
        return got_cov

    def _check_dense(self, frames, classes, areas, n_frames, min_run, max_gap, got):
        """Every brand's z equals the reference filter on its dense series; counts stay on their frames."""
        raw = coverage_columns(frames, classes, areas, self.META.frame_area)
        for brand in np.unique(raw.brands).tolist():
            z = np.zeros(n_frames, np.int8)
            counts = np.zeros(n_frames, np.int64)
            mine = raw.brands == brand
            z[raw.frames[mine]] = raw.z[mine]
            counts[raw.frames[mine]] = raw.counts[mine]
            want = temporal_filter_reference(z, min_run=min_run, max_gap=max_gap)
            got_z = np.zeros(n_frames, np.int8)
            got_counts = np.zeros(n_frames, np.int64)
            rows = got.brands == brand
            got_z[got.frames[rows]] = got.z[rows]
            got_counts[got.frames[rows]] = got.counts[rows]
            assert got_z.tolist() == want.tolist()
            assert got_counts.tolist() == counts.tolist()

    def test_random_streams(self):
        rng = np.random.default_rng(7)
        for _ in range(240):
            n_frames = int(rng.integers(1, 50))
            n = int(rng.integers(0, 90))
            frames = rng.integers(0, n_frames, n)
            classes = rng.integers(0, 5, n)
            areas = rng.random(n) * rng.choice([1.0, 30.0, 90.0], n)
            areas[rng.random(n) < 0.2] = 0.0  # fully clipped boxes: z=0 entries
            self._check(
                frames, classes, areas, n_frames, int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(0, 4))
            )

    def test_areas_sum_in_record_order(self):
        rng = np.random.default_rng(11)
        areas = rng.random(600) * 10.0 ** rng.integers(-3, 1, 600)
        frames = rng.integers(0, 3, 600)
        self._check(frames, np.zeros(600, np.int64), areas, 3)
        in_order = [sum(areas[frames == f].tolist()) for f in range(3)]
        assert in_order != [float(np.sum(areas[frames == f])) for f in range(3)]  # the order shows in the bits

    def test_zero_coverage_entries_in_gaps_and_at_run_edges(self):
        # brand 0 visible on 2-4 and 7-9; z=0 entries at 1 (edge), 5 (gap), 10 (edge) and 13 (alone)
        frames = [2, 3, 4, 7, 8, 9, 1, 5, 10, 13, 5]
        areas = [1.0, 2.0, 3.0, 1.5, 2.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
        for min_run, max_gap in ((1, 2), (3, 0), (4, 2), (7, 2), (8, 2), (1, 3)):
            cov = self._check(frames, [0] * len(frames), areas, 16, min_run=min_run, max_gap=max_gap)
            assert 13 in cov.frames.tolist()  # entries keep their rows, filtered or not
        cov = self._check(frames, [0] * len(frames), areas, 16, min_run=1, max_gap=2)
        bridged = cov.frames.tolist().index(5)
        assert (cov.z[bridged], cov.c[bridged], cov.counts[bridged]) == (True, 0.0, 2)

    @pytest.mark.parametrize("max_gap", [1, 2, 3])
    def test_gap_of_max_gap_is_bridged_and_one_more_is_not(self, max_gap):
        frames = [0, 1 + max_gap, 20, 22 + max_gap]  # gaps of max_gap, then max_gap + 1
        cov = self._check(frames, [2] * 4, [1.0] * 4, 30, max_gap=max_gap)
        assert cov.z.sum() == 2 + max_gap + 2
        assert cov.c[cov.counts == 0].tolist() == [0.0] * max_gap

    @pytest.mark.parametrize("min_run", [2, 3, 4])
    def test_run_of_min_run_is_kept_and_one_shorter_is_not(self, min_run):
        frames = list(range(min_run - 1)) + list(range(10, 10 + min_run))
        cov = self._check(frames, [1] * len(frames), [2.0] * len(frames), 20, min_run=min_run)
        assert cov.frames[cov.z].tolist() == list(range(10, 10 + min_run))
        assert cov.counts.sum() == len(frames)  # suppressed frames keep their counts

    def test_identity_settings(self):
        self._check([3, 1, 3, 0, 5], [1, 0, 1, 1, 0], [1.0, 0.0, 2.0, 4.0, 80.0], 6, min_run=1, max_gap=0)

    def test_empty_stream(self):
        assert self._check([], [], [], 0, min_run=3, max_gap=2).brands.size == 0

    def test_frames_beyond_32_bits(self):
        frames = np.array([0, 1, 2, 4])
        small = self._check(frames, [0, 0, 0, 0], [1.0, 2.0, 3.0, 4.0], 5, min_run=2, max_gap=1)
        big = reduce_coverage(
            frames + 2**40, np.zeros(4, np.int64), np.array([1.0, 2.0, 3.0, 4.0]), self.META, 2**40 + 5, 3, 2, 1
        )[1]
        assert (big.frames - 2**40).tolist() == small.frames.tolist()
        assert _bits(big.c.tolist()) == _bits(small.c.tolist())
