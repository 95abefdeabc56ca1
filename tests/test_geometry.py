from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from obbkit import geometry
from obbkit.errors import GeometryError
from obbkit.geometry import (
    EDGE_TOL,
    RectAA,
    as_quad,
    canonical_order,
    clip_areas_to_rect,
    clip_to_rect,
    convex_intersection,
    degenerate_mask,
    enclosing_hbb,
    intersection_areas,
    iou_obb,
    normalize_quad,
    obb_orientation_deg,
    polygon_area,
    quad_from_rect,
    rect_ious,
    shoelace_areas,
)
from oracles import (
    _ccw,
    _count_hits,
    _inside_convex,
    _intersect_reference,
    _split_samples,
    clip_areas_to_rect_reference,
    clip_to_rect_reference,
    convex_intersection_reference,
    iou_obb_reference,
    mc_intersection_area,
    normalize_quad_reference,
    random_convex_polygon,
    random_convex_quad,
    raster_clip_area,
    raster_iou,
    rect_iou_reference,
    shoelace_reference,
)

FRAME = RectAA(0.0, 0.0, 100.0, 100.0)

rect_params = st.tuples(
    st.floats(-1500.0, 1500.0),  # cx
    st.floats(-1500.0, 1500.0),  # cy
    st.floats(5.0, 400.0),  # w
    st.floats(5.0, 400.0),  # h
    st.floats(0.0, 180.0),  # angle
)


class TestPolygonArea:
    def test_unit_square(self, unit_square):
        assert polygon_area(unit_square) == 1.0

    def test_collinear_quad_is_zero(self):
        assert polygon_area([[0, 0], [1, 0], [2, 0], [3, 0]]) == 0.0

    def test_rotated_rect_matches_product(self):
        # rotation leaves w*h invariant
        assert polygon_area(quad_from_rect(7.0, -3.0, 2.0, 1.0, 37.0)) == pytest.approx(2.0, rel=1e-12)

    def test_empty_polygon(self):
        assert polygon_area(np.zeros((0, 2))) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            polygon_area([[0, 0], [1, float("nan")], [1, 1], [0, 1]])
        with pytest.raises(GeometryError):
            polygon_area([[0, 0], [math.inf, 0], [1, 1], [0, 1]])

    @given(rect_params)
    @settings(max_examples=150)
    def test_rigid_motion_invariance(self, params):
        cx, cy, w, h, ang = params
        base = polygon_area(quad_from_rect(0.0, 0.0, w, h, 0.0))
        moved = polygon_area(quad_from_rect(cx, cy, w, h, ang))
        assert moved == pytest.approx(base, rel=1e-9)


class TestNormalizeQuad:
    def test_clockwise_becomes_ccw(self):
        v, degenerate = normalize_quad([[0, 0], [0, 1], [1, 1], [1, 0]])
        assert not degenerate
        assert v.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_canonical_start_vertex(self):
        v, degenerate = normalize_quad([[1, 1], [0, 1], [0, 0], [1, 0]])
        assert not degenerate
        assert v.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_bowtie_flagged(self):
        _, degenerate = normalize_quad([[0, 0], [1, 1], [1, 0], [0, 1]])
        assert degenerate

    def test_zero_area_flagged(self):
        _, degenerate = normalize_quad([[0, 0], [1, 0], [2, 0], [3, 0]])
        assert degenerate

    def test_area_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = random_convex_quad(rng, rng.uniform(0, 100, 2), rng.uniform(1, 30))
            v, degenerate = normalize_quad(q)
            assert not degenerate
            assert polygon_area(v) == pytest.approx(polygon_area(q), rel=1e-12)

    def test_wrong_vertex_count(self):
        with pytest.raises(GeometryError):
            normalize_quad([[0, 0], [1, 0], [1, 1]])

    def test_edge_tol_is_in_pixels(self):
        # EDGE_TOL is an absolute area in px^2: a box far below a pixel is degenerate
        assert EDGE_TOL == 1e-9
        assert normalize_quad(quad_from_rect(5.0, 5.0, 1e-5, 1e-5, 0.0))[1]
        assert not normalize_quad(quad_from_rect(5.0, 5.0, 1.0, 1.0, 0.0))[1]
        rotated = np.stack([quad_from_rect(0.5, 0.5, 1e-5, 1e-5, 30.0), quad_from_rect(0.5, 0.5, 1.0, 1.0, 30.0)])
        assert degenerate_mask(rotated).tolist() == [True, False]


class TestClipToRect:
    def test_fully_inside_identical(self):
        quad = quad_from_rect(50.0, 50.0, 10.0, 6.0, 20.0)
        clipped = clip_to_rect(quad, FRAME)
        assert polygon_area(clipped) == pytest.approx(60.0, rel=1e-12)
        assert clipped.shape[0] == 4

    def test_fully_outside_empty(self):
        quad = quad_from_rect(500.0, 500.0, 10.0, 10.0, 15.0)
        clipped = clip_to_rect(quad, FRAME)
        assert clipped.shape[0] == 0
        assert polygon_area(clipped) == 0.0

    def test_half_overlap(self):
        # 10x10 axis square straddling the left edge, half inside
        quad = quad_from_rect(0.0, 50.0, 10.0, 10.0, 0.0)
        assert polygon_area(clip_to_rect(quad, FRAME)) == pytest.approx(50.0, abs=1e-9)
        oracle = raster_clip_area(quad, 0.0, 0.0, 100.0, 100.0, resolution=2000)
        assert polygon_area(clip_to_rect(quad, FRAME)) == pytest.approx(oracle, abs=0.2)

    def test_at_most_eight_vertices(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            quad = quad_from_rect(
                rng.uniform(-20, 120),
                rng.uniform(-20, 120),
                rng.uniform(5, 150),
                rng.uniform(5, 150),
                rng.uniform(0, 180),
            )
            clipped = clip_to_rect(quad, FRAME)
            assert clipped.shape[0] <= 8

    @given(rect_params)
    @settings(max_examples=150)
    def test_clipping_monotone(self, params):
        cx, cy, w, h, ang = params
        quad = quad_from_rect(cx / 10.0, cy / 10.0, w, h, ang)
        for area in (polygon_area(clip_to_rect(quad, FRAME)), clip_areas_to_rect(quad[None], FRAME)[0]):
            assert area <= polygon_area(quad) + 1e-9
            assert area <= FRAME.area + 1e-9

    def test_vertex_just_outside_a_side_is_moved_onto_it(self):
        # the top edge crosses x = 0 at y = 100 + 2.8e-11, inside EDGE_TOL of the y_max side
        quad = quad_from_rect(0.0, 0.0, 201.0, 200.0, 4.254450005649634e-05)
        clipped = clip_to_rect(quad, FRAME)
        assert clipped.tolist() == [[100.0, 0.0], [100.0, 100.0], [0.0, 100.0], [0.0, 0.0]]
        assert polygon_area(clipped) == FRAME.area
        assert clip_areas_to_rect(quad[None], FRAME).tolist() == [FRAME.area]

    def test_self_intersecting_quad_clipped_to_ten_vertices(self):
        # a bow-tie can gain two vertices at one side: its rows outgrow the slots a convex quad needs
        bow_tie = np.array([[56.0, 3.0], [142.0, 126.0], [-13.0, 51.0], [137.0, 119.0]])
        rect = RectAA(20.0, 20.0, 80.0, 80.0)
        clipped = clip_to_rect(bow_tie, rect)
        assert clipped.shape == (10, 2) and _same(clipped, clip_to_rect_reference(bow_tie, rect))
        batch = np.stack([bow_tie, quad_from_rect(50.0, 50.0, 80.0, 80.0, 10.0), bow_tie[::-1]])
        want = [polygon_area(clip_to_rect(q, rect)) for q in batch]
        assert clip_areas_to_rect(batch, rect) == pytest.approx(want, rel=1e-12)
        for rows in (batch, batch[:1], batch[::-1]):  # the batch oracle widens its rows by its own rule: same bits
            assert _same(clip_areas_to_rect(rows, rect), clip_areas_to_rect_reference(rows, rect))


class TestConvexIntersection:
    def test_identical(self):
        quad = quad_from_rect(3.0, 4.0, 5.0, 2.0, 33.0)
        inter = convex_intersection(quad, quad)
        assert polygon_area(inter) == polygon_area(normalize_quad(quad)[0])

    def test_disjoint(self):
        a = quad_from_rect(0.0, 0.0, 2.0, 2.0, 10.0)
        b = quad_from_rect(50.0, 0.0, 2.0, 2.0, 80.0)
        assert convex_intersection(a, b).shape[0] == 0

    def test_rotated_square_octagon(self, unit_square):
        rotated = quad_from_rect(0.5, 0.5, 1.0, 1.0, 45.0)
        inter = convex_intersection(unit_square, rotated)
        expected = 4.0 * (math.sqrt(2.0) - 1.0) / 2.0  # octagon overlap, 2*(sqrt(2)-1)
        assert polygon_area(inter) == pytest.approx(expected, rel=1e-12)
        assert inter.shape[0] == 8

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = random_convex_quad(rng, rng.uniform(0, 100, 2), rng.uniform(2, 40))
            b = random_convex_quad(rng, rng.uniform(0, 100, 2), rng.uniform(2, 40))
            ab = polygon_area(convex_intersection(a, b))
            ba = polygon_area(convex_intersection(b, a))
            assert ab == pytest.approx(ba, rel=1e-9, abs=1e-9)

    def test_monte_carlo_oracle_sample(self):
        # small-scale version of the acceptance run
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = random_convex_quad(rng, rng.uniform(20, 80, 2), rng.uniform(5, 35))
            b = random_convex_quad(rng, rng.uniform(20, 80, 2), rng.uniform(5, 35))
            inter = polygon_area(convex_intersection(a, b))
            union = polygon_area(a) + polygon_area(b) - inter
            estimate = mc_intersection_area(a, b, n=200_000, rng=rng)
            assert abs(estimate - inter) / union < 1e-3


class TestMonteCarloOracle:
    """The oracle's cached affine count against a direct count over explicit points."""

    N = 10_000

    @staticmethod
    def _explicit_samples(quad_a, n, jitter):
        """(blocks, px, py): the sample recipe of the oracle, one point at a time."""
        blocks, _ = _split_samples(_ccw(np.asarray(quad_a, dtype=np.float64)), n)
        px, py = [], []
        offset = 0
        for tri, m in blocks:
            block = jitter[offset : offset + 2 * m]
            offset += 2 * m
            g = math.isqrt(m)
            for idx in range(m):
                if idx < g * g:
                    i, j = divmod(idx, g)
                    u = (i + block[2 * idx]) / g
                    v = (j + block[2 * idx + 1]) / g
                else:
                    u, v = block[2 * idx], block[2 * idx + 1]
                if u + v > 1.0:
                    u, v = 1.0 - u, 1.0 - v
                p = tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])
                px.append(p[0])
                py.append(p[1])
        return blocks, np.array(px), np.array(py)

    def _check(self, a, b, jitter):
        blocks, px, py = self._explicit_samples(a, self.N, jitter)
        b = np.asarray(b, dtype=np.float64)
        direct = int(_inside_convex(px, py, b).sum())
        assert 0 < direct < self.N  # b cuts a, so a wrong point set shows
        assert _count_hits(blocks, _ccw(b), jitter) == direct
        return [m for _, m in blocks]

    def test_convex_quads_use_extra_points(self):
        rng = np.random.default_rng(11)
        jitter = rng.random(2 * self.N)
        uneven = 0
        for _ in range(6):
            a = random_convex_quad(rng, (50.0, 50.0), 20.0)
            b = quad_from_rect(50.0, 50.0, 60.0, 6.0, rng.uniform(0.0, 180.0))  # strip through a
            counts = self._check(a, b, jitter)
            uneven += any(math.isqrt(m) ** 2 < m for m in counts)
        assert uneven > 0

    def test_rectangle_blocks_at_two_offsets(self):
        jitter = np.random.default_rng(12).random(2 * self.N)
        a = quad_from_rect(50.0, 50.0, 40.0, 20.0, 30.0)
        b = quad_from_rect(60.0, 55.0, 30.0, 30.0, 75.0)
        counts = self._check(a, b, jitter)
        assert counts[0] == counts[1]

    def test_shared_jitter_with_different_splits(self):
        rng = np.random.default_rng(13)
        jitter = rng.random(2 * self.N)
        b = quad_from_rect(50.0, 50.0, 30.0, 30.0, 20.0)
        first = self._check(random_convex_quad(rng, (45.0, 45.0), 25.0), b, jitter)
        second = self._check(random_convex_quad(rng, (55.0, 55.0), 25.0), b, jitter)
        assert first[0] != second[0]


class TestIouObb:
    def test_identical_exact_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            quad = random_convex_quad(rng, rng.uniform(0, 1000, 2), rng.uniform(1, 200))
            assert iou_obb(quad, quad) == 1.0

    def test_shifted_unit_squares(self, unit_square):
        shifted = quad_from_rect(1.0, 0.5, 1.0, 1.0, 0.0)
        assert iou_obb(unit_square, shifted) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_concentric_rotated_square(self, unit_square):
        rotated = quad_from_rect(0.5, 0.5, 1.0, 1.0, 45.0)
        value = iou_obb(unit_square, rotated)
        assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert value == pytest.approx(raster_iou(unit_square, rotated, resolution=2000), abs=1e-4)

    def test_disjoint_zero(self):
        a = quad_from_rect(0.0, 0.0, 1.0, 1.0, 0.0)
        b = quad_from_rect(10.0, 10.0, 1.0, 1.0, 45.0)
        assert iou_obb(a, b) == 0.0

    def test_both_zero_area_rejected(self):
        line = [[0, 0], [1, 0], [2, 0], [3, 0]]
        with pytest.raises(GeometryError):
            iou_obb(line, line)

    @given(rect_params, rect_params)
    @settings(max_examples=100)
    def test_bounds_and_symmetry(self, pa, pb):
        a = quad_from_rect(pa[0] / 20.0, pa[1] / 20.0, pa[2], pa[3], pa[4])
        b = quad_from_rect(pb[0] / 20.0, pb[1] / 20.0, pb[2], pb[3], pb[4])
        ab = iou_obb(a, b)
        ba = iou_obb(b, a)
        assert 0.0 <= ab <= 1.0
        assert ab == pytest.approx(ba, abs=1e-9)


class TestEnclosingHbb:
    def test_axis_aligned_identity(self):
        rect = enclosing_hbb(quad_from_rect(5.0, 3.0, 2.0, 1.0, 0.0))
        assert (rect.x_min, rect.y_min, rect.x_max, rect.y_max) == (4.0, 2.5, 6.0, 3.5)

    def test_rotated_unit_square(self):
        rect = enclosing_hbb(quad_from_rect(0.0, 0.0, 1.0, 1.0, 45.0))
        half_diag = math.sqrt(2.0) / 2.0
        assert rect.x_min == pytest.approx(-half_diag, rel=1e-12)
        assert rect.x_max == pytest.approx(half_diag, rel=1e-12)
        assert rect.area == pytest.approx(2.0, rel=1e-12)

    def test_two_by_one_at_45(self):
        rect = enclosing_hbb(quad_from_rect(0.0, 0.0, 2.0, 1.0, 45.0))
        assert rect.area == pytest.approx(4.5, rel=1e-12)

    def test_containment(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            quad = random_convex_quad(rng, rng.uniform(-50, 50, 2), rng.uniform(1, 80))
            rect = enclosing_hbb(quad)
            assert (quad[:, 0] >= rect.x_min - 1e-9).all()
            assert (quad[:, 0] <= rect.x_max + 1e-9).all()
            assert (quad[:, 1] >= rect.y_min - 1e-9).all()
            assert (quad[:, 1] <= rect.y_max + 1e-9).all()


class TestOrientation:
    def test_axis_aligned_wide(self):
        assert obb_orientation_deg(quad_from_rect(0, 0, 2, 1, 0)) == 0.0

    def test_rotated_30(self):
        assert obb_orientation_deg(quad_from_rect(5, 5, 2, 1, 30)) == pytest.approx(30.0, abs=1e-9)

    def test_tall_rect_is_90(self):
        assert obb_orientation_deg(quad_from_rect(0, 0, 1, 2, 0)) == pytest.approx(90.0)

    def test_folding(self):
        assert obb_orientation_deg(quad_from_rect(0, 0, 2, 1, 135)) == pytest.approx(45.0, abs=1e-9)
        assert obb_orientation_deg(quad_from_rect(0, 0, 2, 1, 170)) == pytest.approx(10.0, abs=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            obb_orientation_deg([[0, 0], [1, 0], [2, 0], [3, 0]])

    def test_range(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            ang = obb_orientation_deg(
                quad_from_rect(0, 0, rng.uniform(0.5, 10), rng.uniform(0.5, 10), rng.uniform(0, 360))
            )
            assert 0.0 <= ang <= 90.0


class TestRectIou:
    def test_identical(self):
        r = np.array([[0.0, 0.0, 2.0, 3.0]])
        assert rect_ious(r[:, None], r[None]).tolist() == [[1.0]]

    def test_disjoint(self):
        assert rect_ious(np.array([0.0, 0.0, 1.0, 1.0]), np.array([5.0, 5.0, 6.0, 6.0])).tolist() == 0.0

    def test_half_overlap(self):
        a = np.array([[0.0, 0.0, 2.0, 1.0]])
        assert rect_ious(a, np.array([[1.0, 0.0, 3.0, 1.0]]))[0] == pytest.approx(1.0 / 3.0)

    def test_bits_equal_the_scalar_reference(self):
        rng = np.random.default_rng(17)
        lo = rng.uniform(0.0, 50.0, (40, 2))
        bounds = np.hstack([lo, lo + rng.uniform(0.1, 30.0, (40, 2))])
        ious = rect_ious(bounds[:20, None], bounds[None, 20:])
        for i, j in itertools.product(range(20), range(20)):
            assert ious[i, j] == rect_iou_reference(RectAA(*bounds[i]), RectAA(*bounds[20 + j]))
        assert (ious > 0.0).sum() > 20


class TestBatchKernels:
    def test_matches_scalar_route(self):
        rng = np.random.default_rng(41)
        quads = np.stack(
            [
                quad_from_rect(
                    rng.uniform(-30, 130),
                    rng.uniform(-30, 130),
                    rng.uniform(2, 120),
                    rng.uniform(2, 120),
                    rng.uniform(0, 180),
                )
                for _ in range(500)
            ]
        )
        batch = clip_areas_to_rect(quads, FRAME)
        scalar = np.array([polygon_area(clip_to_rect(q, FRAME)) for q in quads])
        np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=1e-9)

    def test_degenerate_mask_matches_normalize(self):
        rng = np.random.default_rng(43)
        quads = []
        for _ in range(200):
            if rng.random() < 0.3:
                # shuffled vertices produce bow-ties frequently
                q = random_convex_quad(rng, rng.uniform(0, 50, 2), rng.uniform(1, 20))
                q = q[rng.permutation(4)]
            else:
                q = random_convex_quad(rng, rng.uniform(0, 50, 2), rng.uniform(1, 20))
            quads.append(q)
        quads = np.stack(quads)
        mask = degenerate_mask(quads)
        expected = np.array([normalize_quad(q)[1] for q in quads])
        np.testing.assert_array_equal(mask, expected)

    def test_empty_batch(self):
        assert clip_areas_to_rect(np.zeros((0, 4, 2)), FRAME).shape == (0,)

    def test_exact_boundary_cases(self):
        frame_quad = quad_from_rect(50.0, 50.0, 100.0, 100.0, 0.0)  # equals the frame
        flush_left = quad_from_rect(5.0, 50.0, 10.0, 20.0, 0.0)  # edge on x_min
        corner = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])  # vertex at frame corner
        sliver = quad_from_rect(50.0, 50.0, 200.0, 1e-6, 30.0)  # near-degenerate, crosses frame
        batch = np.stack([frame_quad, flush_left, corner, sliver])
        areas = clip_areas_to_rect(batch, FRAME)
        scalar = np.array([polygon_area(clip_to_rect(q, FRAME)) for q in batch])
        np.testing.assert_allclose(areas, scalar, rtol=1e-9, atol=1e-9)
        assert areas[0] == pytest.approx(FRAME.area, rel=1e-12)
        assert areas[1] == pytest.approx(200.0, rel=1e-12)
        assert areas[2] == pytest.approx(100.0, rel=1e-12)


class TestCanonicalOrder:
    """canonical_order, degenerate_mask and normalize_quad against the scalar reference, bit for bit."""

    @staticmethod
    def _assert_matches_reference(quads: np.ndarray) -> None:
        ref = [normalize_quad_reference(q) for q in quads]
        assert canonical_order(quads).tobytes() == np.stack([v for v, _ in ref]).tobytes()
        assert degenerate_mask(quads).tolist() == [flag for _, flag in ref]
        for quad, (ref_v, ref_flag) in zip(quads, ref):
            v, flag = normalize_quad(quad)
            assert v.shape == (4, 2) and v.tobytes() == ref_v.tobytes()
            assert flag == ref_flag

    def test_exhaustive_3x3_grid(self):
        points = [(x, y) for x in range(3) for y in range(3)]
        quads = np.array(list(itertools.product(points, repeat=4)), dtype=np.float64)
        assert quads.shape == (6561, 4, 2)  # includes repeated vertices and exact collinear cases
        self._assert_matches_reference(quads)

    def test_random_quads_some_shuffled(self):
        rng = np.random.default_rng(61)
        quads = []
        for _ in range(2000):
            q = random_convex_quad(rng, rng.uniform(-1500, 1500, 2), rng.uniform(0.01, 300))
            if rng.random() < 0.5:
                q = q[rng.permutation(4)]  # bow-ties and reversed windings
            quads.append(q)
        self._assert_matches_reference(np.stack(quads))

    def test_empty_batch(self):
        assert canonical_order(np.zeros((0, 4, 2))).shape == (0, 4, 2)


class TestIntersectionContainment:
    def test_vertices_inside_both_operands(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            a = random_convex_quad(rng, rng.uniform(0, 100, 2), rng.uniform(5, 40))
            b = random_convex_quad(rng, rng.uniform(0, 100, 2), rng.uniform(5, 40))
            inter = convex_intersection(a, b)
            for quad in (a, b):
                v, _ = normalize_quad(quad)
                for i in range(4):
                    p, q = v[i], v[(i + 1) % 4]
                    cross = (q[0] - p[0]) * (inter[:, 1] - p[1]) - (q[1] - p[1]) * (inter[:, 0] - p[0])
                    assert (cross >= -1e-6).all()


def _same(x, y) -> bool:
    """Equal bit for bit, NaN included."""
    return np.asarray(x).shape == np.asarray(y).shape and np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _outcome(fn, a, b):
    try:
        return fn(a, b)
    except GeometryError as exc:
        return f"GeometryError: {exc}"


def _reference_pairs():
    """Random, shuffled, touching, nested and degenerate quad pairs."""
    rng = np.random.default_rng(83)
    pairs = []
    for _ in range(300):
        a = random_convex_quad(rng, rng.uniform(0, 200, 2), rng.uniform(1, 80))
        b = random_convex_quad(rng, rng.uniform(0, 200, 2), rng.uniform(1, 80))
        pairs.append((a, b))
        pairs.append((a[rng.permutation(4)], b[rng.permutation(4)]))  # bow-ties and reversed windings
    square = quad_from_rect(5.0, 5.0, 10.0, 10.0, 0.0)
    for quad in (
        quad_from_rect(15.0, 5.0, 10.0, 10.0, 0.0),  # shares an edge
        quad_from_rect(15.0, 15.0, 10.0, 10.0, 0.0),  # shares a corner
        quad_from_rect(5.0, 5.0, 4.0, 2.0, 30.0),  # nested
        quad_from_rect(5.0, 5.0, 40.0, 40.0, 10.0),  # encloses
        square[::-1],  # the same region, clockwise
        np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),  # bow-tie
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),  # zero area
        np.array([[2.0, 2.0]] * 4),  # one point
    ):
        pairs += [(square, quad), (quad, square), (quad, quad)]
    return pairs


class TestScalarPairRoute:
    """iou_obb and convex_intersection, batch-of-one views of the pair kernel, against the former scalar pair route."""

    def test_bit_identical_to_reference(self):
        for a, b in _reference_pairs():
            assert _same(_outcome(iou_obb, a, b), _outcome(iou_obb_reference, a, b))
            assert _same(convex_intersection(a, b), convex_intersection_reference(a, b))

    @pytest.mark.parametrize(
        "bad",
        [
            [[0, 0], [1, 0], [1, 1]],
            [[0, 0], [1, 0], [1, 1], [0, 1], [2, 2]],
            np.zeros((4, 3)),
            [[0, 0], [1, 0], [1, math.nan], [0, 1]],
            [[0, 0], [1, 0], [math.inf, 1], [0, 1]],
            [],
        ],
    )
    def test_same_geometry_errors(self, bad):
        good = quad_from_rect(0.0, 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(GeometryError) as want:
            as_quad(bad)
        for call in (lambda: iou_obb(bad, good), lambda: iou_obb(good, bad), lambda: convex_intersection(bad, good)):
            with pytest.raises(GeometryError) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_coordinates_near_float_max_accepted(self):
        # each coordinate is finite though their sum overflows
        big = [[1e308, 1e308], [1.7e308, 1e308], [1.7e308, 1.7e308], [1e308, 1.7e308]]
        wide = [[-1e308, -1e308], [1.7e308, -1e308], [1.7e308, 1.7e308], [-1e308, 1.7e308]]
        edge = [[0.0, 0.0], [1.7e308, 0.0], [1.7e308, 1e308], [0.0, 1e308]]  # NaN distances (0 * inf) past vertex 0
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in ((big, big), (big, wide), (wide, big), (edge, wide)):
                assert _same(iou_obb(a, b), iou_obb_reference(a, b))
                assert _same(convex_intersection(a, b), convex_intersection_reference(a, b))

    def test_list_tuple_and_array_inputs(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            a = random_convex_quad(rng, rng.uniform(0, 50, 2), rng.uniform(1, 20))
            b = random_convex_quad(rng, rng.uniform(0, 50, 2), rng.uniform(1, 20))
            want = iou_obb(a, b)
            for convert in (np.ndarray.tolist, lambda q: tuple(map(tuple, q.tolist())), list):  # list: of row arrays
                assert iou_obb(convert(a), convert(b)) == want
                assert _same(convex_intersection(convert(a), convert(b)), convex_intersection(a, b))
            assert iou_obb(a.tolist(), b) == want


def _boundary_pairs():
    """Identical, nested, edge-sharing and touching pairs, with gaps and overlaps around EDGE_TOL."""
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])  # unit edges: a vertex's distance is its offset
    pairs = []
    for offset in (0.0, EDGE_TOL / 2, EDGE_TOL, 2 * EDGE_TOL, -EDGE_TOL / 2, -EDGE_TOL, -2 * EDGE_TOL, 1e-6):
        pairs.append((unit, unit + [1.0 + offset, 0.0]))  # a shared edge, a hair apart or overlapping
        pairs.append((unit, unit + [1.0 + offset, 1.0 + offset]))  # a shared corner
        pairs.append((unit, unit + [offset, offset]))  # identical up to the offset
    rot = quad_from_rect(700.0, 400.0, 80.0, 20.0, 33.0)
    for other in (rot, rot[::-1], np.roll(rot, 1, axis=0), quad_from_rect(700.0, 400.0, 40.0, 10.0, 33.0)):
        pairs += [(rot, other), (other, rot)]
    return pairs


class TestPairKernel:
    """evaluate's route, quads ordered and measured once, intersection_areas, then the per-pair finish, against iou_obb bit for bit."""

    def test_bit_identical_to_iou_obb_and_reference(self):
        pairs = _reference_pairs() + _boundary_pairs()
        va, vb = (canonical_order(np.array(side, np.float64)) for side in zip(*pairs))
        columns = intersection_areas(va, vb).tolist(), shoelace_areas(va).tolist(), shoelace_areas(vb).tolist()
        for (a, b), (inter, area_a, area_b) in zip(pairs, zip(*columns)):
            got = _outcome(lambda *_: geometry._iou(inter, area_a, area_b), a, b)
            assert _same(got, _outcome(iou_obb, a, b))
            assert _same(got, _outcome(iou_obb_reference, a, b))

    def test_batch_order_and_areas_equal_the_scalar_ones(self):
        # evaluate orders and measures quads in batches, as iou_obb does its pair;
        # polygon_area sums the same terms, less the two zero ones, in another order
        rng = np.random.default_rng(97)
        quads = np.stack([random_convex_quad(rng, rng.uniform(-1e4, 1e4, 2), rng.uniform(0.5, 500)) for _ in range(3000)])
        quads[::3] = quads[::3, ::-1]  # clockwise
        quads[1::3] = np.roll(quads[1::3], 1, axis=1)
        once = canonical_order(quads)
        assert shoelace_areas(once).tolist() == [polygon_area(q) for q in once]
        assert canonical_order(once).tobytes() == once.tobytes()  # so quads read in canonical order stay as they are

    def test_clip_to_rect_equals_the_per_axis_route(self):
        rng = np.random.default_rng(101)
        quads = (random_convex_quad(rng, rng.uniform(-20, 120, 2), rng.uniform(1, 80)) for _ in range(400))
        sides = [3, 5, 8, 12] * 200
        k_gons = (random_convex_polygon(rng, rng.uniform(-20, 120, 2), rng.uniform(1, 80), k) for k in sides)
        sizes = set()
        for poly in itertools.chain(quads, k_gons):
            (x_min, x_max), (y_min, y_max) = np.sort(rng.uniform(0, 100, (2, 2)), axis=1).tolist()
            for rect in (FRAME, RectAA(x_min, y_min, x_max, y_max)):
                clipped = clip_to_rect(poly, rect)
                assert _same(clipped, clip_to_rect_reference(poly, rect))
                assert polygon_area(clipped) == shoelace_reference(clipped.tolist())
                sizes.add(len(clipped))
            assert polygon_area(poly) == shoelace_reference(poly.tolist())
        assert max(sizes) > 8  # more vertices than a clipped quad can have
        flush = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 50.0], [0.0, 50.0]])  # edges on the frame's
        assert _same(clip_to_rect(flush, FRAME), clip_to_rect_reference(flush, FRAME))


def _scalar_intersections(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The area of a[i] cut by b[i]'s edges for each pair, one vertex at a time on Python floats."""
    pairs = zip(a.tolist(), b.tolist())
    return np.array([shoelace_reference(_intersect_reference(x, y)) for x, y in pairs], np.float64)


def _ellipse_quad(params) -> np.ndarray:
    """A convex quad: four points at sorted angles on a tilted ellipse, rounded to the integer grid if asked."""
    cx, cy, rx, ry, tilt, angles, grid = params
    t = np.sort(angles)
    ex, ey = rx * np.cos(t), ry * np.sin(t)
    quad = np.stack([cx + ex * math.cos(tilt) - ey * math.sin(tilt), cy + ex * math.sin(tilt) + ey * math.cos(tilt)], axis=1)
    return np.round(quad) if grid else quad


convex_quads = st.tuples(
    st.floats(-60.0, 60.0),
    st.floats(-60.0, 60.0),
    st.floats(0.5, 50.0),
    st.floats(0.5, 50.0),
    st.floats(0.0, math.pi),
    st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4, unique=True),
    st.booleans(),
).map(_ellipse_quad)


class TestIntersectionAreas:
    """intersection_areas against a one-vertex-at-a-time clip and area on Python floats, bit for bit."""

    def _check(self, a, b) -> np.ndarray:
        a, b = canonical_order(np.asarray(a, np.float64)), canonical_order(np.asarray(b, np.float64))
        got = intersection_areas(a, b)
        assert got.dtype == np.float64 and got.shape == (len(a),)
        assert got.tobytes() == _scalar_intersections(a, b).tobytes()
        return got

    def test_zero_pairs(self):
        assert self._check(np.zeros((0, 4, 2)), np.zeros((0, 4, 2))).shape == (0,)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_pair_counts_around_the_block(self, offset):
        rng = np.random.default_rng(107 + offset)
        n = geometry._PAIR_BLOCK + offset
        a = np.stack([random_convex_quad(rng, rng.uniform(0, 60, 2), rng.uniform(1, 30)) for _ in range(n)])
        b = np.stack([random_convex_quad(rng, q.mean(axis=0) + rng.uniform(-20, 20, 2), rng.uniform(1, 30)) for q in a])
        b[-1] = a[-1]  # the last pair of the last block
        got = self._check(a, b)
        assert (got > 0).sum() > n // 4

    def test_identical_quads_give_iou_one(self):
        rng = np.random.default_rng(109)
        quads = canonical_order(np.stack([random_convex_quad(rng, rng.uniform(-1e3, 1e3, 2), rng.uniform(0.5, 300)) for _ in range(500)]))
        quads[::5] = np.round(quads[::5])
        inters, areas = self._check(quads, quads).tolist(), shoelace_areas(quads).tolist()
        assert all(geometry._iou(inter, area, area) == 1.0 for inter, area in zip(inters, areas))

    def test_shared_edges_corners_and_offsets(self):
        a, b = zip(*_boundary_pairs())
        self._check(a, b)

    def test_one_quad_inside_the_other(self):
        outer = quad_from_rect(300.0, 200.0, 120.0, 80.0, 25.0)
        inner = [quad_from_rect(300.0 + dx, 200.0, 30.0, 10.0, angle) for dx in (-20.0, 0.0, 20.0) for angle in (0.0, 25.0, 70.0)]
        for a, b in ((inner, [outer] * len(inner)), ([outer] * len(inner), inner)):
            got = self._check(a, b)
            assert got == pytest.approx(shoelace_areas(canonical_order(np.array(inner))), rel=1e-12)

    @seed(1733)
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(convex_quads, convex_quads), max_size=20))
    def test_random_convex_pairs(self, pairs):
        a, b = zip(*pairs) if pairs else (np.zeros((0, 4, 2)), np.zeros((0, 4, 2)))
        self._check(a, b)
