"""The column kernels of obbkit.geometry and the TR bin kernel keep the bits of their references.

Each batch kernel in geometry works on the eight coordinate columns of a
quad batch; tests/oracles.py keeps the (n, 4, 2) formulation it replaced.
Both must agree bit for bit, on rotated rectangles and on integer-grid
quads, whose ties and degenerate or bow-tie shapes stress the vertex
selection.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from obbkit.errors import ConfigError
from obbkit.geometry import (
    RectAA,
    canonical_order,
    clip_areas_to_rect,
    degenerate_mask,
    enclosing_bounds,
    orientations_deg,
    quad_from_rect,
    shoelace_areas,
)
from obbkit.tightness import TRSample, bin_by_orientation, bin_tr_columns, tightness_ratios
from oracles import (
    bin_by_orientation_reference,
    canonical_order_reference,
    clip_areas_to_rect_reference,
    degenerate_mask_reference,
    enclosing_bounds_reference,
    orientations_deg_reference,
    shoelace_areas_reference,
)

FRAME = RectAA(-20.0, -10.0, 600.0, 400.0)

KERNELS = [
    (shoelace_areas, shoelace_areas_reference),
    (canonical_order, canonical_order_reference),
    (degenerate_mask, degenerate_mask_reference),
    (enclosing_bounds, enclosing_bounds_reference),
    (orientations_deg, orientations_deg_reference),
    (lambda q: clip_areas_to_rect(q, FRAME), lambda q: clip_areas_to_rect_reference(q, FRAME)),
]

rect_params = st.tuples(
    st.floats(-100.0, 700.0),  # cx
    st.floats(-100.0, 500.0),  # cy
    st.floats(0.5, 300.0),  # w
    st.floats(0.5, 300.0),  # h
    st.floats(0.0, 180.0),  # angle
)
rotated_batches = st.lists(rect_params, max_size=24).map(
    lambda ps: np.stack([quad_from_rect(*p) for p in ps]) if ps else np.zeros((0, 4, 2))
)
grid_point = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
grid_batches = st.lists(st.lists(grid_point, min_size=4, max_size=4), max_size=24).map(
    lambda qs: np.array(qs, np.float64).reshape(-1, 4, 2)
)


def _views(quads: np.ndarray) -> list[np.ndarray]:
    """The batch, its one- and zero-quad slices and non-contiguous views of it."""
    padded = np.zeros(quads.shape[:2] + (3,))
    padded[..., :2] = quads
    mask = np.arange(len(quads)) % 3 != 1
    return [quads, quads[:1], quads[:0], quads[mask], quads[::2], quads[:, ::-1], padded[..., :2]]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()  # signed zeros too


def _check_every_kernel(quads: np.ndarray) -> None:
    for view in _views(quads):
        for kernel, reference in KERNELS:
            assert_same_bits(kernel(view), reference(view))


@seed(1729)
@settings(max_examples=150, deadline=None)
@given(rotated_batches)
def test_kernels_match_references_on_rotated_rectangles(quads):
    _check_every_kernel(quads)
    if len(quads):
        ratios = tightness_ratios(quads)
        b = enclosing_bounds_reference(quads)
        want = np.minimum(1.0, shoelace_areas_reference(quads) / ((b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])))
        assert_same_bits(ratios, want)


@seed(1730)
@settings(max_examples=300, deadline=None)
@given(grid_batches)
def test_kernels_match_references_on_integer_grid_quads(quads):
    # ties in y and x, repeated vertices, zero-area and bow-tie quads
    _check_every_kernel(quads)


@seed(1731)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda k: st.lists(st.lists(grid_point, min_size=k, max_size=k), min_size=1, max_size=12)))
def test_enclosing_bounds_of_k_vertex_polygons(polys):
    batch = np.array(polys, np.float64) / 4.0
    for view in (batch, batch[::2], batch[:, ::-1], batch[:0]):
        assert_same_bits(enclosing_bounds(view), enclosing_bounds_reference(view))


def test_thirty_thousand_rotated_boxes_keep_their_bits():
    rng = np.random.default_rng(5)
    n = 30_000
    params = np.column_stack(
        [rng.uniform(-50, 650, n), rng.uniform(-50, 450, n), rng.uniform(1, 300, n), rng.uniform(1, 300, n), rng.uniform(0, 180, n)]
    )
    quads = np.stack([quad_from_rect(*p) for p in params.tolist()])
    for kernel, reference in KERNELS:
        assert_same_bits(kernel(quads), reference(quads))


def _samples(trs, angles) -> list[TRSample]:
    return [TRSample("prediction", tr, angle, 0) for tr, angle in zip(trs, angles)]


@pytest.mark.parametrize("width", [5.0, 15.0, 30.0, 90.0])
def test_bins_match_the_reference_loop(width):
    rng = np.random.default_rng(int(width))
    trs = rng.uniform(0.3, 1.0, 30_000).tolist()
    angles = (rng.uniform(0.0, 90.0, 30_000) // 0.5 * 0.5).tolist()  # on bin edges too
    angles[:3] = [0.0, 90.0, 45.0]
    samples = _samples(trs, angles)
    assert bin_by_orientation(samples, width) == bin_by_orientation_reference(samples, width)
    assert bin_tr_columns(np.array(trs), np.array(angles), width) == bin_by_orientation_reference(samples, width)


def test_bins_of_no_samples_and_of_exactly_ninety_degrees():
    assert bin_by_orientation([], 15.0) == bin_by_orientation_reference([], 15.0)
    assert all(s.n == 0 for s in bin_by_orientation([], 5.0))
    at_ninety = _samples([0.25, 0.75, 0.5], [90.0, 90.0, 89.999])
    stats = bin_by_orientation(at_ninety, 5.0)
    assert stats == bin_by_orientation_reference(at_ninety, 5.0)
    assert stats[-1].n == 3 and stats[-1].bin_hi_deg == 90.0


def test_bin_variance_squares_like_the_reference():
    # the reference squares with Python's float power (libm pow), and numpy's square differs from it
    # in about 1 value in 1,200; with a square these three ratios move the CI's last bit
    samples = _samples([0.9939548872424615, 0.8367726086283791, 0.5658988299534498], [10.0, 11.0, 12.0])
    assert bin_by_orientation(samples, 15.0) == bin_by_orientation_reference(samples, 15.0)


@pytest.mark.parametrize("bad", [math.nan, -1e-9, 90.000001, math.inf, -math.inf])
def test_bins_reject_the_first_angle_outside_the_range(bad):
    samples = _samples([0.5, 0.6, 0.7], [10.0, bad, 95.0])
    with pytest.raises(ConfigError) as want:
        bin_by_orientation_reference(samples, 15.0)
    with pytest.raises(ConfigError) as got:
        bin_by_orientation(samples, 15.0)
    assert str(got.value) == str(want.value)


def test_tr_sample_is_a_plain_tuple():
    s = TRSample("ground_truth", 0.5, 30.0, 2)
    assert s == ("ground_truth", 0.5, 30.0, 2)
    source, tr, angle, class_id = s
    assert (source, tr, angle, class_id) == (s.source, s.tr, s.orientation_deg, s.class_id)
