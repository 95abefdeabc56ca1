"""Exact 2-D polygon operations for oriented boxes.

Quads and clip polygons are plain float64 arrays of shape (k, 2) with
vertices in order; an empty polygon is an array of shape (0, 2).
_clip_padded, the one Sutherland-Hodgman clip, cuts (n, k, 2) polygon
batches held in padded vertex columns: clip_areas_to_rect cuts quads by
the frame's sides with it, and intersection_areas, evaluate's pair
kernel, cuts each quad by the other's edges.  The other batch kernels
(canonical order, degeneracy, areas, enclosing bounds, orientation) work
on the eight coordinate columns of (n, 4, 2) quad batches, in the order
of numpy's reduction over the vertex axis, so they keep its bits.  The
one-polygon functions are batch-of-one views of the kernels and pay
their numpy overhead on every call.  Pixel coordinates only: EDGE_TOL is
absolute, so a 1e-5 x 1e-5 (normalized) box reads degenerate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

# On-edge and zero-area tolerance, in pixel units (px, px^2).  Coordinates
# are O(10^3) pixels, so double precision leaves ~6 orders of headroom.
EDGE_TOL = 1e-9

_EMPTY = np.zeros((0, 2))


@dataclass(frozen=True)
class RectAA:
    """Axis-aligned rectangle (frame bounds or an enclosing HBB)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise GeometryError(f"non-finite rectangle bounds {vals}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise GeometryError(f"inverted rectangle bounds {vals}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


def as_poly(points) -> np.ndarray:
    """Coerce to a (k, 2) float64 vertex array, rejecting non-finite input."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        return _EMPTY
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected (k, 2) vertex array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GeometryError("non-finite coordinate in polygon")
    return arr


def as_quad(points) -> np.ndarray:
    """Coerce to a (4, 2) float64 quad, rejecting non-finite input."""
    v = as_poly(points)
    if v.shape[0] != 4:
        raise GeometryError(f"quad requires exactly 4 vertices, got {v.shape[0]}")
    return v


def polygon_area(poly) -> float:
    """Unsigned polygon area via the shoelace sum; < 3 vertices gives 0.

    Vertices are taken relative to the first one, which keeps the sum
    exact for axis-aligned rectangles (area equals the width-height
    product bit-for-bit) and accurate for polygons far from the origin.
    """
    # cut by no planes: the vertices in a padded row, as _padded_areas reads them
    return _padded_areas(*_clip_padded(as_poly(poly)[None], ())).item()


def normalize_quad(points) -> tuple[np.ndarray, bool]:
    """Canonicalize a 4-point quad and flag degenerate geometry.

    Returns ``(verts, degenerate)``: ``canonical_order`` and
    ``degenerate_mask`` of a batch of one.  Degenerate quads are still
    returned; the caller decides whether to drop or keep them.
    """
    v = as_quad(points)
    # copy: a row view would keep its one-quad batch array alive beside it
    return canonical_order(v[None])[0].copy(), bool(degenerate_mask(v[None])[0])


def clip_to_rect(poly, rect: RectAA) -> np.ndarray:
    """Clip a convex k-gon to an axis-aligned rectangle (<= k + 4 vertices).

    A vertex within EDGE_TOL outside a side is moved onto it, so the clipped
    area never exceeds the rectangle's beyond rounding.
    """
    x, y, (n,) = _clip_padded(as_poly(poly)[None], _rect_planes(rect), snap=True)
    return np.stack([x[0, :n], y[0, :n]], axis=1)


def _rect_planes(rect: RectAA) -> tuple:
    # sign * (coordinate - bound) as _clip_padded's distance: the other axis's term is a zero
    return (rect.x_min, 0.0, 0.0, -1.0), (rect.x_max, 0.0, 0.0, 1.0), (0.0, rect.y_min, 1.0, 0.0), (0.0, rect.y_max, -1.0, 0.0)


def convex_intersection(a, b) -> np.ndarray:
    """Intersection polygon of two convex quads via half-plane clipping."""
    pair = canonical_order(np.stack([as_quad(a), as_quad(b)]))
    x, y, (n,) = _clip_padded(pair[:1], _edge_planes(pair[1:]))
    return np.stack([x[0, :n], y[0, :n]], axis=1)


def iou_obb(a, b) -> float:
    """Rotated IoU between two quads: area(a∩b) / area(a∪b).

    All three areas come from the same shoelace terms on canonically
    ordered vertices, so identical regions give exactly 1.0.
    """
    pair = canonical_order(np.stack([as_quad(a), as_quad(b)]))
    return _iou(*intersection_areas(pair[:1], pair[1:]).tolist(), *shoelace_areas(pair).tolist())


def _iou(inter: float, area_a: float, area_b: float) -> float:
    """IoU from the intersection area and both quads' areas: iou_obb's finish, and evaluate's per-pair call."""
    if area_a <= 0.0 and area_b <= 0.0:
        raise GeometryError("IoU undefined: both quads have zero area")
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, inter / union)


def enclosing_hbb(poly) -> RectAA:
    """Minimum enclosing axis-aligned rectangle of a polygon."""
    v = as_poly(poly)
    if v.shape[0] == 0:
        raise GeometryError("cannot enclose an empty polygon")
    return RectAA(*enclosing_bounds(v[None])[0].tolist())


def obb_orientation_deg(poly) -> float:
    """Angle of the longer edge pair against the horizontal, in [0, 90].

    Opposite edges are averaged into two pair lengths; the direction of
    the longer pair's leading edge is folded into [0, 90] degrees.  For
    a square (pairs equal within tolerance) the first edge in canonical
    order decides.
    """
    v = as_quad(poly)[None]
    if degenerate_mask(v)[0]:
        raise GeometryError("orientation undefined for degenerate quad")
    return float(orientations_deg(v)[0])


def quad_from_rect(cx: float, cy: float, w: float, h: float, angle_deg: float) -> np.ndarray:
    """Corner array of a w x h rectangle rotated CCW about its center."""
    t = math.radians(angle_deg)
    c, s = math.cos(t), math.sin(t)
    dx = np.array([-w, w, w, -w]) / 2.0
    dy = np.array([-h, -h, h, h]) / 2.0
    return np.stack([cx + dx * c - dy * s, cy + dx * s + dy * c], axis=1)


# ---------------------------------------------------------------------------
# Batch kernels: per-frame coverage, label files, matching and TR analysis.


def _columns(quads: np.ndarray) -> tuple[list, list]:
    """The x and the y column of each vertex of an (n, k, 2) batch: k (n,) views each."""
    k = range(quads.shape[1])
    return [quads[:, i, 0] for i in k], [quads[:, i, 1] for i in k]


def _signed_areas2(quads: np.ndarray) -> np.ndarray:
    x, y = _columns(quads)
    x, y = [xi - x[0] for xi in x], [yi - y[0] for yi in y]
    t = [x[i] * y[(i + 1) % 4] - x[(i + 1) % 4] * y[i] for i in range(4)]
    return ((t[0] + t[1]) + t[2]) + t[3]  # numpy's order for a sum over a length-4 axis


def shoelace_areas(quads: np.ndarray) -> np.ndarray:
    """Unsigned areas of an (n, 4, 2) quad batch, anchored at vertex 0."""
    return np.abs(_signed_areas2(quads)) / 2.0


def _vertex_order(ties: int, clockwise: bool) -> list[int]:
    at_min = [i for i in range(4) if ties >> i & 1]
    if clockwise:  # the last vertex at the minimum, walking backward: the first one of the reversed quad
        return [(max(at_min, default=3) - k) % 4 for k in range(4)]
    return [(min(at_min, default=0) + k) % 4 for k in range(4)]


# canonical_order's 8 vertex orders (4 starts x 2 windings), indexed by the 4-bit mask of the vertices
# at the (y, x) minimum plus 16 for a clockwise quad; an empty mask (NaN) starts as argmax would
_ORDERS = np.array([_vertex_order(ties, clockwise) for clockwise in (False, True) for ties in range(16)])


def canonical_order(quads: np.ndarray) -> np.ndarray:
    """Canonical vertex order of an (n, 4, 2) quad batch.

    The canonical form has positive (counter-clockwise) winding and
    starts at the lexicographically smallest vertex, keyed by (y, x);
    the first such vertex wins ties.  Degenerate quads are reordered by
    the same rule.
    """
    x, y = _columns(quads)
    y_min = np.minimum(np.minimum(y[0], y[1]), np.minimum(y[2], y[3]))
    x_low = [np.where(yi == y_min, xi, np.inf) for xi, yi in zip(x, y)]
    x_min = np.minimum(np.minimum(x_low[0], x_low[1]), np.minimum(x_low[2], x_low[3]))
    code = 16 * (_signed_areas2(quads) < 0) + sum((xi == x_min) << i for i, xi in enumerate(x_low))
    rows = _ORDERS.take(code, axis=0) + 4 * np.arange(quads.shape[0])[:, None]
    return quads.reshape(-1, 2).take(rows, axis=0)  # take: about 10x cheaper than indexing with rows


def degenerate_mask(quads: np.ndarray) -> np.ndarray:
    """Degeneracy flags of an (n, 4, 2) quad batch, in any vertex order.

    A quad is flagged when its area is ~0 or its consecutive-edge cross
    products take both signs (covers bow-ties and non-convex quads).
    """
    x, y = _columns(quads)
    ex, ey = [x[(i + 1) % 4] - x[i] for i in range(4)], [y[(i + 1) % 4] - y[i] for i in range(4)]
    cr = [ex[i] * ey[(i + 1) % 4] - ey[i] * ex[(i + 1) % 4] for i in range(4)]
    pos = (cr[0] > EDGE_TOL) | (cr[1] > EDGE_TOL) | (cr[2] > EDGE_TOL) | (cr[3] > EDGE_TOL)
    neg = (cr[0] < -EDGE_TOL) | (cr[1] < -EDGE_TOL) | (cr[2] < -EDGE_TOL) | (cr[3] < -EDGE_TOL)
    return (pos & neg) | (shoelace_areas(quads) <= EDGE_TOL)


def enclosing_bounds(quads: np.ndarray) -> np.ndarray:
    """Enclosing-box bounds (x_min, y_min, x_max, y_max) of an (n, k, 2) batch, as (n, 4)."""
    vertices = [quads[:, i] for i in range(quads.shape[1])]
    return np.concatenate([functools.reduce(np.minimum, vertices), functools.reduce(np.maximum, vertices)], axis=1)


def rect_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Axis-aligned IoUs of enclosing_bounds rows ``(..., 4)``, broadcast: ``a[:, None]``, ``b[None]`` for every pair."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    hit = (iw > 0.0) & (ih > 0.0)
    inter = iw * ih
    union = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1]) + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter
    if (hit & (union <= 0.0)).any():
        raise GeometryError("IoU undefined: both rectangles have zero area")
    return np.where(hit, np.minimum(1.0, inter / np.where(hit, union, 1.0)), 0.0)


def orientations_deg(quads: np.ndarray) -> np.ndarray:
    """obb_orientation_deg of an (n, 4, 2) batch; degenerate quads are not checked."""
    x, y = _columns(canonical_order(quads))
    ex, ey = [x[(i + 1) % 4] - x[i] for i in range(4)], [y[(i + 1) % 4] - y[i] for i in range(4)]
    lengths = [np.hypot(exi, eyi) for exi, eyi in zip(ex, ey)]
    pair0 = (lengths[0] + lengths[2]) / 2.0
    pair1 = (lengths[1] + lengths[3]) / 2.0
    longer1 = (pair1 > pair0 * (1.0 + 1e-12)) & (pair1 - pair0 > EDGE_TOL)
    ang = np.degrees(np.arctan2(np.where(longer1, ey[1], ey[0]), np.where(longer1, ex[1], ex[0]))) % 180.0
    return np.where(ang > 90.0, 180.0 - ang, ang)


def clip_areas_to_rect(quads: np.ndarray, rect: RectAA) -> np.ndarray:
    """Areas of quad ∩ rect for an (n, 4, 2) batch.

    Quads fully inside the rectangle take a plain shoelace fast path;
    the rest run clip_to_rect's clip, snap included, and sum each row
    with numpy.  Results match polygon_area(clip_to_rect(quad, rect))
    bit-for-bit on the fast path and to ~1e-11 px^2 on the clipped path.
    """
    n = quads.shape[0]
    if n == 0:
        return np.zeros(0)
    b = enclosing_bounds(quads)
    inside = (b[:, 0] >= rect.x_min) & (b[:, 2] <= rect.x_max) & (b[:, 1] >= rect.y_min) & (b[:, 3] <= rect.y_max)
    areas = np.zeros(n)
    if inside.any():
        areas[inside] = shoelace_areas(quads[inside])
    rest = ~inside
    if rest.any():
        areas[rest] = _clip_areas_batch(quads[rest], rect)
    return areas


def _clip_areas_batch(quads: np.ndarray, rect: RectAA) -> np.ndarray:
    x, y, counts = _clip_padded(quads, _rect_planes(rect), snap=True)
    slot = np.arange(x.shape[1])
    nxt = np.arange(0, x.size, slot.size)[:, None] + np.where(slot + 1 < counts[:, None], slot + 1, 0)
    x, y = x - x[:, :1], y - y[:, :1]
    s = np.where(slot < counts[:, None], x * y.take(nxt) - x.take(nxt) * y, 0.0).sum(axis=1)
    return np.abs(s) / 2.0


_PAIR_BLOCK = 256  # intersection_areas' pairs per pass, which bound its temporaries


def _clip_padded(polys: np.ndarray, planes, snap: bool = False) -> tuple:
    """Sutherland-Hodgman clip of each convex polygon of an (n, k, 2) batch by each ``(px, py, ex, ey)`` plane in turn.

    A plane keeps the left of the line through (px, py) along (ex, ey), to
    EDGE_TOL; its terms are scalars or (n, 1) columns.  With ``snap``
    (scalar unit-length planes only), a vertex kept from within EDGE_TOL
    outside a plane is moved onto it, so the result lies inside every plane.
    Rows hold k + 5 vertex slots: a convex k-gon cut by 4 planes has at most
    k + 4 vertices, and a plane that gives a non-convex row more widens every
    row.  Returns the (n, m) x and y vertex columns and the vertex counts; a
    row of fewer than 3 vertices, cut or not, counts 0.
    """
    n, k = polys.shape[:2]
    x, y = np.zeros((2, n, k + 5))
    x[:, :k], y[:, :k] = polys[..., 0], polys[..., 1]
    counts = np.full(n, k if k >= 3 else 0)
    for px, py, ex, ey in planes:
        slot, c = np.arange(x.shape[1]), counts[:, None]
        # the flat index of each vertex's successor
        nxt = np.arange(0, x.size, slot.size)[:, None] + np.where(slot + 1 < c, slot + 1, 0)
        d = ex * (y - py) - ey * (x - px)
        dn = d.take(nxt)
        valid, ahead = slot < c, d >= -EDGE_TOL
        keep = ahead & valid
        cross = valid & np.where(ahead, (d > EDGE_TOL) & (dn < -EDGE_TOL), dn > EDGE_TOL)
        ends = np.cumsum(keep.view(np.int8) + cross.view(np.int8), axis=1)
        width = max(slot.size, ends[:, -1].max(initial=0))
        at = np.arange(0, n * width, width)[:, None] + ends - 1  # the flat slot of each vertex's last output
        x_out, y_out = np.zeros((2, n, width))
        i = np.flatnonzero(keep)
        xk, yk = x.take(i), y.take(i)
        if snap:
            dk = d.take(i)
            xk, yk = np.where(dk < 0.0, xk + dk * ey, xk), np.where(dk < 0.0, yk - dk * ex, yk)
        kept = at.take(i) - cross.take(i)
        np.put(x_out, kept, xk)
        np.put(y_out, kept, yk)
        i = np.flatnonzero(cross)
        dc, xc, yc, succ = d.take(i), x.take(i), y.take(i), nxt.take(i)
        t = dc / (dc - dn.take(i))
        np.put(x_out, at.take(i), xc + t * (x.take(succ) - xc))
        np.put(y_out, at.take(i), yc + t * (y.take(succ) - yc))
        x, y, counts = x_out, y_out, np.where(ends[:, -1] >= 3, ends[:, -1], 0)
    return x, y, counts


def _edge_planes(quads: np.ndarray) -> list:
    """The edges 0->1, 1->2, 2->3, 3->0 of a counter-clockwise (n, 4, 2) quad batch as _clip_padded planes."""
    e = quads[:, [1, 2, 3, 0]] - quads
    return [(quads[:, k, :1], quads[:, k, 1:], e[:, k, :1], e[:, k, 1:]) for k in range(4)]


def _padded_areas(x: np.ndarray, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shoelace areas of padded (n, m) vertex columns holding counts[i] vertices each, anchored at vertex 0."""
    x, y = x - x[:, :1], y - y[:, :1]
    # the terms of vertices j, j + 1 for j = 1..m - 2 (vertex 0's two edges add 0), summed in order by cumsum
    terms = np.where(np.arange(2, x.shape[1]) < counts[:, None], x[:, 1:-1] * y[:, 2:] - x[:, 2:] * y[:, 1:-1], 0.0)
    return np.abs(terms.cumsum(axis=1)[:, -1]) / 2.0


def intersection_areas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Areas of a[i] ∩ b[i] for two (n, 4, 2) batches of quads in canonical order.

    a[i] is cut by b[i]'s edges with _clip_padded and measured with
    _padded_areas, as polygon_area measures it, _PAIR_BLOCK pairs a pass.
    """
    areas = np.zeros(len(a))
    for i in range(0, len(a), _PAIR_BLOCK):
        block = slice(i, i + _PAIR_BLOCK)
        areas[block] = _padded_areas(*_clip_padded(a[block], _edge_planes(b[block])))
    return areas
