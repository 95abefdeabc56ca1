"""Exact 2-D polygon operations for oriented boxes.

Quads and clip polygons are plain float64 arrays of shape (k, 2) with
vertices in order; an empty polygon is an array of shape (0, 2).  All
scalar operations are pure functions; one Sutherland-Hodgman loop
(_clip: frame sides for clip_to_rect, quad edges for the rotated IoU)
and the polygon area run on Python float lists, which is cheaper than
numpy on a handful of vertices.  iou_canonical, evaluate's per-pair IoU,
takes quads already in canonical order with their areas; iou_obb orders
and measures its two quads, then calls it.  The batch kernels (canonical order,
degeneracy, areas, enclosing bounds, orientation, frame clipping) take
(n, 4, 2) quad batches, and the one-quad functions wrap them.  Pixel
coordinates only: EDGE_TOL is absolute, so a 1e-5 x 1e-5 (normalized)
box reads degenerate.
"""

from __future__ import annotations

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
    return _area(as_poly(poly).tolist())


def _area(pts: list) -> float:
    """polygon_area of a list of [x, y] vertices."""
    if len(pts) < 3:
        return 0.0
    x0, y0 = pts[0]
    s = 0.0
    # the edges into and out of vertex 0 add 0 relative to it
    for (xa, ya), (xb, yb) in zip(pts[1:], pts[2:]):
        s += (xa - x0) * (yb - y0) - (xb - x0) * (ya - y0)
    return abs(s) / 2.0


def normalize_quad(points) -> tuple[np.ndarray, bool]:
    """Canonicalize a 4-point quad and flag degenerate geometry.

    Returns ``(verts, degenerate)``: ``canonical_order`` and
    ``degenerate_mask`` of a batch of one.  Degenerate quads are still
    returned; the caller decides whether to drop or keep them.
    """
    v = as_quad(points)
    # copy: a row view would keep its one-quad batch array alive beside it
    return canonical_order(v[None])[0].copy(), bool(degenerate_mask(v[None])[0])


def _clip(poly: list, planes) -> list:
    """A convex polygon of [x, y] vertices cut by each ``(px, py, ex, ey)`` plane in turn; fewer than 3 vertices is [].

    A plane keeps the left of the line through (px, py) along (ex, ey), to EDGE_TOL.
    """
    for px, py, ex, ey in planes:
        xc, yc = poly[0]
        dc = ex * (yc - py) - ey * (xc - px)
        out: list = []
        for xn, yn in poly[1:] + poly[:1]:
            dn = ex * (yn - py) - ey * (xn - px)
            if dc >= -EDGE_TOL:
                out.append((xc, yc))
                if dc > EDGE_TOL and dn < -EDGE_TOL:
                    t = dc / (dc - dn)
                    out.append((xc + t * (xn - xc), yc + t * (yn - yc)))
            elif dn > EDGE_TOL:
                t = dc / (dc - dn)
                out.append((xc + t * (xn - xc), yc + t * (yn - yc)))
            xc, yc, dc = xn, yn, dn
        if len(out) < 3:
            return []
        poly = out
    return poly


def _edge_planes(q: list) -> tuple:
    """The four edges 0->1, 1->2, 2->3, 3->0 of a canonical (counter-clockwise) quad as _clip planes."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = q
    return (ax, ay, bx - ax, by - ay), (bx, by, cx - bx, cy - by), (cx, cy, dx - cx, dy - cy), (dx, dy, ax - dx, ay - dy)


def _as_poly_array(pts: list) -> np.ndarray:
    return np.array(pts, dtype=np.float64) if pts else _EMPTY


def clip_to_rect(poly, rect: RectAA) -> np.ndarray:
    """Clip a convex polygon to an axis-aligned rectangle (<= 8 vertices)."""
    v = as_poly(poly)
    if v.shape[0] < 3:
        return _EMPTY
    # sign * (coordinate - bound) as _clip's distance: the other axis's term is a zero
    planes = ((rect.x_min, 0.0, 0.0, -1.0), (rect.x_max, 0.0, 0.0, 1.0), (0.0, rect.y_min, 1.0, 0.0), (0.0, rect.y_max, -1.0, 0.0))
    return _as_poly_array(_clip(v.tolist(), planes))


def _canonical_quad(points) -> list:
    """canonical_order of one quad on Python floats, as four [x, y] lists; as_quad's checks and errors."""
    try:
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = points.tolist() if isinstance(points, np.ndarray) else points
        c = [float(v) for v in (x0, y0, x1, y1, x2, y2, x3, y3)]
    except (TypeError, ValueError, OverflowError):
        c = []
    if len(c) != 8 or not all(map(math.isfinite, c)):
        c = as_quad(points).reshape(-1).tolist()  # raises unless an odd input holds a valid quad
    x0, y0, x1, y1, x2, y2, x3, y3 = c
    ax, ay, bx, by, cx, cy, dx, dy = x0 - x0, y0 - y0, x1 - x0, y1 - y0, x2 - x0, y2 - y0, x3 - x0, y3 - y0
    # _signed_areas2's vertex-0-anchored shoelace terms, in its order
    s = (ax * by - bx * ay) + (bx * cy - cx * by) + (cx * dy - dx * cy) + (dx * ay - ax * dy)
    q = [[x0, y0], [x1, y1], [x2, y2], [x3, y3]]
    if s < 0:
        q.reverse()
    keys = [(y, x) for x, y in q]
    start = keys.index(min(keys))  # the first smallest (y, x)
    return q[start:] + q[:start]


def convex_intersection(a, b) -> np.ndarray:
    """Intersection polygon of two convex quads via half-plane clipping."""
    return _as_poly_array(_clip(_canonical_quad(a), _edge_planes(_canonical_quad(b))))


def iou_obb(a, b) -> float:
    """Rotated IoU between two quads: area(a∩b) / area(a∪b).

    All three areas come from the same function on canonically ordered
    vertices, so identical regions give exactly 1.0.
    """
    va, vb = _canonical_quad(a), _canonical_quad(b)
    return iou_canonical(va, vb, _area(va), _area(vb))


def iou_canonical(va: list, vb: list, area_a: float, area_b: float) -> float:
    """iou_obb of two quads in canonical order, as four [x, y] lists, given their areas (_area or shoelace_areas bits).

    evaluate's per-pair kernel: each quad is ordered and measured once, not once per pair.
    """
    if area_a <= 0.0 and area_b <= 0.0:
        raise GeometryError("IoU undefined: both quads have zero area")
    inter = _area(_clip(va, _edge_planes(vb)))
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


_NEXT = np.array([1, 2, 3, 0])  # successor of each quad vertex; take() is ~10x cheaper than np.roll on 4 rows


def _signed_areas2(quads: np.ndarray) -> np.ndarray:
    r = quads - quads[:, :1]
    x, y = r[..., 0], r[..., 1]
    return (x * y.take(_NEXT, axis=1) - x.take(_NEXT, axis=1) * y).sum(axis=1)


def shoelace_areas(quads: np.ndarray) -> np.ndarray:
    """Unsigned areas of an (n, 4, 2) quad batch, anchored at vertex 0."""
    return np.abs(_signed_areas2(quads)) / 2.0


def canonical_order(quads: np.ndarray) -> np.ndarray:
    """Canonical vertex order of an (n, 4, 2) quad batch.

    The canonical form has positive (counter-clockwise) winding and
    starts at the lexicographically smallest vertex, keyed by (y, x);
    the first such vertex wins ties.  Degenerate quads are reordered by
    the same rule.
    """
    q = np.where((_signed_areas2(quads) < 0)[:, None, None], quads[:, ::-1], quads)
    x, y = q[..., 0], q[..., 1]
    x_low = np.where(y == y.min(axis=1, keepdims=True), x, np.inf)
    start = np.argmax(x_low == x_low.min(axis=1, keepdims=True), axis=1)
    return q[np.arange(q.shape[0])[:, None], (start[:, None] + np.arange(4)) % 4]


def degenerate_mask(quads: np.ndarray) -> np.ndarray:
    """Degeneracy flags of an (n, 4, 2) quad batch, in any vertex order.

    A quad is flagged when its area is ~0 or its consecutive-edge cross
    products take both signs (covers bow-ties and non-convex quads).
    """
    e = quads.take(_NEXT, axis=1) - quads
    e_next = e.take(_NEXT, axis=1)
    cr = e[..., 0] * e_next[..., 1] - e[..., 1] * e_next[..., 0]
    mixed = (cr > EDGE_TOL).any(axis=1) & (cr < -EDGE_TOL).any(axis=1)
    return mixed | (shoelace_areas(quads) <= EDGE_TOL)


def enclosing_bounds(quads: np.ndarray) -> np.ndarray:
    """Enclosing-box bounds (x_min, y_min, x_max, y_max) of an (n, k, 2) batch, as (n, 4)."""
    return np.concatenate([quads.min(axis=1), quads.max(axis=1)], axis=1)


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
    v = canonical_order(quads)
    e = v.take(_NEXT, axis=1) - v
    lengths = np.hypot(e[..., 0], e[..., 1])
    pair0 = (lengths[:, 0] + lengths[:, 2]) / 2.0
    pair1 = (lengths[:, 1] + lengths[:, 3]) / 2.0
    longer1 = (pair1 > pair0 * (1.0 + 1e-12)) & (pair1 - pair0 > EDGE_TOL)
    edge = np.where(longer1[:, None], e[:, 1], e[:, 0])
    ang = np.degrees(np.arctan2(edge[:, 1], edge[:, 0])) % 180.0
    return np.where(ang > 90.0, 180.0 - ang, ang)


def clip_areas_to_rect(quads: np.ndarray, rect: RectAA) -> np.ndarray:
    """Areas of quad ∩ rect for an (n, 4, 2) batch.

    Quads fully inside the rectangle take a plain shoelace fast path;
    the rest run a padded, vectorized Sutherland-Hodgman pass.  Results
    match the scalar clip_to_rect + polygon_area route bit-for-bit on
    the fast path and to ~1e-11 px^2 on the clipped path.
    """
    n = quads.shape[0]
    if n == 0:
        return np.zeros(0)
    xs, ys = quads[..., 0], quads[..., 1]
    inside = (
        (xs.min(axis=1) >= rect.x_min)
        & (xs.max(axis=1) <= rect.x_max)
        & (ys.min(axis=1) >= rect.y_min)
        & (ys.max(axis=1) <= rect.y_max)
    )
    areas = np.zeros(n)
    if inside.any():
        areas[inside] = shoelace_areas(quads[inside])
    rest = ~inside
    if rest.any():
        areas[rest] = _clip_areas_batch(quads[rest], rect)
    return areas


def _clip_areas_batch(quads: np.ndarray, rect: RectAA) -> np.ndarray:
    n = quads.shape[0]
    m_cap = 9  # a quad clipped by 4 half-planes has at most 8 vertices
    verts = np.zeros((n, m_cap, 2))
    verts[:, :4] = quads
    counts = np.full(n, 4, dtype=np.int64)
    rows = np.arange(n)[:, None]
    for axis, sign, bound in (
        (0, 1.0, rect.x_min),
        (0, -1.0, rect.x_max),
        (1, 1.0, rect.y_min),
        (1, -1.0, rect.y_max),
    ):
        m = int(counts.max(initial=0))
        if m == 0:
            break
        v = verts[:, :m]
        d = sign * (v[..., axis] - bound)
        idx = np.arange(m)
        valid = idx < counts[:, None]
        nxt = np.where(idx + 1 < counts[:, None], idx + 1, 0)
        d_nxt = np.take_along_axis(d, nxt, axis=1)
        v_nxt = np.take_along_axis(v, nxt[..., None], axis=1)
        emit_cur = (d >= -EDGE_TOL) & valid
        emit_cross = (((d > EDGE_TOL) & (d_nxt < -EDGE_TOL)) | ((d < -EDGE_TOL) & (d_nxt > EDGE_TOL))) & valid
        denom = np.where(emit_cross, d - d_nxt, 1.0)
        t = np.where(emit_cross, d / denom, 0.0)
        inter = v + t[..., None] * (v_nxt - v)
        per_edge = emit_cur.astype(np.int64) + emit_cross.astype(np.int64)
        start = np.cumsum(per_edge, axis=1) - per_edge
        new_counts = start[:, -1] + per_edge[:, -1]
        out = np.zeros((n, m_cap, 2))
        flat = out.reshape(-1, 2)
        flat[(rows * m_cap + start)[emit_cur]] = v[emit_cur]
        flat[(rows * m_cap + start + emit_cur)[emit_cross]] = inter[emit_cross]
        verts = out
        counts = np.where(new_counts >= 3, new_counts, 0)
    m = verts.shape[1]
    idx = np.arange(m)
    valid = idx < counts[:, None]
    nxt = np.where(idx + 1 < counts[:, None], idx + 1, 0)
    rel = verts - verts[:, :1]
    x, y = rel[..., 0], rel[..., 1]
    x_n = np.take_along_axis(x, nxt, axis=1)
    y_n = np.take_along_axis(y, nxt, axis=1)
    s = np.where(valid, x * y_n - x_n * y, 0.0).sum(axis=1)
    return np.abs(s) / 2.0
