"""Independent oracles used by the test suite.

These deliberately avoid the library's clipping/AP code paths:
intersection areas come from point-membership counting (Monte Carlo
with jittered-grid stratification, or a deterministic raster grid),
and AP comes from a brute-force sweep over confidence cut points.
"""

from __future__ import annotations

import math

import numpy as np


def _ccw(quad: np.ndarray) -> np.ndarray:
    x, y = quad[:, 0], quad[:, 1]
    s = np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))
    return quad if s >= 0 else quad[::-1].copy()


def _tri_area(t: np.ndarray) -> float:
    return abs(
        (t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1]) - (t[1, 1] - t[0, 1]) * (t[2, 0] - t[0, 0])
    ) / 2.0


def _split_samples(quad_a: np.ndarray, n: int) -> tuple[list[tuple[np.ndarray, int]], float]:
    """Split ccw quad a into triangles (0,1,2), (0,2,3) and allot the n samples by area."""
    tris = (quad_a[[0, 1, 2]], quad_a[[0, 2, 3]])
    areas = [_tri_area(t) for t in tris]
    total = areas[0] + areas[1]
    if total <= 0.0:
        return [], total
    m0 = int(round(n * areas[0] / total))
    return [(tris[0], m0), (tris[1], n - m0)], total


# (id(jitter), offset, m) -> (jitter, M); the reference keeps the id from being reused.
_POINTS_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_POINTS_CACHE_SIZE = 2


def _unit_triangle_points(jitter: np.ndarray, offset: int, m: int) -> np.ndarray:
    """The m samples of the jitter block at ``offset`` as a (3, m) matrix [1; u; v].

    The first g*g points (g = isqrt(m)) form a jittered g x g grid on the
    unit square, the rest take their (u, v) straight from the block; points
    with u + v > 1 are folded into the unit triangle.  Matrices are cached
    by the identity of ``jitter``, so the array must not be changed in place
    while it is being reused.
    """
    key = (id(jitter), offset, m)
    cached = _POINTS_CACHE.get(key)
    if cached is not None and cached[0] is jitter:
        return cached[1]
    block = jitter[offset : offset + 2 * m]
    g = math.isqrt(m)
    k = g * g
    gi, gj = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    u = np.concatenate([(gi.reshape(-1) + block[0 : 2 * k : 2]) / g, block[2 * k :: 2]])
    v = np.concatenate([(gj.reshape(-1) + block[1 : 2 * k : 2]) / g, block[2 * k + 1 :: 2]])
    flip = u + v > 1.0
    points = np.empty((3, m))
    points[0] = 1.0
    points[1] = np.where(flip, 1.0 - u, u)
    points[2] = np.where(flip, 1.0 - v, v)
    while len(_POINTS_CACHE) >= _POINTS_CACHE_SIZE:
        del _POINTS_CACHE[next(iter(_POINTS_CACHE))]
    _POINTS_CACHE[key] = (jitter, points)
    return points


def _edge_coefficients(tri: np.ndarray, quad_b: np.ndarray) -> np.ndarray:
    """(4, 3) rows (alpha, beta, gamma): edge k of ccw quad b holds p(u, v) iff
    alpha + beta*u + gamma*v >= 0, where p = t0 + u*(t1 - t0) + v*(t2 - t0)."""
    dx = np.roll(quad_b[:, 0], -1) - quad_b[:, 0]
    dy = np.roll(quad_b[:, 1], -1) - quad_b[:, 1]
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]
    return np.stack(
        [
            dx * (tri[0, 1] - quad_b[:, 1]) - dy * (tri[0, 0] - quad_b[:, 0]),
            dx * e1[1] - dy * e1[0],
            dx * e2[1] - dy * e2[0],
        ],
        axis=1,
    )


def _count_hits(blocks, quad_b: np.ndarray, jitter: np.ndarray) -> int:
    """How many samples of the (triangle, count) blocks, taken from ``jitter``
    in order, fall in ccw quad b."""
    hits = 0
    offset = 0
    for tri, m in blocks:
        if m <= 0:
            continue
        points = _unit_triangle_points(jitter, offset, m)
        offset += 2 * m
        margins = _edge_coefficients(tri, quad_b) @ points
        hits += int(np.count_nonzero(np.minimum.reduce(margins) >= 0.0))
    return hits


def mc_intersection_area(quad_a, quad_b, n: int = 1_000_000, rng=None, jitter=None) -> float:
    """Monte-Carlo estimate of area(a ∩ b) from n uniform samples in a.

    Samples are drawn uniformly inside quad a (two triangles, allocated
    by area, each with a jittered-grid stratification), and membership
    in quad b is counted.  ``jitter`` may supply the 2n uniform variates
    up front so they can be reused across pairs; the sample points built
    from it are then reused as well.
    """
    blocks, total = _split_samples(_ccw(np.asarray(quad_a, dtype=np.float64)), n)
    if total <= 0.0:
        return 0.0
    if jitter is None:
        if rng is None:
            rng = np.random.default_rng(0)
        jitter = rng.random(2 * n)
    b = _ccw(np.asarray(quad_b, dtype=np.float64))
    return total * _count_hits(blocks, b, jitter) / n


def _inside_convex(px: np.ndarray, py: np.ndarray, quad: np.ndarray) -> np.ndarray:
    quad = _ccw(quad)
    inside = np.ones(px.shape, dtype=bool)
    for k in range(4):
        k2 = (k + 1) % 4
        cr = (quad[k2, 0] - quad[k, 0]) * (py - quad[k, 1]) - (quad[k2, 1] - quad[k, 1]) * (
            px - quad[k, 0]
        )
        inside &= cr >= 0.0
    return inside


def raster_iou(quad_a, quad_b, resolution: int = 3000) -> float:
    """Deterministic grid-membership IoU of two convex quads."""
    a = np.asarray(quad_a, dtype=np.float64)
    b = np.asarray(quad_b, dtype=np.float64)
    both = np.vstack([a, b])
    x0, y0 = both.min(axis=0) - 1e-9
    x1, y1 = both.max(axis=0) + 1e-9
    xs = np.linspace(x0, x1, resolution, endpoint=False) + (x1 - x0) / (2 * resolution)
    ys = np.linspace(y0, y1, resolution, endpoint=False) + (y1 - y0) / (2 * resolution)
    px, py = np.meshgrid(xs, ys)
    px = px.reshape(-1)
    py = py.reshape(-1)
    in_a = _inside_convex(px, py, a)
    in_b = _inside_convex(px, py, b)
    inter = int((in_a & in_b).sum())
    union = int((in_a | in_b).sum())
    if union == 0:
        return 0.0
    return inter / union


def raster_clip_area(quad, x_min, y_min, x_max, y_max, resolution: int = 2000) -> float:
    """Deterministic grid-membership area of quad ∩ rectangle."""
    xs = np.linspace(x_min, x_max, resolution, endpoint=False) + (x_max - x_min) / (2 * resolution)
    ys = np.linspace(y_min, y_max, resolution, endpoint=False) + (y_max - y_min) / (2 * resolution)
    px, py = np.meshgrid(xs, ys)
    frac = _inside_convex(px.reshape(-1), py.reshape(-1), np.asarray(quad, dtype=np.float64))
    cell = ((x_max - x_min) / resolution) * ((y_max - y_min) / resolution)
    return float(frac.sum()) * cell


def brute_force_ap(samples: list[tuple[float, bool]], total_gt: int) -> float:
    """All-points AP via explicit enumeration of confidence cut points.

    For every distinct recall level, the envelope precision is the
    maximum precision among cut points reaching at least that recall;
    AP is the stepwise integral of the envelope over recall.
    """
    if total_gt == 0:
        raise ValueError("brute_force_ap needs total_gt > 0")
    if not samples:
        return 0.0
    ordered = sorted(enumerate(samples), key=lambda item: (-item[1][0], item[0]))
    points = []
    tp = 0
    for k, (_, (_conf, is_tp)) in enumerate(ordered, start=1):
        if is_tp:
            tp += 1
        points.append((tp / total_gt, tp / k))
    recalls = sorted({r for r, _ in points if r > 0})
    ap = 0.0
    prev = 0.0
    for r in recalls:
        p_env = max(p for rk, p in points if rk >= r)
        ap += (r - prev) * p_env
        prev = r
    return ap


def random_convex_quad(rng, center, scale) -> np.ndarray:
    """Random convex quad: 4 points on a random ellipse at sorted angles."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
    # reject near-duplicate angles to avoid slivers
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.3:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
    rx = rng.uniform(0.3, 1.0) * scale
    ry = rng.uniform(0.3, 1.0) * scale
    tilt = rng.uniform(0.0, np.pi)
    c, s = np.cos(tilt), np.sin(tilt)
    ex = rx * np.cos(angles)
    ey = ry * np.sin(angles)
    return np.stack([center[0] + ex * c - ey * s, center[1] + ex * s + ey * c], axis=1)


EDGE_TOL = 1e-9  # the library's on-edge tolerance, in pixel units


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _segments_properly_cross(p0, p1, q0, q1) -> bool:
    # Proper crossing only; shared endpoints / touching do not count.
    d1 = _cross2(p1 - p0, q0 - p0)
    d2 = _cross2(p1 - p0, q1 - p0)
    d3 = _cross2(q1 - q0, p0 - q0)
    d4 = _cross2(q1 - q0, p1 - q0)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def normalize_quad_reference(points) -> tuple[np.ndarray, bool]:
    """Scalar quad canonicalizer, one vertex and one test at a time.

    Positive winding from the (y, x)-smallest vertex; flagged when the
    area is ~0, opposite edges properly cross, or consecutive edge
    crosses take both signs.
    """
    v = np.asarray(points, dtype=np.float64)
    r = v - v[0]
    s2 = float(np.dot(r[:, 0], np.roll(r[:, 1], -1)) - np.dot(r[:, 1], np.roll(r[:, 0], -1)))
    if s2 < 0:
        v = v[::-1].copy()
        s2 = -s2
    start = min(range(4), key=lambda i: (v[i, 1], v[i, 0]))
    v = np.roll(v, -start, axis=0)

    degenerate = False
    if s2 / 2.0 <= EDGE_TOL:
        degenerate = True
    elif _segments_properly_cross(v[0], v[1], v[2], v[3]) or _segments_properly_cross(v[1], v[2], v[3], v[0]):
        degenerate = True
    else:
        e = np.roll(v, -1, axis=0) - v
        cr = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if (cr > EDGE_TOL).any() and (cr < -EDGE_TOL).any():
            degenerate = True
    return v, degenerate


def match_frame_reference(preds, gts, iou_threshold=0.5, box_mode="obb", audit=None, frame_id=""):
    """The greedy matcher before the enclosing-box prefilter: every same-class pair, one IoU call each."""
    from obbkit.errors import ConfigError
    from obbkit.evaluation import MatchRecord
    from obbkit.geometry import enclosing_hbb, iou_obb, rect_iou

    def _pair_iou(pred, gt, box_mode):
        if box_mode == "hbb":
            return rect_iou(enclosing_hbb(pred.quad), enclosing_hbb(gt.quad))
        return iou_obb(pred.quad, gt.quad)

    if not 0.0 < iou_threshold < 1.0:
        raise ConfigError(f"iou threshold must be in (0, 1), got {iou_threshold}")
    if box_mode not in ("obb", "hbb"):
        raise ConfigError(f"box mode must be 'obb' or 'hbb', got {box_mode!r}")

    live_gts = []
    for i, gt in enumerate(gts):
        if gt.degenerate:
            if audit is not None:
                audit.degenerate_ground_truth += 1
                audit.notes.append(f"{frame_id}: dropped degenerate ground truth #{i}")
            continue
        live_gts.append((i, gt))

    order = []
    for i, pred in enumerate(preds):
        if pred.degenerate:
            if audit is not None:
                audit.degenerate_predictions += 1
                audit.notes.append(f"{frame_id}: dropped degenerate prediction #{i}")
            continue
        order.append(i)
    order.sort(key=lambda i: (-preds[i].confidence, i))

    taken = set()
    records = []
    for i in order:
        pred = preds[i]
        best_iou = 0.0
        best_gt = None
        for gt_idx, gt in live_gts:
            if gt_idx in taken or gt.class_id != pred.class_id:
                continue
            iou = _pair_iou(pred, gt, box_mode)
            if iou > best_iou:
                best_iou = iou
                best_gt = gt_idx
        if best_gt is not None and best_iou >= iou_threshold:
            taken.add(best_gt)
            records.append(
                MatchRecord(frame_id, i, best_gt, best_iou, True, pred.class_id, pred.confidence)
            )
        else:
            records.append(
                MatchRecord(frame_id, i, None, best_iou, False, pred.class_id, pred.confidence)
            )
    return records


def tr_sample_reference(quad) -> tuple[float, float]:
    """(tightness ratio, orientation in degrees) of one quad, one vertex and one scalar at a time."""
    v = np.asarray(quad, dtype=np.float64)
    r = v - v[0]
    area = abs(float(np.dot(r[:, 0], np.roll(r[:, 1], -1)) - np.dot(r[:, 1], np.roll(r[:, 0], -1)))) / 2.0
    hbb_area = (v[:, 0].max() - v[:, 0].min()) * (v[:, 1].max() - v[:, 1].min())
    tr = min(1.0, area / hbb_area)

    c, _ = normalize_quad_reference(v)
    e = np.roll(c, -1, axis=0) - c
    lengths = np.hypot(e[:, 0], e[:, 1])
    pair0 = (lengths[0] + lengths[2]) / 2.0
    pair1 = (lengths[1] + lengths[3]) / 2.0
    edge = e[1] if pair1 > pair0 * (1.0 + 1e-12) and pair1 - pair0 > EDGE_TOL else e[0]
    ang = math.degrees(math.atan2(edge[1], edge[0])) % 180.0
    return tr, (180.0 - ang if ang > 90.0 else ang)
