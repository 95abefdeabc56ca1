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


def _clip_halfplane_reference(poly: list, dist: list) -> list:
    """geometry._clip_halfplane without its all-inside shortcut: every vertex goes through the loop."""
    k = len(poly)
    out: list = []
    for i in range(k):
        j = i + 1 if i + 1 < k else 0
        dc, dn = dist[i], dist[j]
        if dc >= -EDGE_TOL:
            out.append(poly[i])
        if (dc > EDGE_TOL and dn < -EDGE_TOL) or (dc < -EDGE_TOL and dn > EDGE_TOL):
            t = dc / (dc - dn)
            (xc, yc), (xn, yn) = poly[i], poly[j]
            out.append((xc + t * (xn - xc), yc + t * (yn - yc)))
    return out if len(out) >= 3 else []


def _canonical_pair_reference(a, b) -> list:
    """Both quads in canonical order from one canonical_order batch, as [x, y] lists."""
    from obbkit.geometry import as_quad, canonical_order

    return canonical_order(np.stack([as_quad(a), as_quad(b)])).tolist()


def _intersect_reference(va: list, vb: list) -> list:
    v = va
    for i in range(4):
        if not v:
            break
        (px, py), (qx, qy) = vb[i], vb[i + 1 if i < 3 else 0]
        ex, ey = qx - px, qy - py
        v = _clip_halfplane_reference(v, [ex * (y - py) - ey * (x - px) for x, y in v])
    return v


def convex_intersection_reference(a, b) -> np.ndarray:
    """convex_intersection by its former pair route: one batch canonicalization, then full clipping loops."""
    pts = _intersect_reference(*_canonical_pair_reference(a, b))
    return np.array(pts, dtype=np.float64) if pts else np.zeros((0, 2))


def iou_obb_reference(a, b) -> float:
    """iou_obb by its former pair route, as convex_intersection_reference."""
    from obbkit.errors import GeometryError
    from obbkit.geometry import _area

    va, vb = _canonical_pair_reference(a, b)
    area_a, area_b = _area(va), _area(vb)
    if area_a <= 0.0 and area_b <= 0.0:
        raise GeometryError("IoU undefined: both quads have zero area")
    inter = _area(_intersect_reference(va, vb))
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, inter / union)


def rect_iou_reference(a, b) -> float:
    """Axis-aligned IoU of two RectAAs on Python floats, in geometry.rect_ious' operation order."""
    from obbkit.errors import GeometryError

    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a.x_max - a.x_min) * (a.y_max - a.y_min) + (b.x_max - b.x_min) * (b.y_max - b.y_min) - inter
    if union <= 0.0:
        raise GeometryError("IoU undefined: both rectangles have zero area")
    return min(1.0, inter / union)


def match_frame_reference(preds, gts, iou_threshold=0.5, box_mode="obb", audit=None, frame_id=""):
    """The greedy matcher before the enclosing-box prefilter: every same-class pair, one IoU call each."""
    from obbkit.errors import ConfigError
    from obbkit.evaluation import MatchRecord
    from obbkit.geometry import enclosing_hbb, iou_obb

    def _pair_iou(pred, gt, box_mode):
        if box_mode == "hbb":
            return rect_iou_reference(enclosing_hbb(pred.quad), enclosing_hbb(gt.quad))
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


def _pr_curve_reference(records, total_gt):
    """Cumulative precision/recall at every confidence cut point of MatchRecords."""
    ordered = sorted(enumerate(records), key=lambda item: (-item[1].confidence, item[0]))
    tp = np.array([1.0 if r.tp else 0.0 for _, r in ordered])
    conf = np.array([r.confidence for _, r in ordered])
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / total_gt if total_gt > 0 else np.zeros_like(cum_tp)
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-300)
    return precision, recall, conf


def average_precision_reference(records, total_gt, interpolation="all_points"):
    """AP of one class's MatchRecords: the running-max precision envelope, all points or 11 points."""
    from obbkit.errors import ConfigError

    if not records:
        return 0.0
    precision, recall, _ = _pr_curve_reference(records, total_gt)
    if interpolation == "all_points":
        mrec = np.concatenate(([0.0], recall, [1.0]))
        mpre = np.concatenate(([0.0], precision, [0.0]))
        mpre = np.maximum.accumulate(mpre[::-1])[::-1]
        steps = np.flatnonzero(mrec[1:] != mrec[:-1])
        return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))
    if interpolation == "11point":
        total = 0.0
        for t in np.linspace(0.0, 1.0, 11):
            mask = recall >= t - 1e-12
            total += float(precision[mask].max()) if mask.any() else 0.0
        return total / 11.0
    raise ConfigError(f"unknown interpolation {interpolation!r}")


def evaluate_reference(
    preds, gts, iou_threshold=0.5, box_mode="obb", conf_threshold=None, interpolation="all_points", audit=None
):
    """The per-object evaluate: group records by frame, match each frame with match_frame_reference, reduce the records."""
    from obbkit.errors import DataError
    from obbkit.evaluation import DEFAULT_IOU_THRESHOLDS, EvalResult

    gts_by_frame, preds_by_frame = {}, {}
    for gt in gts:
        gts_by_frame.setdefault(gt.frame_id, []).append(gt)
    for pred in preds:
        preds_by_frame.setdefault(pred.video_id, []).append(pred)
    gt_per_class = {}
    for gt in gts:
        if not gt.degenerate:
            gt_per_class[gt.class_id] = gt_per_class.get(gt.class_id, 0) + 1
    total_gt = sum(gt_per_class.values())
    if total_gt == 0:
        raise DataError("evaluation requires at least one ground-truth instance")

    records = []
    for frame_id in sorted(set(gts_by_frame) | set(preds_by_frame)):
        records.extend(
            match_frame_reference(
                preds_by_frame.get(frame_id, []), gts_by_frame.get(frame_id, []), iou_threshold, box_mode, audit, frame_id
            )
        )
    per_class_ap = {
        cid: average_precision_reference([r for r in records if r.class_id == cid], n_gt, interpolation)
        for cid, n_gt in gt_per_class.items()
    }
    map50 = sum(per_class_ap.values()) / len(per_class_ap)

    if not records:
        precision, recall, op_conf = 0.0, 0.0, 1.0 if conf_threshold is None else conf_threshold
    else:
        prec, rec, conf = _pr_curve_reference(records, total_gt)
        if conf_threshold is not None:
            kept = np.flatnonzero(conf >= conf_threshold)
            k = int(kept[-1]) if kept.size else None
            precision, recall = (float(prec[k]), float(rec[k])) if k is not None else (0.0, 0.0)
            op_conf = conf_threshold
        else:
            k = int(np.argmax(2.0 * prec * rec / np.maximum(prec + rec, 1e-300)))
            precision, recall, op_conf = float(prec[k]), float(rec[k]), float(conf[k])
    ious = [r.iou for r in records if r.tp]
    hist = {t: (sum(1 for v in ious if v >= t) / len(ious)) if ious else 0.0 for t in DEFAULT_IOU_THRESHOLDS}
    return EvalResult(
        per_class_ap, map50, precision, recall, op_conf, hist, len(ious), len(records), total_gt, iou_threshold, box_mode
    )


def read_split_labels_reference(split_dir, meta, n_classes=None, warnings=None):
    """GroundTruths of a split read file by file, each file's quads canonicalized and flagged in one batch.

    Returns the records, the split's stems and the number of skipped lines;
    warnings are those of load_split, then of each file in stem order.
    """
    from pathlib import Path

    from obbkit.errors import DataError
    from obbkit.formats import GroundTruth, _label_values, load_split
    from obbkit.geometry import canonical_order, degenerate_mask

    split_dir = Path(split_dir)
    pairs = load_split(split_dir.parent, split_dir.name, warnings=warnings)
    gts, n_skipped = [], 0
    for pair in pairs:
        if pair.label_path is None:
            continue
        class_ids, coords, line_nos, notes = [], [], [], []
        with open(pair.label_path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.split():
                    continue
                try:
                    class_id, values = _label_values(line.split(), n_classes)
                except DataError as exc:
                    notes.append((line_no, f"skipped: {exc}"))
                    n_skipped += 1
                    continue
                class_ids.append(class_id)
                coords.extend(values)
                line_nos.append(line_no)
        raw = np.array(coords).reshape(-1, 4, 2) * (meta.width, meta.height)
        flags = degenerate_mask(raw).tolist()
        gts += [GroundTruth(pair.stem, c, q, f) for c, q, f in zip(class_ids, canonical_order(raw), flags)]
        notes += [(n, "degenerate quad flagged") for n, f in zip(line_nos, flags) if f]
        if warnings is not None:
            warnings.extend(f"{pair.label_path}:{n}: {note}" for n, note in sorted(notes))
    return gts, [pair.stem for pair in pairs], n_skipped


def run_evaluate_reference(split_dir, detections, meta, **settings):
    """``(EvalResult, counts, warnings)`` of the evaluate command, computed record by record."""
    from obbkit.evaluation import MatchAudit
    from obbkit.formats import iter_detections

    warnings = []
    gts, stems, gt_skipped = read_split_labels_reference(split_dir, meta, warnings=warnings)
    pred_warnings = []
    with open(detections, encoding="utf-8") as fh:
        preds = list(iter_detections(fh, warnings=pred_warnings))
    warnings += pred_warnings
    unmatched = [p.video_id for p in preds if p.video_id not in set(stems)]
    if unmatched:
        named = ", ".join(repr(v) for v in list(dict.fromkeys(unmatched))[:5])
        warnings.append(
            f"{len(unmatched)} predictions match no frame (video_id is not a label stem), "
            f"counted as false positives: {named}"
        )
    audit = MatchAudit()
    result = evaluate_reference(preds, gts, audit=audit, **settings)
    warnings += audit.notes
    counts = {
        "ground_truth_parsed": len(gts),
        "ground_truth_skipped": gt_skipped,
        "predictions_parsed": len(preds),
        "predictions_skipped": len(pred_warnings),
        "predictions_unmatched_frame": len(unmatched),
        "predictions_evaluated": result.n_predictions,
        "ground_truth_evaluated": result.n_ground_truth,
    }
    return result, counts, warnings


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


# The one-brand loops that the columnar kernels of obbkit.metrics replaced,
# kept as the reference of reduce_coverage_reference.


def temporal_filter_reference(z, min_run: int = 1, max_gap: int = 0) -> np.ndarray:
    """Smooth a per-frame visibility series.

    Gaps of at most ``max_gap`` zero frames between visible runs are
    bridged first, then runs shorter than ``min_run`` are suppressed.
    Defaults are the identity.  Bridged frames mark presence only; the
    caller must not attribute coverage area to them.
    """
    from obbkit.errors import ConfigError

    if min_run < 1:
        raise ConfigError(f"min_run must be >= 1, got {min_run}")
    if max_gap < 0:
        raise ConfigError(f"max_gap must be >= 0, got {max_gap}")
    out = np.asarray(z, dtype=np.int8).copy()
    if out.ndim != 1:
        raise ValueError("z must be a 1-D series")
    n = out.shape[0]
    if n == 0:
        return out

    runs = _runs(out)
    if max_gap > 0:
        for (s0, e0), (s1, _e1) in zip(runs, runs[1:]):
            if s1 - e0 <= max_gap:
                out[e0:s1] = 1
        runs = _runs(out)
    if min_run > 1:
        for s, e in runs:
            if e - s < min_run:
                out[s:e] = 0
    return out


def _runs(z: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) index ranges of consecutive ones."""
    padded = np.concatenate(([0], z, [0]))
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return list(zip(starts.tolist(), ends.tolist()))


def aggregate_brand_reference(coverages, meta):
    """Collapse one brand's frame coverages into its video-level metrics.

    Frames without an entry count as z=0.  math.fsum keeps the sums
    exactly rounded, so the result is independent of coverage order.
    """
    from obbkit import metrics
    from obbkit.errors import ConfigError

    if meta.frame_count <= 0:
        raise ConfigError("aggregation requires a positive frame count")
    if meta.fps <= 0:
        raise ConfigError("aggregation requires a positive frame rate")
    n_visible = sum(cov.z for cov in coverages)
    weighted = math.fsum(cov.z * cov.c for cov in coverages)
    exposure = meta.dt * n_visible
    present = 100.0 * weighted / n_visible if n_visible > 0 else 0.0
    overall = 100.0 * weighted / meta.frame_count
    max_cov = 100.0 * max((cov.c for cov in coverages), default=0.0)
    brand = coverages[0].brand_id if coverages else 0
    return metrics.BrandMetrics(
        brand_id=brand,
        exposure_s=exposure,
        avg_cov_present_pct=present,
        avg_cov_overall_pct=overall,
        max_cov_pct=max_cov,
        detection_count=sum(cov.detection_count for cov in coverages),
        frames_visible=n_visible,
    )


def build_timeline_reference(coverages, k: int, meta):
    """Per-brand coverage series and the top-K brands by exposure.

    Visibility comes from the z flags, so a temporally filtered series
    (bridged frames carry z=1 with zero coverage) ranks consistently
    with aggregate_brand.
    """
    from obbkit import metrics
    from obbkit.errors import ConfigError

    if k < 1:
        raise ConfigError(f"top-k must be >= 1, got {k}")
    series: dict[int, list[tuple[int, float]]] = {}
    visible: dict[int, int] = {}
    for cov in sorted(coverages, key=lambda cv: (cv.brand_id, cv.frame_index)):
        series.setdefault(cov.brand_id, []).append((cov.frame_index, cov.c))
        visible[cov.brand_id] = visible.get(cov.brand_id, 0) + cov.z
    exposures = [(brand, meta.dt * n) for brand, n in visible.items()]
    exposures.sort(key=lambda item: (-item[1], item[0]))
    return metrics.ExposureTimeline(series=series, ranking=exposures[:k])


def reduce_coverage_reference(frames, classes, areas, meta, n_frames, top_k, min_run, max_gap):
    """The object-per-(brand, frame) reduction and dense per-brand temporal filter of analyze.

    Returns ``(brand metrics, ExposureTimeline)``.  Its ``np.zeros(n_frames)``
    per brand makes memory grow with the frame count, so run it on small videos.
    """
    from obbkit import metrics
    from obbkit.errors import DataError
    from obbkit.formats import FrameMeta

    def _filter_brand(entries, n_frames, min_run, max_gap):
        z = np.zeros(n_frames, np.int8)
        by_frame = {e.frame_index: e for e in entries}
        for e in entries:
            z[e.frame_index] = e.z
        z_f = temporal_filter_reference(z, min_run=min_run, max_gap=max_gap)
        out = []
        brand = entries[0].brand_id
        touched = sorted(set(by_frame) | set(np.flatnonzero(z_f != 0).tolist()))
        for frame in touched:
            orig = by_frame.get(frame)
            visible = bool(z_f[frame])
            had_area = orig is not None and orig.z == 1
            out.append(
                metrics.FrameCoverage(
                    frame_index=frame,
                    brand_id=brand,
                    c=orig.c if (visible and had_area) else 0.0,
                    z=1 if visible else 0,
                    detection_count=orig.detection_count if orig is not None else 0,
                )
            )
        return out

    if frames.size == 0 or n_frames <= 0:
        empty = metrics.ExposureTimeline(series={}, ranking=[])
        return [], empty
    eff_meta = FrameMeta(
        width=meta.width, height=meta.height, fps=meta.fps, frame_count=n_frames, video_id=meta.video_id
    )
    if frames.max(initial=0) >= 2**32 or classes.max(initial=0) >= 2**31:
        raise DataError("frame index or class id too large for the reduction key")
    keys = classes * (2**32) + frames
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(uniq.shape[0])
    counts = np.zeros(uniq.shape[0], np.int64)
    np.add.at(sums, inverse, areas)
    np.add.at(counts, inverse, 1)
    key_brands = (uniq >> 32).astype(np.int64)
    key_frames = (uniq & 0xFFFFFFFF).astype(np.int64)
    cov = np.minimum(1.0, sums / meta.frame_area)
    z = (cov > 0.0).astype(np.int64)

    coverages = {}
    for i in range(uniq.shape[0]):
        brand = int(key_brands[i])
        coverages.setdefault(brand, []).append(
            metrics.FrameCoverage(
                frame_index=int(key_frames[i]),
                brand_id=brand,
                c=float(cov[i]),
                z=int(z[i]),
                detection_count=int(counts[i]),
            )
        )

    if min_run > 1 or max_gap > 0:
        coverages = {
            brand: _filter_brand(entries, n_frames, min_run, max_gap)
            for brand, entries in coverages.items()
        }

    brand_metrics = [
        aggregate_brand_reference(entries, eff_meta) for _, entries in sorted(coverages.items())
    ]
    all_cov = [cv for entries in coverages.values() for cv in entries]
    timeline = build_timeline_reference(all_cov, top_k, eff_meta)
    return brand_metrics, timeline


def write_table_reference(path, fieldnames, rows, fmt) -> None:
    """The row-at-a-time report writer: csv.writer over format_cell, or json.dump(indent=2)."""
    import csv
    import json

    from obbkit.formats import format_cell

    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            for row in rows:
                writer.writerow([format_cell(row.get(k)) for k in fieldnames])
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{k: row.get(k) for k in fieldnames} for row in rows], fh, indent=2)
            fh.write("\n")


def parse_detection_chunk_reference(
    lines: list[str],
    first_line_no: int,
    class_map=None,
    meta=None,
    strict: bool = False,
):
    """The line-at-a-time detection parser: one json.loads and one validate_detection_obj per line."""
    import json
    from array import array

    from obbkit.errors import DataError, ParseError
    from obbkit.formats import DetectionChunk, validate_detection_obj
    from obbkit.geometry import degenerate_mask

    loads, validate = json.loads, validate_detection_obj
    video_ids: list[str] = []
    frames: list[int] = []
    classes: list[int] = []
    confs: list[float] = []
    coords = array("d")  # flat x, y pairs; holds no float objects between lines
    line_nos: list[int] = []
    faults: list[tuple[int, str]] = []
    n_records = 0
    for offset, line in enumerate(lines):
        if not line.strip():
            continue
        n_records += 1
        try:
            video_id, frame, class_id, poly, conf = validate(loads(line), class_map, meta)
        except json.JSONDecodeError as exc:
            fault = f"invalid JSON: {exc.msg}"
        except DataError as exc:
            fault = str(exc)
        else:
            video_ids.append(video_id)
            frames.append(frame)
            classes.append(class_id)
            confs.append(conf)
            for pt in poly:
                coords.extend(pt)
            line_nos.append(first_line_no + offset)
            continue
        faults.append((first_line_no + offset, fault))
        if strict:
            break  # records before this line may still hold an earlier degenerate quad
    max_frame = max(frames, default=-1)
    quads = np.frombuffer(coords, dtype=np.float64).reshape(-1, 4, 2)
    degenerate = degenerate_mask(quads)
    if degenerate.any():
        faults = sorted(faults + [(line_nos[i], "degenerate quad") for i in np.flatnonzero(degenerate).tolist()])
        keep = (~degenerate).tolist()
        video_ids, frames, classes, confs = (
            [v for v, k in zip(col, keep) if k] for col in (video_ids, frames, classes, confs)
        )
        quads = quads[~degenerate]
    if strict and faults:
        raise ParseError(faults[0][1], faults[0][0])
    return DetectionChunk(
        n_records=n_records,
        n_skipped=len(faults),
        warnings=[f"line {line_no}: skipped: {msg}" for line_no, msg in faults],
        max_frame=max_frame,
        video_ids=video_ids,
        frames=frames,
        classes=classes,
        confs=confs,
        quads=quads,
    )
