"""Detection evaluation: matching, PR curves, AP/mAP and IoU histograms.

Matching is greedy per frame and class: predictions in descending
confidence order each claim the unmatched ground-truth box with the
highest IoU at or above the threshold.  Only pairs whose enclosing
axis-aligned boxes overlap or touch are compared; every other pair has
IoU 0.  AP uses all-points interpolation (the continuous precision
envelope) by default; an 11-point variant is available.  The HBB mode
converts both sides to their minimum enclosing axis-aligned rectangles
before matching.

evaluate_columns matches a whole split's label and prediction columns
at once; match_frame, evaluate, average_precision and
iou_threshold_histogram are views of it for record lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .formats import Detection, GroundTruth, SplitLabels
from .geometry import _PAIR_BLOCK, canonical_order, enclosing_bounds, intersection_areas, rect_ious, shoelace_areas
from .geometry import enclosing_hbb  # noqa: F401 - bound for the benchmark's layer tracer
from .geometry import _iou as iou_obb  # the per-pair IoU from areas, bound under the name the benchmark's layer tracer patches

DEFAULT_IOU_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)

INTERPOLATIONS = ("all_points", "11point")

EVAL_TABLE_FIELDS = ["metric", "class_id", "threshold", "value"]


@dataclass(frozen=True)
class MatchRecord:
    """Outcome of one prediction against one frame's ground truth."""

    frame_id: str
    pred_index: int
    gt_index: int | None
    iou: float
    tp: bool
    class_id: int
    confidence: float


@dataclass(frozen=True)
class EvalResult:
    """Per-class AP, mAP@threshold, operating-point P/R and IoU histogram."""

    per_class_ap: dict[int, float]
    map50: float
    precision: float
    recall: float
    operating_confidence: float
    iou_histogram: dict[float, float]
    n_matched: int
    n_predictions: int
    n_ground_truth: int
    iou_threshold: float
    box_mode: str

    def to_payload(self, names: dict[int, str] | None = None) -> dict:
        per_class = {}
        for cid in sorted(self.per_class_ap):
            key = names.get(cid, str(cid)) if names else str(cid)
            per_class[key] = self.per_class_ap[cid]
        return {
            "map50": self.map50,
            "precision": self.precision,
            "recall": self.recall,
            "operating_confidence": self.operating_confidence,
            "iou_threshold": self.iou_threshold,
            "box_mode": self.box_mode,
            "n_predictions": self.n_predictions,
            "n_ground_truth": self.n_ground_truth,
            "n_matched": self.n_matched,
            "per_class_ap": per_class,
            "iou_histogram": {format(t, "g"): v for t, v in sorted(self.iou_histogram.items())},
        }

    def to_rows(self) -> list[dict]:
        rows = [
            {"metric": "map50", "class_id": "", "threshold": self.iou_threshold, "value": self.map50},
            {"metric": "precision", "class_id": "", "threshold": self.operating_confidence, "value": self.precision},
            {"metric": "recall", "class_id": "", "threshold": self.operating_confidence, "value": self.recall},
        ]
        for cid in sorted(self.per_class_ap):
            rows.append({"metric": "ap", "class_id": cid, "threshold": self.iou_threshold, "value": self.per_class_ap[cid]})
        for t in sorted(self.iou_histogram):
            rows.append({"metric": "iou_fraction", "class_id": "", "threshold": t, "value": self.iou_histogram[t]})
        return rows


@dataclass
class MatchAudit:
    """Counts of records dropped before matching."""

    degenerate_predictions: int = 0
    degenerate_ground_truth: int = 0
    notes: list[str] = field(default_factory=list)


def check_settings(
    iou_threshold: float,
    box_mode: str,
    conf_threshold: float | None = None,
    interpolation: str = "all_points",
) -> None:
    """Raise ConfigError on a setting that evaluate cannot use."""
    if not 0.0 < iou_threshold < 1.0:
        raise ConfigError(f"iou threshold must be in (0, 1), got {iou_threshold}")
    if box_mode not in ("obb", "hbb"):
        raise ConfigError(f"box mode must be 'obb' or 'hbb', got {box_mode!r}")
    if conf_threshold is not None and not 0.0 <= conf_threshold <= 1.0:
        raise ConfigError(f"confidence threshold must be in [0, 1], got {conf_threshold}")
    if interpolation not in INTERPOLATIONS:
        raise ConfigError(f"unknown interpolation {interpolation!r}")


def _audit_degenerate(audit: MatchAudit, names: list[str], sides) -> None:
    """Count and note the degenerate rows of ``(frames, flags, what)`` sides, by frame, then side, then row."""
    notes = []
    for side, (frames, flags, what) in enumerate(sides):
        order = np.argsort(frames, kind="stable")
        positions = np.empty(frames.size, np.int64)  # of each row among the rows of its frame
        positions[order] = np.arange(frames.size) - np.searchsorted(frames[order], frames[order])
        rows = zip(frames[flags].tolist(), positions[flags].tolist())
        notes += [(f, side, i, f"{names[f]}: dropped degenerate {what} #{i}") for f, i in rows]
    audit.degenerate_ground_truth += int(sides[0][1].sum())
    audit.degenerate_predictions += int(sides[1][1].sum())
    audit.notes.extend(note for *_, note in sorted(notes))


def _match_split(labels: SplitLabels, video_ids, classes, confs, quads, degenerate, iou_threshold, box_mode, audit):
    """Join predictions to a split's labels on ``video_id`` and match them greedily.

    Live predictions go in record order: by frame (ranked in the sorted
    union of stems and prediction ids), descending confidence, then row.
    Each one's candidates are the live ground truths of its frame and class
    whose enclosing box overlaps or touches its own, in row order, so the
    first one with the best IoU wins a tie.  Returns the prediction rows in
    record order, the ground-truth row each claims (-1 for none) and the
    best IoU each saw.  Both sides' quads are in canonical vertex order.
    """
    names = sorted(set(labels.stems).union(video_ids))
    rank = dict(zip(names, range(len(names))))
    gt_frames = np.array([rank[s] for s in labels.stems], np.int64)[labels.frames]
    pred_frames = np.fromiter(map(rank.__getitem__, video_ids), np.int64, len(video_ids))
    if audit is not None:
        sides = ((gt_frames, labels.degenerate, "ground truth"), (pred_frames, degenerate, "prediction"))
        _audit_degenerate(audit, names, sides)
    live = np.flatnonzero(~degenerate)
    order = live[np.lexsort((-confs[live], pred_frames[live]))]
    n = order.size

    # candidate pairs: the ground truths under each prediction's (frame, class) key, then the bounds prefilter
    class_ids, class_ranks = np.unique(np.concatenate([classes[order], labels.classes]), return_inverse=True)
    keys = np.concatenate([pred_frames[order], gt_frames]) * class_ids.size + class_ranks
    gt_keys = np.where(labels.degenerate, -1, keys[n:])
    by_key = np.argsort(gt_keys, kind="stable")
    first = np.searchsorted(gt_keys[by_key], keys[:n], "left")
    counts = np.searchsorted(gt_keys[by_key], keys[:n], "right") - first
    pair_pred = np.repeat(np.arange(n), counts)
    pair_gt = by_key[np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)]
    pred_quads, gt_quads = quads[order], labels.quads
    pb, gb = enclosing_bounds(pred_quads)[pair_pred], enclosing_bounds(gt_quads)[pair_gt]
    near = (pb[:, 0] <= gb[:, 2]) & (gb[:, 0] <= pb[:, 2]) & (pb[:, 1] <= gb[:, 3]) & (gb[:, 1] <= pb[:, 3])
    hbb_ious = rect_ious(pb[near], gb[near]).tolist() if box_mode == "hbb" else None
    pair_pred, pair_gt = pair_pred[near], pair_gt[near]
    del pb, gb  # as long as the unfiltered pairs: dropped before the areas' temporaries
    if hbb_ious is None:  # every candidate pair's intersection area, one block of gathered quads at a time
        inters = []
        for i in range(0, pair_pred.size, _PAIR_BLOCK):
            block = slice(i, i + _PAIR_BLOCK)
            inters += intersection_areas(pred_quads[pair_pred[block]], gt_quads[pair_gt[block]]).tolist()
        pred_areas, gt_areas = shoelace_areas(pred_quads), shoelace_areas(gt_quads)
    pair_gt = pair_gt.tolist()
    cuts = np.searchsorted(pair_pred, np.arange(n + 1))
    rows = np.flatnonzero(np.diff(cuts)).tolist()  # the predictions with a candidate (np.unique would load numpy.ma)
    cuts = cuts.tolist()

    claimed, best_ious = [-1] * n, [0.0] * n
    taken: set[int] = set()
    for row in rows:
        if hbb_ious is None:
            area = float(pred_areas[row])
        best_iou, best_gt = 0.0, -1
        for k in range(cuts[row], cuts[row + 1]):
            g = pair_gt[k]
            if g in taken:
                continue
            iou = iou_obb(inters[k], area, float(gt_areas[g])) if hbb_ious is None else hbb_ious[k]
            if iou > best_iou:
                best_iou, best_gt = iou, g
        if best_gt >= 0 and best_iou >= iou_threshold:
            taken.add(best_gt)
            claimed[row] = best_gt
        best_ious[row] = best_iou
    return order, np.array(claimed, np.int64), np.array(best_ious)


def _pr_curve(tp: np.ndarray, total_gt: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative precision/recall at every cut point of a confidence-ranked 0/1 TP column."""
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / total_gt if total_gt > 0 else np.zeros_like(cum_tp)
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-300)
    return precision, recall


def _ap(tp: np.ndarray, total_gt: int, interpolation: str) -> float:
    """AP of a confidence-ranked 0/1 TP column with ``total_gt`` ground truths."""
    if tp.size == 0:
        return 0.0
    precision, recall = _pr_curve(tp, total_gt)
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


def average_precision(
    records: list[MatchRecord],
    total_gt: int,
    interpolation: str = "all_points",
) -> float | None:
    """AP of one class; None when the class has no ground truth.

    ``all_points`` integrates the running-max precision envelope over
    recall; ``11point`` averages the envelope at recalls 0.0..1.0.
    """
    if total_gt < 0:
        raise ConfigError("total_gt must be >= 0")
    if total_gt == 0:
        return None
    ranked = np.argsort(-np.array([r.confidence for r in records], np.float64), kind="stable")
    return _ap(np.array([r.tp for r in records], np.float64)[ranked], total_gt, interpolation)


def _histogram(ious: np.ndarray, thresholds: tuple[float, ...]) -> tuple[dict[float, float], int]:
    n = ious.size
    return {t: int((ious >= t).sum()) / n if n > 0 else 0.0 for t in thresholds}, n


def iou_threshold_histogram(
    records: list[MatchRecord],
    thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS,
) -> tuple[dict[float, float], int]:
    """Fraction of matched predictions at or above each IoU threshold."""
    return _histogram(np.array([r.iou for r in records if r.tp], np.float64), thresholds)


def _operating_point(tp: np.ndarray, confs: np.ndarray, total_gt: int, conf_threshold: float | None):
    """Pooled precision/recall at a fixed or max-F1 confidence cut of a confidence-ranked TP column."""
    if tp.size == 0:
        return 0.0, 0.0, 1.0 if conf_threshold is None else conf_threshold
    precision, recall = _pr_curve(tp, total_gt)
    if conf_threshold is not None:
        kept = np.flatnonzero(confs >= conf_threshold)
        if kept.size == 0:
            return 0.0, 0.0, conf_threshold
        k = int(kept[-1])
        return float(precision[k]), float(recall[k]), conf_threshold
    f1 = 2.0 * precision * recall / np.maximum(precision + recall, 1e-300)
    k = int(np.argmax(f1))
    return float(precision[k]), float(recall[k]), float(confs[k])


def _quads(items) -> np.ndarray:
    """The items' quads in canonical vertex order, as _match_split takes them."""
    return canonical_order(np.array([np.asarray(item.quad, np.float64) for item in items]).reshape(-1, 4, 2))


def _columns_of(preds: list[Detection], gts: list[GroundTruth], frame_id: str | None = None) -> tuple:
    """SplitLabels of GroundTruths and ``video_ids, classes, confs, quads, degenerate`` of Detections, all in ``frame_id`` if given."""
    stems = sorted({g.frame_id for g in gts}) if frame_id is None else [frame_id]
    index = {stem: i for i, stem in enumerate(stems)}
    frames = [index[g.frame_id] for g in gts] if frame_id is None else [0] * len(gts)
    gt_columns = (np.array([g.class_id for g in gts], np.int64), _quads(gts), np.array([g.degenerate for g in gts], bool))
    labels = SplitLabels(stems, np.array(frames, np.int64), *gt_columns)
    video_ids = [p.video_id if frame_id is None else frame_id for p in preds]
    classes, confs = np.array([p.class_id for p in preds], np.int64), np.array([p.confidence for p in preds], np.float64)
    return labels, (video_ids, classes, confs, _quads(preds), np.array([p.degenerate for p in preds], bool))


def match_frame(
    preds: list[Detection],
    gts: list[GroundTruth],
    iou_threshold: float = 0.5,
    box_mode: str = "obb",
    audit: MatchAudit | None = None,
    frame_id: str = "",
) -> list[MatchRecord]:
    """Greedy one-to-one matching of one frame's predictions.

    Returns one record per non-degenerate prediction, in descending
    confidence order per class.  Each ground truth is claimed at most
    once.  Degenerate quads on either side are dropped (audited).  Only
    same-class pairs whose enclosing boxes overlap or touch are compared;
    any other pair has IoU 0.
    """
    check_settings(iou_threshold, box_mode)
    labels, columns = _columns_of(preds, gts, frame_id)
    order, claimed, ious = _match_split(labels, *columns, iou_threshold, box_mode, audit)
    return [
        MatchRecord(frame_id, i, g if g >= 0 else None, iou, g >= 0, preds[i].class_id, preds[i].confidence)
        for i, g, iou in zip(order.tolist(), claimed.tolist(), ious.tolist())
    ]


def evaluate_columns(
    labels: SplitLabels, video_ids: list[str], classes: np.ndarray, confs: np.ndarray, quads: np.ndarray,
    degenerate: np.ndarray | None = None, iou_threshold: float = 0.5, box_mode: str = "obb",
    conf_threshold: float | None = None, interpolation: str = "all_points", audit: MatchAudit | None = None,
) -> EvalResult:  # fmt: skip
    """Match a split's labels against prediction columns and reduce to the headline scores.

    Prediction ``i`` lies in the frame named ``video_ids[i]``, with its
    quad ``quads[i]`` in canonical vertex order (``geometry.canonical_order``,
    as the split's label quads are); one whose id is no stem of the split
    has no ground truth, so it is a false positive.  ``degenerate`` flags
    predictions to drop (audited).  mAP averages per-class AP over the
    classes of the live labels, summed in the order in which they first
    appear; P/R are pooled over classes at the operating point.
    """
    gt_per_class = Counter(labels.classes[~labels.degenerate].tolist())
    total_gt = sum(gt_per_class.values())
    if total_gt == 0:
        raise DataError("evaluation requires at least one ground-truth instance")
    check_settings(iou_threshold, box_mode)
    degenerate = np.zeros(len(video_ids), bool) if degenerate is None else degenerate
    order, claimed, ious = _match_split(labels, video_ids, classes, confs, quads, degenerate, iou_threshold, box_mode, audit)
    tp = claimed >= 0
    by_conf = np.argsort(-confs[order], kind="stable")  # descending confidence, then record order
    ranked, ranked_tp = order[by_conf], tp[by_conf].astype(np.float64)
    per_class_ap = {cid: _ap(ranked_tp[classes[ranked] == cid], n_gt, interpolation) for cid, n_gt in gt_per_class.items()}
    precision, recall, op_conf = _operating_point(ranked_tp, confs[ranked], total_gt, conf_threshold)
    hist, n_matched = _histogram(ious[tp], DEFAULT_IOU_THRESHOLDS)
    map50 = sum(per_class_ap.values()) / len(per_class_ap)
    return EvalResult(per_class_ap, map50, precision, recall, op_conf, hist, n_matched, order.size, total_gt, iou_threshold, box_mode)


def evaluate(
    preds: list[Detection],
    gts: list[GroundTruth],
    iou_threshold: float = 0.5,
    box_mode: str = "obb",
    conf_threshold: float | None = None,
    interpolation: str = "all_points",
    audit: MatchAudit | None = None,
) -> EvalResult:
    """Match every frame and reduce to the headline evaluation scores.

    Predictions join ground truth on ``Detection.video_id`` equal to
    ``GroundTruth.frame_id``.  mAP averages per-class AP over classes
    with at least one (non-degenerate) ground-truth instance; P/R are
    pooled over classes at the operating point.
    """
    labels, columns = _columns_of(preds, gts)
    return evaluate_columns(labels, *columns, iou_threshold, box_mode, conf_threshold, interpolation, audit)
