"""Detection evaluation: matching, PR curves, AP/mAP and IoU histograms.

Matching is greedy per class: predictions in descending confidence
order each claim the unmatched ground-truth box with the highest IoU
at or above the threshold.  Only pairs whose enclosing axis-aligned
boxes overlap or touch are compared; every other pair has IoU 0.  AP
uses all-points interpolation (the continuous precision envelope) by
default; an 11-point variant is available.  The HBB mode converts both
sides to their minimum enclosing axis-aligned rectangles before
matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .formats import Detection, GroundTruth
from .geometry import enclosing_bounds, iou_obb, rect_ious
from .geometry import enclosing_hbb  # noqa: F401 - bound for the benchmark's layer tracer

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

    live_gts: list[tuple[int, GroundTruth]] = []
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

    # candidates[row]: positions in live_gts, ascending, of the same-class
    # ground truths whose enclosing box overlaps or touches prediction order[row]'s;
    # ascending, so the first ground truth with the best IoU still wins a tie
    candidates: list[list[int]] = [[] for _ in order]
    if order and live_gts:
        pb = enclosing_bounds(np.stack([preds[i].quad for i in order]))
        gb = enclosing_bounds(np.stack([gt.quad for _, gt in live_gts]))
        pred_classes = np.array([preds[i].class_id for i in order])
        same_class = pred_classes[:, None] == np.array([gt.class_id for _, gt in live_gts])
        overlap = (
            (pb[:, None, 0] <= gb[:, 2])
            & (gb[:, 0] <= pb[:, None, 2])
            & (pb[:, None, 1] <= gb[:, 3])
            & (gb[:, 1] <= pb[:, None, 3])
        )
        rows, cols = np.nonzero(same_class & overlap)
        for row, k in zip(rows.tolist(), cols.tolist()):
            candidates[row].append(k)
        if box_mode == "hbb":
            hbb_ious = rect_ious(pb, gb).tolist()

    taken: set[int] = set()
    records: list[MatchRecord] = []
    for row, i in enumerate(order):
        pred = preds[i]
        best_iou = 0.0
        best_gt: int | None = None
        for k in candidates[row]:
            gt_idx, gt = live_gts[k]
            if gt_idx in taken:
                continue
            iou = hbb_ious[row][k] if box_mode == "hbb" else iou_obb(pred.quad, gt.quad)
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


def _pr_curve(records: list[MatchRecord], total_gt: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative precision/recall at every confidence cut point."""
    ordered = sorted(enumerate(records), key=lambda item: (-item[1].confidence, item[0]))
    tp = np.array([1.0 if r.tp else 0.0 for _, r in ordered])
    conf = np.array([r.confidence for _, r in ordered])
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / total_gt if total_gt > 0 else np.zeros_like(cum_tp)
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-300)
    return precision, recall, conf


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
    if not records:
        return 0.0
    precision, recall, _ = _pr_curve(records, total_gt)
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


def iou_threshold_histogram(
    records: list[MatchRecord],
    thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS,
) -> tuple[dict[float, float], int]:
    """Fraction of matched predictions at or above each IoU threshold."""
    ious = [r.iou for r in records if r.tp]
    n = len(ious)
    hist: dict[float, float] = {}
    for t in thresholds:
        hist[t] = (sum(1 for v in ious if v >= t) / n) if n > 0 else 0.0
    return hist, n


def _operating_point(
    records: list[MatchRecord],
    total_gt: int,
    conf_threshold: float | None,
) -> tuple[float, float, float]:
    """Pooled precision/recall at a fixed or max-F1 confidence cut."""
    if not records:
        return 0.0, 0.0, 1.0 if conf_threshold is None else conf_threshold
    precision, recall, conf = _pr_curve(records, total_gt)
    if conf_threshold is not None:
        kept = np.flatnonzero(conf >= conf_threshold)
        if kept.size == 0:
            return 0.0, 0.0, conf_threshold
        k = int(kept[-1])
        return float(precision[k]), float(recall[k]), conf_threshold
    f1 = 2.0 * precision * recall / np.maximum(precision + recall, 1e-300)
    k = int(np.argmax(f1))
    return float(precision[k]), float(recall[k]), float(conf[k])


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
    gts_by_frame: dict[str, list[GroundTruth]] = {}
    for gt in gts:
        gts_by_frame.setdefault(gt.frame_id, []).append(gt)
    preds_by_frame: dict[str, list[Detection]] = {}
    for pred in preds:
        preds_by_frame.setdefault(pred.video_id, []).append(pred)

    gt_per_class: dict[int, int] = {}
    for gt in gts:
        if not gt.degenerate:
            gt_per_class[gt.class_id] = gt_per_class.get(gt.class_id, 0) + 1
    total_gt = sum(gt_per_class.values())
    if total_gt == 0:
        raise DataError("evaluation requires at least one ground-truth instance")

    records: list[MatchRecord] = []
    for frame_id in sorted(set(gts_by_frame) | set(preds_by_frame)):
        records.extend(
            match_frame(
                preds_by_frame.get(frame_id, []),
                gts_by_frame.get(frame_id, []),
                iou_threshold,
                box_mode,
                audit,
                frame_id,
            )
        )

    per_class_records: dict[int, list[MatchRecord]] = {}
    for rec in records:
        per_class_records.setdefault(rec.class_id, []).append(rec)
    per_class_ap: dict[int, float] = {}
    for cid, n_gt in gt_per_class.items():
        ap = average_precision(per_class_records.get(cid, []), n_gt, interpolation)
        per_class_ap[cid] = ap if ap is not None else 0.0
    map50 = sum(per_class_ap.values()) / len(per_class_ap)

    precision, recall, op_conf = _operating_point(records, total_gt, conf_threshold)
    hist, n_matched = iou_threshold_histogram(records)
    return EvalResult(
        per_class_ap=per_class_ap,
        map50=map50,
        precision=precision,
        recall=recall,
        operating_confidence=op_conf,
        iou_histogram=hist,
        n_matched=n_matched,
        n_predictions=len(records),
        n_ground_truth=total_gt,
        iou_threshold=iou_threshold,
        box_mode=box_mode,
    )


def map_sweep(
    preds: list[Detection],
    gts: list[GroundTruth],
    thresholds: tuple[float, ...] = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95),
    box_mode: str = "obb",
) -> dict[float, float]:
    """mAP at a sweep of IoU thresholds (mAP@50-95 style utility)."""
    return {t: evaluate(preds, gts, iou_threshold=t, box_mode=box_mode).map50 for t in thresholds}
