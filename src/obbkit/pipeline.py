"""Command orchestration: ingestion through metrics to report files.

The analyze path is chunked: the detection stream is split into
fixed-size line chunks, each chunk is parsed and clipped into flat
arrays (optionally in worker processes), and the per-(brand, frame)
reduction happens in the parent in chunk order.  Chunk size is
independent of the worker count, and every reduction is either
exactly rounded (math.fsum) or performed in canonical order, so the
same input produces byte-identical reports at any ``--jobs`` level.
"""

from __future__ import annotations

import json  # noqa: F401 - bound for the benchmark's layer tracer
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, metrics, tightness
from .errors import ConfigError, DataError
from .formats import (
    ClassMap,
    Detection,
    FrameMeta,
    GroundTruth,
    load_split,
    parse_detection_chunk,
    read_label_file,
    write_json_report,
    write_table,
)
from .formats import iter_detections, validate_detection_obj  # noqa: F401 - bound for the benchmark's layer tracer
from .geometry import RectAA, clip_areas_to_rect
from .geometry import degenerate_mask  # noqa: F401 - bound for the benchmark's layer tracer
from .losses import LossParams, run_loss_checks

CHUNK_LINES = 8192


@dataclass
class RunReport:
    """Auditable account of one CLI run."""

    command: str
    config: dict
    counts: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "counts": self.counts,
            "warnings": self.warnings,
            "outputs": self.outputs,
            "summary": self.summary,
            "duration_s": self.duration_s,
        }

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "run_report.json"
        write_json_report(path, self.to_payload())
        return path


def _map_ordered(worker, tasks, jobs: int):
    """Map tasks to results in submission order, with bounded in-flight work."""
    if jobs <= 1:
        for task in tasks:
            yield worker(task)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        window = 2 * jobs
        pending: deque = deque()
        for task in tasks:
            pending.append(pool.submit(worker, task))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


# ---------------------------------------------------------------------------
# analyze


@dataclass
class AnalyzeConfig:
    detections: Path
    meta: FrameMeta
    out_dir: Path
    class_map: ClassMap | None = None
    conf_threshold: float = 0.5
    top_k: int = 5
    min_run: int = 1
    max_gap: int = 0
    fmt: str = "csv"
    jobs: int = 1
    strict: bool = False

    def __post_init__(self):
        if not 0.0 <= self.conf_threshold <= 1.0:
            raise ConfigError(f"confidence threshold must be in [0, 1], got {self.conf_threshold}")
        if self.top_k < 1:
            raise ConfigError(f"top-k must be >= 1, got {self.top_k}")
        if self.min_run < 1:
            raise ConfigError(f"min_run must be >= 1, got {self.min_run}")
        if self.max_gap < 0:
            raise ConfigError(f"max_gap must be >= 0, got {self.max_gap}")


@dataclass
class _ChunkResult:
    n_records: int
    n_skipped: int
    n_below_conf: int
    frames: np.ndarray
    classes: np.ndarray
    areas: np.ndarray
    max_frame: int
    warnings: list[str]


def _analyze_chunk(task) -> _ChunkResult:
    lines, first_line_no, meta, class_map, conf_threshold, strict = task
    chunk = parse_detection_chunk(lines, first_line_no, class_map, meta, strict)
    confs = np.array(chunk.confs)
    above = confs >= conf_threshold
    rect = RectAA(0.0, 0.0, meta.width, meta.height)
    return _ChunkResult(
        chunk.n_records,
        chunk.n_skipped,
        int((~above).sum()),
        np.array(chunk.frames, np.int64)[above],
        np.array(chunk.classes, np.int64)[above],
        clip_areas_to_rect(chunk.quads[above], rect),
        chunk.max_frame,
        chunk.warnings,
    )


def _line_chunks(path: Path):
    """(lines, first line number) of consecutive CHUNK_LINES-line runs of a text file."""
    with open(path, encoding="utf-8") as fh:
        first_line_no = 1
        while True:
            lines = []
            for line in fh:
                lines.append(line)
                if len(lines) >= CHUNK_LINES:
                    break
            if not lines:
                return
            yield lines, first_line_no
            first_line_no += len(lines)


def run_analyze(cfg: AnalyzeConfig, config_echo: dict | None = None) -> RunReport:
    """Detections stream -> brand metrics, timeline and ranking reports."""
    t0 = time.perf_counter()
    report = RunReport(command="analyze", config=config_echo or {})
    if not cfg.detections.is_file():
        raise ConfigError(f"detections file not found: {cfg.detections}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    tasks = (
        (lines, first_line_no, cfg.meta, cfg.class_map, cfg.conf_threshold, cfg.strict)
        for lines, first_line_no in _line_chunks(cfg.detections)
    )
    chunks = list(_map_ordered(_analyze_chunk, tasks, cfg.jobs))

    n_records = sum(c.n_records for c in chunks)
    n_skipped = sum(c.n_skipped for c in chunks)
    n_below = sum(c.n_below_conf for c in chunks)
    for c in chunks:
        report.warnings.extend(c.warnings)
    max_frame = max((c.max_frame for c in chunks), default=-1)

    n_frames = cfg.meta.frame_count
    if n_frames <= 0:
        n_frames = max_frame + 1
        if n_frames > 0:
            report.warnings.append(f"frame count not provided; inferred {n_frames} from detections")
    if n_records == 0:
        report.warnings.append("empty detections input; reports contain no brands")

    if chunks and any(c.frames.size for c in chunks):
        frames = np.concatenate([c.frames for c in chunks])
        classes = np.concatenate([c.classes for c in chunks])
        areas = np.concatenate([c.areas for c in chunks])
    else:
        frames = np.zeros(0, np.int64)
        classes = np.zeros(0, np.int64)
        areas = np.zeros(0)

    brand_metrics, timeline = _reduce_coverage(
        frames, classes, areas, cfg.meta, n_frames, cfg.top_k, cfg.min_run, cfg.max_gap
    )

    names = {i: cfg.class_map.name_of(i) for i in range(len(cfg.class_map))} if cfg.class_map else None
    fmt = cfg.fmt
    suffix = "csv" if fmt == "csv" else "json"
    out_metrics = cfg.out_dir / f"brand_metrics.{suffix}"
    out_timeline = cfg.out_dir / f"timeline.{suffix}"
    out_ranking = cfg.out_dir / f"ranking.{suffix}"
    write_table(out_metrics, metrics.BRAND_METRICS_FIELDS, metrics.metrics_rows(brand_metrics, names), fmt)
    write_table(out_timeline, metrics.TIMELINE_FIELDS, metrics.timeline_rows(timeline), fmt)
    write_table(out_ranking, metrics.RANKING_FIELDS, metrics.ranking_rows(timeline, names), fmt)
    report.outputs = [str(out_metrics), str(out_timeline), str(out_ranking)]

    used = n_records - n_skipped - n_below
    report.counts = {
        "records_total": n_records,
        "records_accepted": n_records - n_skipped,
        "records_skipped": n_skipped,
        "records_below_confidence": n_below,
        "records_used": used,
        "frames": n_frames,
        "brands": len(brand_metrics),
    }
    report.summary = {
        "top_brands": [
            {"brand_id": b, "exposure_s": e} for b, e in timeline.ranking
        ]
    }
    report.duration_s = time.perf_counter() - t0
    report.write(cfg.out_dir)
    return report


def _reduce_coverage(
    frames: np.ndarray,
    classes: np.ndarray,
    areas: np.ndarray,
    meta: FrameMeta,
    n_frames: int,
    top_k: int,
    min_run: int,
    max_gap: int,
) -> tuple[list[metrics.BrandMetrics], metrics.ExposureTimeline]:
    """Canonical-order reduction of per-detection areas to brand metrics."""
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

    coverages: dict[int, list[metrics.FrameCoverage]] = {}
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
        metrics.aggregate_brand(entries, eff_meta) for _, entries in sorted(coverages.items())
    ]
    all_cov = [cv for entries in coverages.values() for cv in entries]
    timeline = metrics.build_timeline(all_cov, top_k, eff_meta)
    return brand_metrics, timeline


def _filter_brand(
    entries: list[metrics.FrameCoverage], n_frames: int, min_run: int, max_gap: int
) -> list[metrics.FrameCoverage]:
    """Apply the temporal filter to one brand's coverage entries.

    Bridged frames appear with zero coverage (presence only);
    suppressed frames keep their detection counts but lose presence
    and coverage.
    """
    z = np.zeros(n_frames, np.int8)
    by_frame = {e.frame_index: e for e in entries}
    for e in entries:
        z[e.frame_index] = e.z
    z_f = metrics.temporal_filter(z, min_run=min_run, max_gap=max_gap)
    out: list[metrics.FrameCoverage] = []
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


# ---------------------------------------------------------------------------
# evaluate


@dataclass
class EvaluateConfig:
    labels_dir: Path
    detections: Path
    meta: FrameMeta
    out_dir: Path
    class_map: ClassMap | None = None
    iou_threshold: float = 0.5
    box_mode: str = "obb"
    conf_threshold: float | None = None
    interpolation: str = "all_points"
    fmt: str = "csv"
    strict: bool = False

    def __post_init__(self):
        evaluation.check_settings(self.iou_threshold, self.box_mode, self.conf_threshold, self.interpolation)


UNMATCHED_SAMPLES = 5  # prediction video ids named in the unmatched-frame warning


def load_ground_truth(
    labels_dir: Path,
    meta: FrameMeta,
    n_classes: int | None,
    strict: bool,
    warnings: list[str],
    stats: dict | None = None,
) -> tuple[list[GroundTruth], set[str]]:
    """Read every label file of a split directory into pixel-space records.

    Returns the records and the frame ids of the split: the stems of
    its images and label files, empty frames included.
    """
    pairs = load_split(labels_dir.parent, labels_dir.name, strict=strict, warnings=warnings)
    gts: list[GroundTruth] = []
    file_stats = {"skipped": 0}
    for pair in pairs:
        if pair.label_path is not None:
            gts.extend(
                read_label_file(pair.label_path, meta, n_classes, strict=strict, warnings=warnings, stats=file_stats)
            )
    if stats is not None:
        stats["gt_parsed"] = len(gts)
        stats["gt_skipped"] = file_stats["skipped"]
    return gts, {pair.stem for pair in pairs}


def load_predictions(
    path: Path,
    class_map: ClassMap | None,
    meta: FrameMeta | None,
    strict: bool,
    warnings: list[str],
) -> tuple[list[Detection], int]:
    """Read a detections file; returns (records, skipped count)."""
    dets: list[Detection] = []
    n_skipped = 0
    for lines, first_line_no in _line_chunks(path):
        chunk = parse_detection_chunk(lines, first_line_no, class_map, meta, strict)
        warnings.extend(chunk.warnings)
        n_skipped += chunk.n_skipped
        dets.extend(chunk.detections())
    return dets, n_skipped


def run_evaluate(cfg: EvaluateConfig, config_echo: dict | None = None) -> RunReport:
    """Split ground truth + predictions -> AP/mAP/PR/IoU-histogram report."""
    t0 = time.perf_counter()
    report = RunReport(command="evaluate", config=config_echo or {})
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    n_classes = len(cfg.class_map) if cfg.class_map else None
    gts, frame_ids = load_ground_truth(cfg.labels_dir, cfg.meta, n_classes, cfg.strict, report.warnings, stats)
    if not gts:
        raise DataError(f"no ground-truth instances under {cfg.labels_dir}")
    preds, n_pred_skipped = load_predictions(
        cfg.detections, cfg.class_map, None, cfg.strict, report.warnings
    )
    unmatched = [p.video_id for p in preds if p.video_id not in frame_ids]
    if unmatched:
        named = ", ".join(repr(v) for v in list(dict.fromkeys(unmatched))[:UNMATCHED_SAMPLES])
        if cfg.strict:
            raise DataError(f"prediction video_id {unmatched[0]!r} matches no frame under {cfg.labels_dir}")
        report.warnings.append(
            f"{len(unmatched)} predictions match no frame (video_id is not a label stem), "
            f"counted as false positives: {named}"
        )

    audit = evaluation.MatchAudit()
    result = evaluation.evaluate(
        preds,
        gts,
        iou_threshold=cfg.iou_threshold,
        box_mode=cfg.box_mode,
        conf_threshold=cfg.conf_threshold,
        interpolation=cfg.interpolation,
        audit=audit,
    )
    report.warnings.extend(audit.notes)

    names = {i: cfg.class_map.name_of(i) for i in range(len(cfg.class_map))} if cfg.class_map else None
    if cfg.fmt == "json":
        out_path = cfg.out_dir / "eval.json"
        write_json_report(out_path, result.to_payload(names))
    else:
        out_path = cfg.out_dir / "eval.csv"
        write_table(out_path, evaluation.EVAL_TABLE_FIELDS, result.to_rows(), "csv")
    report.outputs = [str(out_path)]
    report.counts = {
        "ground_truth_parsed": stats.get("gt_parsed", 0),
        "ground_truth_skipped": stats.get("gt_skipped", 0),
        "predictions_parsed": len(preds),
        "predictions_skipped": n_pred_skipped,
        "predictions_unmatched_frame": len(unmatched),
        "predictions_evaluated": result.n_predictions,
        "ground_truth_evaluated": result.n_ground_truth,
    }
    report.summary = {
        "map50": result.map50,
        "precision": result.precision,
        "recall": result.recall,
        "operating_confidence": result.operating_confidence,
    }
    report.duration_s = time.perf_counter() - t0
    report.write(cfg.out_dir)
    return report


# ---------------------------------------------------------------------------
# fit (tightness-ratio analysis)


@dataclass
class FitConfig:
    out_dir: Path
    labels_dir: Path | None = None
    detections: Path | None = None
    meta: FrameMeta | None = None
    class_map: ClassMap | None = None
    bin_width: float | None = None  # None emits both 15 and 5 degree tables
    fmt: str = "csv"
    strict: bool = False

    def __post_init__(self):
        if self.labels_dir is None and self.detections is None:
            raise ConfigError("fit requires --labels and/or --detections")
        if self.labels_dir is not None and self.meta is None:
            raise ConfigError("label TR analysis requires frame dimensions (--meta or --width/--height)")
        if self.bin_width is not None:
            tightness.check_bin_width(self.bin_width)


def _tr_samples(boxes: list, source: str) -> list[tightness.TRSample]:
    """TR samples of GroundTruths or Detections, one batch call per CHUNK_LINES boxes.

    Blocks bound the batch kernels' temporaries: one call over 20k boxes
    raised fit's peak RSS by about 5 MiB.
    """
    out = []
    for i in range(0, len(boxes), CHUNK_LINES):
        part = boxes[i : i + CHUNK_LINES]
        quads = np.array([b.quad for b in part]).reshape(-1, 4, 2)
        out.extend(tightness.tr_sample(quads, source, [b.class_id for b in part]))
    return out


def _tr_samples_from_gts(gts: list[GroundTruth], warnings: list[str]) -> list[tightness.TRSample]:
    kept = []
    for gt in gts:
        if gt.degenerate:
            warnings.append(f"{gt.frame_id}: degenerate ground truth excluded from TR analysis")
            continue
        kept.append(gt)
    return _tr_samples(kept, "ground_truth")


def _tr_samples_from_preds(preds: list[Detection], warnings: list[str]) -> list[tightness.TRSample]:
    kept = []
    for det in preds:
        if det.degenerate:
            warnings.append(f"{det.video_id}#{det.frame_index}: degenerate prediction excluded from TR analysis")
            continue
        kept.append(det)
    return _tr_samples(kept, "prediction")


def run_fit(cfg: FitConfig, config_echo: dict | None = None) -> RunReport:
    """Tightness-ratio vs orientation tables for labels and/or predictions."""
    t0 = time.perf_counter()
    report = RunReport(command="fit", config=config_echo or {})
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    gt_samples: list[tightness.TRSample] = []
    pred_samples: list[tightness.TRSample] = []
    n_classes = len(cfg.class_map) if cfg.class_map else None
    if cfg.labels_dir is not None:
        gts, _ = load_ground_truth(cfg.labels_dir, cfg.meta, n_classes, cfg.strict, report.warnings)
        gt_samples = _tr_samples_from_gts(gts, report.warnings)
    if cfg.detections is not None:
        preds, _ = load_predictions(cfg.detections, cfg.class_map, None, cfg.strict, report.warnings)
        pred_samples = _tr_samples_from_preds(preds, report.warnings)
    if not gt_samples and not pred_samples:
        raise DataError("no valid samples for TR analysis")

    widths = [cfg.bin_width] if cfg.bin_width is not None else [15.0, 5.0]
    overall_gaps: dict[str, float | None] = {}
    for width in widths:
        tag = format(width, "g")
        rows: list[dict] = []
        if gt_samples:
            rows.extend(tightness.bin_rows(tightness.bin_by_orientation(gt_samples, width), "ground_truth"))
        if pred_samples:
            rows.extend(tightness.bin_rows(tightness.bin_by_orientation(pred_samples, width), "prediction"))
        out_bins = cfg.out_dir / f"tr_bins_bw{tag}.{cfg.fmt}"
        write_table(out_bins, tightness.TR_BIN_FIELDS, rows, cfg.fmt)
        report.outputs.append(str(out_bins))
        if gt_samples and pred_samples:
            gap_rows, overall = tightness.compare_gt_pred_tr(gt_samples, pred_samples, width)
            out_gap = cfg.out_dir / f"tr_gap_bw{tag}.{cfg.fmt}"
            write_table(out_gap, tightness.TR_GAP_FIELDS, gap_rows, cfg.fmt)
            report.outputs.append(str(out_gap))
            overall_gaps[tag] = overall

    report.counts = {
        "gt_samples": len(gt_samples),
        "pred_samples": len(pred_samples),
    }
    report.summary = {"overall_mean_abs_gap": overall_gaps}
    report.duration_s = time.perf_counter() - t0
    report.write(cfg.out_dir)
    return report


# ---------------------------------------------------------------------------
# losscheck


@dataclass
class LossCheckConfig:
    params: LossParams = field(default_factory=LossParams)
    out_dir: Path | None = None


def run_losscheck(cfg: LossCheckConfig, config_echo: dict | None = None) -> tuple[RunReport, bool]:
    """Run the loss fixture suite; returns (report, all_passed)."""
    t0 = time.perf_counter()
    report = RunReport(command="losscheck", config=config_echo or {})
    checks = run_loss_checks(cfg.params)
    all_passed = all(c.passed for c in checks)
    report.counts = {
        "checks_total": len(checks),
        "checks_passed": sum(1 for c in checks if c.passed),
        "checks_failed": sum(1 for c in checks if not c.passed),
    }
    report.summary = {
        "checks": [
            {
                "name": c.name,
                "expected": c.expected,
                "actual": c.actual,
                "tol": c.tol,
                "passed": c.passed,
            }
            for c in checks
        ]
    }
    report.duration_s = time.perf_counter() - t0
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        report.write(cfg.out_dir)
    return report, all_passed


def default_jobs() -> int:
    return os.cpu_count() or 1
