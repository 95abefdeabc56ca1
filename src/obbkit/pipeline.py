"""Command orchestration: ingestion through metrics to report files.

The analyze path is chunked: the parent finds the byte ranges of
consecutive CHUNK_LINES-line runs of the detection stream, each chunk
is read, parsed and clipped into flat arrays by whoever handles it
(optionally a worker process), and the per-(brand, frame) reduction
happens in the parent in chunk order.  Chunk size is independent of
the worker count, and every reduction is either
exactly rounded (math.fsum) or performed in canonical order, so the
same input produces byte-identical reports at any ``--jobs`` level.
"""

from __future__ import annotations

import json  # noqa: F401 - bound for the benchmark's layer tracer
import logging
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, metrics, tightness
from .errors import ConfigError, DataError
from .formats import ClassMap, FrameMeta, line_ranges, read_detection_range, read_split_labels, write_json_report, write_table
from .formats import iter_detections, read_label_file, validate_detection_obj  # noqa: F401 - bound for the benchmark's layer tracer
from .geometry import RectAA, clip_areas_to_rect
from .geometry import degenerate_mask  # noqa: F401 - bound for the benchmark's layer tracer
from .losses import LossParams, run_loss_checks

CHUNK_LINES = 8192
SPARSE_FRAME_RATIO = 1000  # inferred frame counts above this many times the distinct frames get a warning
VIDEO_ID_SAMPLES = 5  # video ids named in the mixed-video warning

logger = logging.getLogger(__name__)


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
        return asdict(self)

    def output(self, path: Path) -> Path:
        """``path``, listed in ``outputs`` as a report file of this run."""
        self.outputs.append(str(path))
        return path


@contextmanager
def _run(command: str, out_dir: Path | None, config_echo: dict | None, outputs: tuple[str, ...] = ()):
    """One command run: makes ``out_dir`` and yields the RunReport that the body fills in.

    Before the body reads any input, the report files named in ``outputs``
    and run_report.json are removed from ``out_dir``, so a failed run
    leaves no earlier run's report behind.  When the body succeeds, the
    report gets its duration and is written to
    ``<out_dir>/run_report.json``.  Without an ``out_dir`` nothing is
    written.  An ``out_dir`` that cannot be made (a file at it or above
    it) is a ConfigError, raised before the body reads any input.
    """
    t0 = time.perf_counter()
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
        for name in (*outputs, "run_report.json"):
            (out_dir / name).unlink(missing_ok=True)
    report = RunReport(command=command, config=config_echo or {})
    yield report
    report.duration_s = time.perf_counter() - t0
    if out_dir is not None:
        write_json_report(out_dir / "run_report.json", report.to_payload())


def _map_ordered(worker, tasks, jobs: int):
    """Map tasks to results in submission order, with bounded in-flight work."""
    jobs = min(jobs, default_jobs())  # results do not depend on it, and the pool starts every worker at once
    if jobs <= 1:
        for task in tasks:
            yield worker(task)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, so single-process runs never load multiprocessing

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
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


@dataclass
class _ChunkResult:
    n_records: int
    n_skipped: int
    n_below_conf: int
    frames: np.ndarray | None  # the three columns are None once run_analyze has joined them
    classes: np.ndarray | None
    areas: np.ndarray | None
    max_frame: int
    distinct_frames: np.ndarray  # of the valid records at any confidence; empty when meta has a frame count
    warnings: list[str]
    video_ids: list[str]  # the first VIDEO_ID_SAMPLES distinct ids, in line order


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values: np.unique's, without the numpy.ma import that np.unique makes."""
    values = np.sort(values)
    first = np.ones(values.size, bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _analyze_chunk(task) -> _ChunkResult:
    path, offset, n_lines, first_line_no, meta, class_map, conf_threshold, strict = task
    chunk = read_detection_range(path, offset, n_lines, first_line_no, class_map, meta, strict)
    above = chunk.confs >= conf_threshold
    rect = RectAA(0.0, 0.0, meta.width, meta.height)
    return _ChunkResult(
        chunk.n_records,
        chunk.n_skipped,
        int((~above).sum()),
        chunk.frames[above],
        chunk.classes[above],
        clip_areas_to_rect(chunk.quads[above], rect),
        chunk.max_frame,
        _distinct(chunk.frames) if meta.frame_count <= 0 else chunk.frames[:0],
        chunk.warnings,
        list(dict.fromkeys(chunk.video_ids))[:VIDEO_ID_SAMPLES],
    )


def run_analyze(cfg: AnalyzeConfig, config_echo: dict | None = None) -> RunReport:
    """Detections stream -> brand metrics, timeline and ranking reports."""
    if not cfg.detections.is_file():
        raise ConfigError(f"detections file not found: {cfg.detections}")
    with _run("analyze", cfg.out_dir, config_echo, tuple(f"{t}.{cfg.fmt}" for t in ("brand_metrics", "timeline", "ranking"))) as report:
        tasks = (
            (cfg.detections, *span, cfg.meta, cfg.class_map, cfg.conf_threshold, cfg.strict)
            for span in line_ranges(cfg.detections, CHUNK_LINES)
        )
        chunks = list(_map_ordered(_analyze_chunk, tasks, cfg.jobs))
        frames = np.concatenate([np.zeros(0, np.int64), *(c.frames for c in chunks)])
        classes = np.concatenate([np.zeros(0, np.int64), *(c.classes for c in chunks)])
        areas = np.concatenate([np.zeros(0), *(c.areas for c in chunks)])
        for c in chunks:
            c.frames = c.classes = c.areas = None

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
                distinct = _distinct(np.concatenate([c.distinct_frames for c in chunks])).size
                if distinct * SPARSE_FRAME_RATIO < n_frames:
                    report.warnings.append(
                        f"inferred frame count {n_frames} is over {SPARSE_FRAME_RATIO}x the {distinct} distinct "
                        "frames with detections; check for an outlier frame index"
                    )
        if n_records == 0:
            report.warnings.append("empty detections input; reports contain no brands")
        video_ids = list(dict.fromkeys(v for c in chunks for v in c.video_ids))[:VIDEO_ID_SAMPLES]
        if len(video_ids) > 1:
            logger.warning(
                "detections of more than one video are merged into one timeline: %s",
                ", ".join(map(repr, video_ids)),
            )

        brand_metrics, timeline, ranking = metrics.reduce_coverage(
            frames, classes, areas, cfg.meta, n_frames, cfg.top_k, cfg.min_run, cfg.max_gap
        )

        names = {i: cfg.class_map.name_of(i) for i in range(len(cfg.class_map))} if cfg.class_map else None
        fmt, out = cfg.fmt, cfg.out_dir
        rows = metrics.metrics_rows(brand_metrics, names)
        write_table(report.output(out / f"brand_metrics.{fmt}"), metrics.BRAND_METRICS_FIELDS, rows, fmt)
        timeline_columns = dict(zip(metrics.TIMELINE_FIELDS, (timeline.brands, timeline.frames, timeline.c)))
        write_table(report.output(out / f"timeline.{fmt}"), metrics.TIMELINE_FIELDS, timeline_columns, fmt)
        write_table(report.output(out / f"ranking.{fmt}"), metrics.RANKING_FIELDS, metrics.ranking_rows(ranking, names), fmt)

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
                {"brand_id": b, "exposure_s": e} for b, e in ranking
            ]
        }
    return report


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


def _detection_chunks(path: Path, class_map: ClassMap | None, meta: FrameMeta | None, strict: bool, warnings: list):
    """The DetectionChunks of a detections file, CHUNK_LINES lines each, read in order; collects their warnings."""
    for span in line_ranges(path, CHUNK_LINES):
        chunk = read_detection_range(path, *span, class_map, meta, strict)
        warnings.extend(chunk.warnings)
        yield chunk


def run_evaluate(cfg: EvaluateConfig, config_echo: dict | None = None) -> RunReport:
    """Split ground truth + predictions -> AP/mAP/PR/IoU-histogram report.

    The split's labels are read once into columns, and so are the
    predictions, chunk by chunk, with their quads in canonical order.
    """
    with _run("evaluate", cfg.out_dir, config_echo, (f"eval.{cfg.fmt}",)) as report:
        n_classes = len(cfg.class_map) if cfg.class_map else None
        labels = read_split_labels(cfg.labels_dir, cfg.meta, n_classes, cfg.strict, report.warnings)
        if not labels.classes.size:
            raise DataError(f"no ground-truth instances under {cfg.labels_dir}")
        chunks = list(_detection_chunks(cfg.detections, cfg.class_map, None, cfg.strict, report.warnings))
        video_ids = [v for c in chunks for v in c.video_ids]
        classes = np.concatenate([np.zeros(0, np.int64), *(c.classes for c in chunks)])
        confs = np.concatenate([np.zeros(0), *(c.confs for c in chunks)])
        quads = np.concatenate([np.zeros((0, 4, 2)), *(c.quads for c in chunks)])
        stems = set(labels.stems)
        unmatched = [v for v in video_ids if v not in stems]
        n_unmatched, named = len(unmatched), list(dict.fromkeys(unmatched))[:UNMATCHED_SAMPLES]
        if n_unmatched:
            if cfg.strict:
                raise DataError(f"prediction video_id {named[0]!r} matches no frame under {cfg.labels_dir}")
            report.warnings.append(
                f"{n_unmatched} predictions match no frame (video_id is not a label stem), "
                f"counted as false positives: {', '.join(map(repr, named))}"
            )

        audit = evaluation.MatchAudit()
        result = evaluation.evaluate_columns(
            labels, video_ids, classes, confs, quads, iou_threshold=cfg.iou_threshold, box_mode=cfg.box_mode,
            conf_threshold=cfg.conf_threshold, interpolation=cfg.interpolation, audit=audit,
        )
        report.warnings.extend(audit.notes)

        names = {i: cfg.class_map.name_of(i) for i in range(len(cfg.class_map))} if cfg.class_map else None
        if cfg.fmt == "json":
            write_json_report(report.output(cfg.out_dir / "eval.json"), result.to_payload(names))
        else:
            write_table(report.output(cfg.out_dir / "eval.csv"), evaluation.EVAL_TABLE_FIELDS, result.to_rows(), "csv")
        report.counts = {
            "ground_truth_parsed": int(labels.classes.size),
            "ground_truth_skipped": labels.n_skipped,
            "predictions_parsed": len(video_ids),
            "predictions_skipped": sum(c.n_skipped for c in chunks),
            "predictions_unmatched_frame": n_unmatched,
            "predictions_evaluated": result.n_predictions,
            "ground_truth_evaluated": result.n_ground_truth,
        }
        report.summary = {
            "map50": result.map50,
            "precision": result.precision,
            "recall": result.recall,
            "operating_confidence": result.operating_confidence,
        }
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


def run_fit(cfg: FitConfig, config_echo: dict | None = None) -> RunReport:
    """Tightness-ratio vs orientation tables for labels and/or predictions."""
    widths = [cfg.bin_width] if cfg.bin_width is not None else [15.0, 5.0]
    names = tuple(f"tr_{table}_bw{format(width, 'g')}.{cfg.fmt}" for width in widths for table in ("bins", "gap"))
    with _run("fit", cfg.out_dir, config_echo, names) as report:
        blocks: dict[str, list] = {"ground_truth": [], "prediction": []}  # a source's (trs, angles) per tr_sample call
        n_gt_parsed = n_gt_skipped = n_pred_skipped = 0
        n_classes = len(cfg.class_map) if cfg.class_map else None
        if cfg.labels_dir is not None:
            labels = read_split_labels(cfg.labels_dir, cfg.meta, n_classes, cfg.strict, report.warnings)
            n_gt_parsed, n_gt_skipped = int(labels.classes.size), labels.n_skipped
            report.warnings.extend(
                f"{labels.stems[f]}: degenerate ground truth excluded from TR analysis"
                for f in labels.frames[labels.degenerate].tolist()
            )
            quads = labels.quads[~labels.degenerate]
            # blocks bound the batch kernels' temporaries: one call over 20k boxes raised peak RSS by about 5 MiB
            for i in range(0, len(quads), CHUNK_LINES):
                blocks["ground_truth"].append(tightness.tr_sample(quads[i : i + CHUNK_LINES]))
        if cfg.detections is not None:
            for chunk in _detection_chunks(cfg.detections, cfg.class_map, None, cfg.strict, report.warnings):
                n_pred_skipped += chunk.n_skipped
                blocks["prediction"].append(tightness.tr_sample(chunk.quads))
        n = {source: sum(trs.size for trs, _ in parts) for source, parts in blocks.items()}
        if not any(n.values()):
            raise DataError("no valid samples for TR analysis")

        columns = {source: [np.concatenate(col) for col in zip(*parts)] for source, parts in blocks.items() if n[source]}
        overall_gaps: dict[str, float | None] = {}
        for width in widths:
            tag = format(width, "g")
            bins = {source: tightness.bin_tr_columns(trs, angles, width) for source, (trs, angles) in columns.items()}
            rows = [row for source, stat_list in bins.items() for row in tightness.bin_rows(stat_list, source)]
            write_table(report.output(cfg.out_dir / f"tr_bins_bw{tag}.{cfg.fmt}"), tightness.TR_BIN_FIELDS, rows, cfg.fmt)
            if len(bins) == 2:
                gap_rows, overall = tightness.gap_rows(bins["ground_truth"], bins["prediction"])
                write_table(report.output(cfg.out_dir / f"tr_gap_bw{tag}.{cfg.fmt}"), tightness.TR_GAP_FIELDS, gap_rows, cfg.fmt)
                overall_gaps[tag] = overall

        report.counts = {
            "gt_samples": n["ground_truth"],
            "pred_samples": n["prediction"],
            "ground_truth_parsed": n_gt_parsed,
            "ground_truth_skipped": n_gt_skipped,
            "predictions_parsed": n["prediction"],
            "predictions_skipped": n_pred_skipped,
        }
        report.summary = {"overall_mean_abs_gap": overall_gaps}
    return report


# ---------------------------------------------------------------------------
# losscheck


@dataclass
class LossCheckConfig:
    params: LossParams = field(default_factory=LossParams)
    out_dir: Path | None = None


def run_losscheck(cfg: LossCheckConfig, config_echo: dict | None = None) -> RunReport:
    """Run the loss fixture suite; ``counts["checks_failed"]`` is 0 when every fixture passes."""
    with _run("losscheck", cfg.out_dir, config_echo) as report:
        checks = run_loss_checks(cfg.params)
        n_passed = sum(c.passed for c in checks)
        report.counts = {"checks_total": len(checks), "checks_passed": n_passed, "checks_failed": len(checks) - n_passed}
        report.summary = {"checks": [asdict(c) for c in checks]}
    return report


def default_jobs() -> int:
    return os.cpu_count() or 1
