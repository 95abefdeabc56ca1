"""Command orchestration: ingestion through metrics to report files.

The analyze path is chunked: the parent finds the byte ranges of
consecutive CHUNK_LINES-line runs of the detection stream, each chunk
is read, parsed and clipped into flat arrays by whoever handles it
(optionally a worker process), and the per-(brand, frame) reduction
happens in the parent in chunk order.  Chunk size is independent of
the worker count, and every reduction is either
exactly rounded (math.fsum) or performed in canonical order, so the
same input produces byte-identical reports at any ``--jobs`` level.

Each ``run_<command>`` takes the command line that ``cli.build_parser``
parsed and checked, its config echo, and the inputs that ``cli`` resolved
from it: the frame metadata and class map, or the loss parameters.
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


def run_analyze(args, config_echo: dict | None, meta: FrameMeta, class_map: ClassMap | None) -> RunReport:
    """Detections stream -> brand metrics, timeline and ranking reports."""
    fmt, out = args.format, args.out
    with _run("analyze", out, config_echo, tuple(f"{t}.{fmt}" for t in ("brand_metrics", "timeline", "ranking"))) as report:
        tasks = (
            (args.detections, *span, meta, class_map, args.conf_threshold, args.strict)
            for span in line_ranges(args.detections, CHUNK_LINES)
        )
        chunks = list(_map_ordered(_analyze_chunk, tasks, args.jobs))
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

        n_frames = meta.frame_count
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
            frames, classes, areas, meta, n_frames, args.top_k, args.min_run, args.max_gap
        )

        names = None if class_map is None else dict(enumerate(class_map.names))
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


UNMATCHED_SAMPLES = 5  # prediction video ids named in the unmatched-frame warning


def _detection_chunks(path: Path, class_map: ClassMap | None, meta: FrameMeta | None, strict: bool, warnings: list):
    """The DetectionChunks of a detections file, CHUNK_LINES lines each, read in order; collects their warnings."""
    for span in line_ranges(path, CHUNK_LINES):
        chunk = read_detection_range(path, *span, class_map, meta, strict)
        warnings.extend(chunk.warnings)
        yield chunk


def run_evaluate(args, config_echo: dict | None, meta: FrameMeta, class_map: ClassMap | None) -> RunReport:
    """Split ground truth + predictions -> AP/mAP/PR/IoU-histogram report.

    The split's labels are read once into columns, and so are the
    predictions, chunk by chunk, with their quads in canonical order.
    """
    with _run("evaluate", args.out, config_echo, (f"eval.{args.format}",)) as report:
        n_classes = None if class_map is None else len(class_map.names)
        labels = read_split_labels(args.labels, meta, n_classes, args.strict, report.warnings)
        if not labels.classes.size:
            raise DataError(f"no ground-truth instances under {args.labels}")
        chunks = list(_detection_chunks(args.detections, class_map, None, args.strict, report.warnings))
        video_ids = [v for c in chunks for v in c.video_ids]
        classes = np.concatenate([np.zeros(0, np.int64), *(c.classes for c in chunks)])
        confs = np.concatenate([np.zeros(0), *(c.confs for c in chunks)])
        quads = np.concatenate([np.zeros((0, 4, 2)), *(c.quads for c in chunks)])
        stems = set(labels.stems)
        unmatched = [v for v in video_ids if v not in stems]
        n_unmatched, named = len(unmatched), list(dict.fromkeys(unmatched))[:UNMATCHED_SAMPLES]
        if n_unmatched:
            if args.strict:
                raise DataError(f"prediction video_id {named[0]!r} matches no frame under {args.labels}")
            report.warnings.append(
                f"{n_unmatched} predictions match no frame (video_id is not a label stem), "
                f"counted as false positives: {', '.join(map(repr, named))}"
            )

        audit = evaluation.MatchAudit()
        result = evaluation.evaluate_columns(
            labels, video_ids, classes, confs, quads, iou_threshold=args.iou_threshold, box_mode=args.box_mode,
            conf_threshold=args.conf_threshold, interpolation=args.interpolation, audit=audit,
        )
        report.warnings.extend(audit.notes)

        names = None if class_map is None else dict(enumerate(class_map.names))
        if args.format == "json":
            write_json_report(report.output(args.out / "eval.json"), result.to_payload(names))
        else:
            write_table(report.output(args.out / "eval.csv"), evaluation.EVAL_TABLE_FIELDS, result.to_rows(), "csv")
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


def run_fit(args, config_echo: dict | None, meta: FrameMeta | None, class_map: ClassMap | None) -> RunReport:
    """Tightness-ratio vs orientation tables for labels and/or predictions; ``meta`` is None only without --labels."""
    widths = [args.bin_width] if args.bin_width is not None else [15.0, 5.0]  # None emits both 15 and 5 degree tables
    names = tuple(f"tr_{table}_bw{format(width, 'g')}.{args.format}" for width in widths for table in ("bins", "gap"))
    with _run("fit", args.out, config_echo, names) as report:
        blocks: dict[str, list] = {"ground_truth": [], "prediction": []}  # a source's (trs, angles) per tr_sample call
        n_gt_parsed = n_gt_skipped = n_pred_skipped = 0
        if args.labels is not None:
            n_classes = None if class_map is None else len(class_map.names)
            labels = read_split_labels(args.labels, meta, n_classes, args.strict, report.warnings)
            n_gt_parsed, n_gt_skipped = int(labels.classes.size), labels.n_skipped
            report.warnings.extend(
                f"{labels.stems[f]}: degenerate ground truth excluded from TR analysis"
                for f in labels.frames[labels.degenerate].tolist()
            )
            quads = labels.quads[~labels.degenerate]
            # blocks bound the batch kernels' temporaries: one call over 20k boxes raised peak RSS by about 5 MiB
            for i in range(0, len(quads), CHUNK_LINES):
                blocks["ground_truth"].append(tightness.tr_sample(quads[i : i + CHUNK_LINES]))
        if args.detections is not None:
            for chunk in _detection_chunks(args.detections, class_map, None, args.strict, report.warnings):
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
            write_table(report.output(args.out / f"tr_bins_bw{tag}.{args.format}"), tightness.TR_BIN_FIELDS, rows, args.format)
            if len(bins) == 2:
                gap_rows, overall = tightness.gap_rows(bins["ground_truth"], bins["prediction"])
                write_table(report.output(args.out / f"tr_gap_bw{tag}.{args.format}"), tightness.TR_GAP_FIELDS, gap_rows, args.format)
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


def run_losscheck(args, config_echo: dict | None, params: LossParams) -> RunReport:
    """Run the loss fixture suite; ``counts["checks_failed"]`` is 0 when every fixture passes."""
    with _run("losscheck", args.out, config_echo) as report:
        checks = run_loss_checks(params)
        n_passed = sum(c.passed for c in checks)
        report.counts = {"checks_total": len(checks), "checks_passed": n_passed, "checks_failed": len(checks) - n_passed}
        report.summary = {"checks": [asdict(c) for c in checks]}
    return report


def default_jobs() -> int:
    return os.cpu_count() or 1
