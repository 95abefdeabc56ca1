"""Brand-level visibility metrics from per-frame detections.

Per frame and brand, coverage is the summed area of the detection
polygons clipped to the frame, divided by the frame area and capped at
1 (overlapping boxes are summed in record order, not unioned, before
the cap).  Frame coverages aggregate into exposure seconds, average
coverage on present frames, average coverage over all frames, maximum
coverage and the total detection count.

The columnar kernels (coverage_columns, filter_coverage and
aggregate_columns, chained by reduce_coverage for analyze) are the only
implementation.  The one-brand functions frame_coverage,
aggregate_brand, temporal_filter and build_timeline are views of them,
so they give analyze's bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError
from .formats import Detection, FrameMeta
from .geometry import RectAA, clip_areas_to_rect

BRAND_METRICS_FIELDS = [
    "brand_id",
    "brand_name",
    "exposure_s",
    "avg_cov_present_pct",
    "avg_cov_overall_pct",
    "max_cov_pct",
    "detection_count",
    "frames_visible",
]

TIMELINE_FIELDS = ["brand_id", "frame_index", "coverage"]

RANKING_FIELDS = ["rank", "brand_id", "brand_name", "exposure_s"]


@dataclass(frozen=True)
class FrameCoverage:
    """Coverage of one brand in one frame."""

    frame_index: int
    brand_id: int
    c: float
    z: int
    detection_count: int


@dataclass(frozen=True)
class BrandMetrics:
    """Video-level visibility aggregate of one brand."""

    brand_id: int
    exposure_s: float
    avg_cov_present_pct: float
    avg_cov_overall_pct: float
    max_cov_pct: float
    detection_count: int
    frames_visible: int


@dataclass(frozen=True)
class ExposureTimeline:
    """Per-brand coverage series plus the top-K exposure ranking."""

    series: dict[int, list[tuple[int, float]]]
    ranking: list[tuple[int, float]]


@dataclass(frozen=True)
class CoverageColumns:
    """FrameCoverage fields as columns (``z`` as bool), ordered by brand, then frame."""

    brands: np.ndarray
    frames: np.ndarray
    c: np.ndarray
    z: np.ndarray
    counts: np.ndarray


def _starts(*keys: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Mask of the positions where any of the sorted key columns changes value.

    With ``order``, the keys are taken in that order, one key at a time.
    """
    new = np.zeros(keys[0].size, bool)
    new[:1] = True
    for key in keys:
        key = key if order is None else key[order]
        new[1:] |= key[1:] != key[:-1]
    return new


def coverage_columns(frames: np.ndarray, classes: np.ndarray, areas: np.ndarray, frame_area: float) -> CoverageColumns:
    """Reduce per-detection clipped areas to per-(brand, frame) coverage.

    Each entry sums its areas sequentially in record order (np.add.at
    over a stable sort), so the bits do not depend on how the records
    were chunked.  Each per-record temporary is dropped as soon as it
    is used, since this reduction sets the peak memory of analyze.
    """
    order = np.lexsort((frames, classes))
    new = _starts(classes, frames, order=order)
    first = np.flatnonzero(new)
    rows, counts = order[first], np.diff(first, append=classes.size)
    del first
    areas = areas[order]
    del order
    entry_of = new.astype(np.int64)
    del new
    np.cumsum(entry_of, out=entry_of)  # in place: np.cumsum of the bools would cast them in a full copy
    entry_of -= 1
    c = np.zeros(rows.size)
    np.add.at(c, entry_of, areas)
    del entry_of, areas
    c /= frame_area
    np.minimum(c, 1.0, out=c)
    return CoverageColumns(classes[rows], frames[rows], c, c > 0.0, counts)


def filter_coverage(cov: CoverageColumns, min_run: int, max_gap: int) -> CoverageColumns:
    """temporal_filter applied to every brand's visibility, in run space.

    Costs O(entries plus bridged frames), whatever the frame count.
    Bridged frames get c=0, z=1 and their original count (0 without an
    entry); suppressed frames keep their counts and lose c and z.
    """
    if not cov.z.any():
        return cov
    vis = np.flatnonzero(cov.z)
    vb, vf = cov.brands[vis], cov.frames[vis]
    del vis
    brk = _starts(vb, vf - np.arange(vf.size))  # a run continues while the frame steps by 1
    run_b, run_s = vb[brk], vf[brk]
    run_last = vf[np.append(np.flatnonzero(brk)[1:] - 1, vf.size - 1)]  # inclusive: no overflow at int64 max
    del vb, vf, brk
    bridge = np.zeros(run_b.size, bool)
    bridge[1:] = (run_b[1:] == run_b[:-1]) & (run_s[1:] - run_last[:-1] <= max_gap + 1)
    run_b, run_s, run_last = run_b[~bridge], run_s[~bridge], run_last[np.append(~bridge[1:], True)]
    kept = run_last - run_s >= min_run - 1
    run_b, run_s, lengths = run_b[kept], run_s[kept], (run_last - run_s)[kept] + 1
    run_of = np.repeat(np.arange(lengths.size), lengths)
    shown_f = run_s[run_of] + np.arange(run_of.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)

    # sorted two-column join of the entries with the visible frames; an entry sorts first
    n = cov.brands.size
    all_b = np.concatenate([cov.brands, run_b[run_of]])
    all_f = np.concatenate([cov.frames, shown_f])
    del run_of, shown_f
    order = np.lexsort((all_f, all_b))
    new = _starts(all_b, all_f, order=order)
    src = order[new]
    del order
    paired = ~np.append(new[1:], True)[new]  # keys are unique on each side, so a key has at most two rows
    del new
    brands, frames = all_b[src], all_f[src]
    del all_b, all_f
    has_entry = src < n
    visible = paired | ~has_entry
    src[~has_entry] = 0  # rows without an entry read entry 0, which the masks below discard
    c = np.where(visible & has_entry & cov.z[src], cov.c[src], 0.0)
    return CoverageColumns(brands, frames, c, visible, np.where(has_entry, cov.counts[src], 0))


def _brand_spans(cov: CoverageColumns) -> list[tuple[int, int, int, int]]:
    """(brand, first row, end row, visible frames) of every brand of the columns."""
    first = np.flatnonzero(_starts(cov.brands))
    spans = zip(cov.brands[first].tolist(), first.tolist(), [*first[1:].tolist(), cov.brands.size])
    return [(brand, lo, hi, int(np.count_nonzero(cov.z[lo:hi]))) for brand, lo, hi in spans]


def aggregate_columns(cov: CoverageColumns, meta: FrameMeta) -> list[BrandMetrics]:
    """Video-level metrics of every brand of the columns, brands ascending.

    Works on one brand's rows at a time; math.fsum iterates the product
    column without a list of it, and its sum is exactly rounded.
    """
    out = []
    for brand, lo, hi, n in _brand_spans(cov):
        c = cov.c[lo:hi]
        total, count = math.fsum(c * cov.z[lo:hi]), int(cov.counts[lo:hi].sum())
        present = 100.0 * total / n if n > 0 else 0.0
        overall = 100.0 * total / meta.frame_count
        out.append(BrandMetrics(brand, meta.dt * n, present, overall, 100.0 * float(c.max()), count, n))
    return out


def _report_order(brand: int, exposure_s: float) -> tuple[float, int]:
    """Sort key of the brands in every report: exposure descending, then brand id."""
    return -exposure_s, brand


def _ranking(exposures: list[tuple[int, float]], k: int) -> list[tuple[int, float]]:
    """The top ``k`` of (brand, exposure_s) pairs, in report order."""
    return sorted(exposures, key=lambda item: _report_order(*item))[:k]


def reduce_coverage(
    frames: np.ndarray,
    classes: np.ndarray,
    areas: np.ndarray,
    meta: FrameMeta,
    n_frames: int,
    top_k: int,
    min_run: int,
    max_gap: int,
) -> tuple[list[BrandMetrics], CoverageColumns, list[tuple[int, float]]]:
    """Per-detection areas -> (brand metrics, filtered timeline columns, top-K (brand, exposure) ranking)."""
    cov = coverage_columns(frames, classes, areas, meta.frame_area)
    if min_run > 1 or max_gap > 0:
        cov = filter_coverage(cov, min_run, max_gap)
    brand_metrics = aggregate_columns(cov, replace(meta, frame_count=n_frames))
    return brand_metrics, cov, _ranking([(m.brand_id, m.exposure_s) for m in brand_metrics], top_k)


# ---------------------------------------------------------------------------
# One-brand views of the columnar kernels


def _columns(coverages: list[FrameCoverage]) -> CoverageColumns:
    """FrameCoverages as columns, ordered by brand, then frame."""
    fields = (("brand_id", np.int64), ("frame_index", np.int64), ("c", float), ("z", bool), ("detection_count", np.int64))
    cols = [np.array([getattr(cov, name) for cov in coverages], dtype) for name, dtype in fields]
    order = np.lexsort((cols[1], cols[0]))
    return CoverageColumns(*(col[order] for col in cols))


def frame_coverage(dets: list[Detection], meta: FrameMeta) -> FrameCoverage:
    """Coverage of one brand's detections within one frame, as analyze computes it.

    All detections must share brand and frame; an empty list yields
    c=0, z=0, count=0.  The quads are clipped in the vertex order given:
    parsed Detections, in canonical order, give analyze's timeline cell.
    """
    if not dets:
        return FrameCoverage(frame_index=0, brand_id=0, c=0.0, z=0, detection_count=0)
    brand, frame, n = dets[0].class_id, dets[0].frame_index, len(dets)
    if any(d.class_id != brand or d.frame_index != frame for d in dets):
        raise ValueError("frame_coverage requires detections of one brand in one frame")
    areas = clip_areas_to_rect(np.stack([d.quad for d in dets]), RectAA(0.0, 0.0, meta.width, meta.height))
    cov = coverage_columns(np.full(n, frame, np.int64), np.full(n, brand, np.int64), areas, meta.frame_area)
    return FrameCoverage(frame_index=frame, brand_id=brand, c=float(cov.c[0]), z=int(cov.z[0]), detection_count=n)


def aggregate_brand(coverages: list[FrameCoverage], meta: FrameMeta) -> BrandMetrics:
    """Collapse one brand's frame coverages into its video-level metrics (aggregate_columns).

    Frames without an entry count as z=0.  math.fsum keeps the sums
    exactly rounded, so the result is independent of coverage order.
    """
    if meta.frame_count <= 0:
        raise ConfigError("aggregation requires a positive frame count")
    if len({cov.brand_id for cov in coverages}) > 1:
        raise ValueError("aggregate_brand requires the frame coverages of one brand")
    return (aggregate_columns(_columns(coverages), meta) or [BrandMetrics(0, 0.0, 0.0, 0.0, 0.0, 0, 0)])[0]


def temporal_filter(z, min_run: int = 1, max_gap: int = 0) -> np.ndarray:
    """Smooth a per-frame visibility series (filter_coverage on its visible frames).

    Gaps of at most ``max_gap`` zero frames between visible runs are
    bridged first, then runs shorter than ``min_run`` are suppressed.
    Defaults are the identity.  Bridged frames mark presence only; the
    caller must not attribute coverage area to them.
    """
    if min_run < 1:
        raise ConfigError(f"min_run must be >= 1, got {min_run}")
    if max_gap < 0:
        raise ConfigError(f"max_gap must be >= 0, got {max_gap}")
    z = np.asarray(z, dtype=np.int8)
    if z.ndim != 1:
        raise ValueError("z must be a 1-D series")
    frames = np.flatnonzero(z)
    n = frames.size
    visible = CoverageColumns(np.zeros(n, np.int64), frames, np.ones(n), np.ones(n, bool), np.ones(n, np.int64))
    shown = filter_coverage(visible, min_run, max_gap)
    out = np.zeros_like(z)
    out[shown.frames[shown.z]] = 1
    return out


def build_timeline(coverages: list[FrameCoverage], k: int, meta: FrameMeta) -> ExposureTimeline:
    """Per-brand coverage series and the top-K brands by exposure.

    Visibility comes from the z flags, so a temporally filtered series
    (bridged frames carry z=1 with zero coverage) ranks consistently
    with aggregate_brand.
    """
    if k < 1:
        raise ConfigError(f"top-k must be >= 1, got {k}")
    cov = _columns(coverages)
    frames, c, spans = cov.frames.tolist(), cov.c.tolist(), _brand_spans(cov)
    series = {brand: list(zip(frames[lo:hi], c[lo:hi])) for brand, lo, hi, _ in spans}
    return ExposureTimeline(series=series, ranking=_ranking([(b, meta.dt * n) for b, _, _, n in spans], k))


def metrics_rows(metrics: list[BrandMetrics], names: dict[int, str] | None = None) -> list[dict]:
    """Report rows in report order (exposure descending, then brand id)."""
    ranked = sorted(metrics, key=lambda m: _report_order(m.brand_id, m.exposure_s))
    return [{**asdict(m), "brand_name": names.get(m.brand_id, "") if names else ""} for m in ranked]


def timeline_rows(timeline: ExposureTimeline) -> list[dict]:
    rows = []
    for brand in sorted(timeline.series):
        for frame, c in timeline.series[brand]:
            rows.append({"brand_id": brand, "frame_index": frame, "coverage": c})
    return rows


def ranking_rows(ranking: list[tuple[int, float]], names: dict[int, str] | None = None) -> list[dict]:
    rows = []
    for rank, (brand, exposure) in enumerate(ranking, start=1):
        rows.append(
            {
                "rank": rank,
                "brand_id": brand,
                "brand_name": names.get(brand, "") if names else "",
                "exposure_s": exposure,
            }
        )
    return rows
