"""Brand-level visibility metrics from per-frame detections.

Per frame and brand, coverage is the summed area of the detection
polygons clipped to the frame, divided by the frame area and capped at
1 (overlapping boxes are summed, not unioned, before the cap).  Frame
coverages aggregate into exposure seconds, average coverage on present
frames, average coverage over all frames, maximum coverage and the
total detection count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def frame_rect(meta: FrameMeta) -> RectAA:
    return RectAA(0.0, 0.0, meta.width, meta.height)


def frame_coverage(dets: list[Detection], meta: FrameMeta) -> FrameCoverage:
    """Coverage of one brand's detections within one frame.

    All detections must share brand and frame; an empty list yields
    c=0, z=0, count=0.
    """
    if not dets:
        return FrameCoverage(frame_index=0, brand_id=0, c=0.0, z=0, detection_count=0)
    brand = dets[0].class_id
    frame = dets[0].frame_index
    for d in dets[1:]:
        if d.class_id != brand or d.frame_index != frame:
            raise ValueError("frame_coverage requires detections of one brand in one frame")
    quads = np.stack([d.quad for d in dets])
    total = math.fsum(clip_areas_to_rect(quads, frame_rect(meta)).tolist())
    c = min(1.0, total / meta.frame_area)
    return FrameCoverage(
        frame_index=frame,
        brand_id=brand,
        c=c,
        z=1 if c > 0.0 else 0,
        detection_count=len(dets),
    )


def aggregate_brand(coverages: list[FrameCoverage], meta: FrameMeta) -> BrandMetrics:
    """Collapse one brand's frame coverages into its video-level metrics.

    Frames without an entry count as z=0.  math.fsum keeps the sums
    exactly rounded, so the result is independent of coverage order.
    """
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
    return BrandMetrics(
        brand_id=brand,
        exposure_s=exposure,
        avg_cov_present_pct=present,
        avg_cov_overall_pct=overall,
        max_cov_pct=max_cov,
        detection_count=sum(cov.detection_count for cov in coverages),
        frames_visible=n_visible,
    )


def temporal_filter(z, min_run: int = 1, max_gap: int = 0) -> np.ndarray:
    """Smooth a per-frame visibility series.

    Gaps of at most ``max_gap`` zero frames between visible runs are
    bridged first, then runs shorter than ``min_run`` are suppressed.
    Defaults are the identity.  Bridged frames mark presence only; the
    caller must not attribute coverage area to them.
    """
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


@dataclass(frozen=True)
class CoverageColumns:
    """FrameCoverage fields as columns (``z`` as bool), ordered by brand, then frame."""

    brands: np.ndarray
    frames: np.ndarray
    c: np.ndarray
    z: np.ndarray
    counts: np.ndarray


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the positions where any of the sorted key columns changes value."""
    new = np.ones(keys[0].size, bool)
    new[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return new


def coverage_columns(frames: np.ndarray, classes: np.ndarray, areas: np.ndarray, frame_area: float) -> CoverageColumns:
    """Reduce per-detection clipped areas to per-(brand, frame) coverage.

    Each entry sums its areas sequentially in record order (np.add.at
    over a stable sort), so the bits do not depend on how the records
    were chunked.
    """
    order = np.lexsort((frames, classes))
    brands, frames = classes[order], frames[order]
    new = _starts(brands, frames)
    first = np.flatnonzero(new)
    sums = np.zeros(first.size)
    np.add.at(sums, np.cumsum(new) - 1, areas[order])
    c = np.minimum(1.0, sums / frame_area)
    return CoverageColumns(brands[first], frames[first], c, c > 0.0, np.diff(first, append=brands.size))


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
    brk = _starts(vb, vf - np.arange(vf.size))  # a run continues while the frame steps by 1
    run_b, run_s = vb[brk], vf[brk]
    run_last = vf[np.append(np.flatnonzero(brk)[1:] - 1, vf.size - 1)]  # inclusive: no overflow at int64 max
    bridge = np.zeros(run_b.size, bool)
    bridge[1:] = (run_b[1:] == run_b[:-1]) & (run_s[1:] - run_last[:-1] <= max_gap + 1)
    run_b, run_s, run_last = run_b[~bridge], run_s[~bridge], run_last[np.append(~bridge[1:], True)]
    kept = run_last - run_s >= min_run - 1
    run_b, run_s, lengths = run_b[kept], run_s[kept], (run_last - run_s)[kept] + 1
    run_of = np.repeat(np.arange(lengths.size), lengths)
    shown_f = run_s[run_of] + np.arange(run_of.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)

    # sorted two-column join of the entries with the visible frames; an entry sorts first
    all_b = np.concatenate([cov.brands, run_b[run_of]])
    all_f = np.concatenate([cov.frames, shown_f])
    order = np.lexsort((all_f, all_b))
    new = _starts(all_b[order], all_f[order])
    src = order[new]
    has_entry = src < cov.brands.size
    visible = (np.diff(np.append(np.flatnonzero(new), order.size)) == 2) | ~has_entry
    entry = np.where(has_entry, src, 0)
    c = np.where(visible & has_entry & cov.z[entry], cov.c[entry], 0.0)
    return CoverageColumns(all_b[src], all_f[src], c, visible, np.where(has_entry, cov.counts[entry], 0))


def aggregate_columns(cov: CoverageColumns, meta: FrameMeta) -> list[BrandMetrics]:
    """aggregate_brand for every brand of the columns, brands ascending."""
    first = np.flatnonzero(_starts(cov.brands))
    bounds = np.append(first, cov.brands.size).tolist()
    n_visible = np.add.reduceat(cov.z.astype(np.int64), first).tolist()
    counts = np.add.reduceat(cov.counts, first).tolist()
    c, weighted = cov.c.tolist(), (cov.c * cov.z).tolist()
    out = []
    for i, brand in enumerate(cov.brands[first].tolist()):
        lo, hi = bounds[i], bounds[i + 1]
        total, n = math.fsum(weighted[lo:hi]), n_visible[i]
        present = 100.0 * total / n if n > 0 else 0.0
        overall = 100.0 * total / meta.frame_count
        out.append(BrandMetrics(brand, meta.dt * n, present, overall, 100.0 * max(c[lo:hi], default=0.0), counts[i], n))
    return out


def build_timeline(coverages: list[FrameCoverage], k: int, meta: FrameMeta) -> ExposureTimeline:
    """Per-brand coverage series and the top-K brands by exposure.

    Visibility comes from the z flags, so a temporally filtered series
    (bridged frames carry z=1 with zero coverage) ranks consistently
    with aggregate_brand.
    """
    if k < 1:
        raise ConfigError(f"top-k must be >= 1, got {k}")
    series: dict[int, list[tuple[int, float]]] = {}
    visible: dict[int, int] = {}
    for cov in sorted(coverages, key=lambda cv: (cv.brand_id, cv.frame_index)):
        series.setdefault(cov.brand_id, []).append((cov.frame_index, cov.c))
        visible[cov.brand_id] = visible.get(cov.brand_id, 0) + cov.z
    exposures = [(brand, meta.dt * n) for brand, n in visible.items()]
    exposures.sort(key=lambda item: (-item[1], item[0]))
    return ExposureTimeline(series=series, ranking=exposures[:k])


def metrics_rows(metrics: list[BrandMetrics], names: dict[int, str] | None = None) -> list[dict]:
    """Report rows ordered by exposure descending, then brand id."""
    ordered = sorted(metrics, key=lambda m: (-m.exposure_s, m.brand_id))
    rows = []
    for m in ordered:
        rows.append(
            {
                "brand_id": m.brand_id,
                "brand_name": names.get(m.brand_id, "") if names else "",
                "exposure_s": m.exposure_s,
                "avg_cov_present_pct": m.avg_cov_present_pct,
                "avg_cov_overall_pct": m.avg_cov_overall_pct,
                "max_cov_pct": m.max_cov_pct,
                "detection_count": m.detection_count,
                "frames_visible": m.frames_visible,
            }
        )
    return rows


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
