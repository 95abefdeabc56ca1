"""Tightness Ratio (TR) and orientation-necessity analysis.

TR is the polygon area of an oriented box divided by the area of its
minimum enclosing axis-aligned rectangle; 1 means the axis-aligned box
wastes no background.  Samples are binned by the box orientation angle
in [0, 90] degrees with normal-approximation 95% confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .geometry import as_quad, degenerate_mask, enclosing_bounds, orientations_deg, shoelace_areas
from .geometry import enclosing_hbb  # noqa: F401 - bound for the benchmark's layer tracer

TR_BIN_FIELDS = ["source", "bin_lo_deg", "bin_hi_deg", "n", "mean_tr", "ci95_half_width"]

TR_GAP_FIELDS = ["bin_lo_deg", "bin_hi_deg", "gt_n", "pred_n", "gt_mean_tr", "pred_mean_tr", "abs_gap"]


@dataclass(frozen=True)
class TRSample:
    """Tightness ratio and orientation of one box."""

    source: str  # "ground_truth" or "prediction"
    tr: float
    orientation_deg: float
    class_id: int


@dataclass(frozen=True)
class TRBinStat:
    """Mean TR of one orientation bin; CI reported only when n >= 2."""

    bin_lo_deg: float
    bin_hi_deg: float
    n: int
    mean_tr: float | None
    ci95_half_width: float | None


def tightness_ratios(quads: np.ndarray) -> np.ndarray:
    """tightness_ratio of an (n, 4, 2) quad batch."""
    areas = shoelace_areas(quads)
    if (areas <= 0.0).any():
        raise GeometryError("tightness ratio undefined for degenerate quad")
    b = enclosing_bounds(quads)
    return np.minimum(1.0, areas / ((b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])))


def tightness_ratio(quad) -> float:
    """area(quad) / area(enclosing axis-aligned rectangle), in (0, 1]."""
    return float(tightness_ratios(as_quad(quad)[None])[0])


def tr_rect_closed_form(w: float, h: float, theta_deg: float) -> float:
    """Analytic TR of a w x h rectangle rotated by theta.

    The enclosing box of the rotated rectangle has area
    w*h + ((w^2 + h^2)/2) * sin(2*theta), which gives the ratio in
    closed form.  Serves as the independent oracle for the polygon
    route.
    """
    if w <= 0 or h <= 0:
        raise ConfigError(f"rectangle sides must be positive, got {w}x{h}")
    if not 0.0 <= theta_deg <= 90.0:
        raise ConfigError(f"theta must be in [0, 90] degrees, got {theta_deg}")
    wh = w * h
    return wh / (wh + ((w * w + h * h) / 2.0) * math.sin(math.radians(2.0 * theta_deg)))


def tr_sample(quads, source: str, class_ids):
    """TRSamples of an (n, 4, 2) quad batch and its n class ids, in order.

    One (4, 2) quad and one class id give one TRSample.  Raises
    GeometryError on non-finite or degenerate geometry.
    """
    batch = np.asarray(quads, dtype=np.float64)
    one = batch.ndim == 2
    if one:
        batch, class_ids = as_quad(batch)[None], [class_ids]
    elif batch.ndim != 3 or batch.shape[1:] != (4, 2) or not np.isfinite(batch).all():
        raise GeometryError(f"expected a finite (n, 4, 2) quad batch, got shape {batch.shape}")
    if degenerate_mask(batch).any():
        raise GeometryError("tightness ratio undefined for degenerate quad")
    trs = tightness_ratios(batch).tolist()
    angles = orientations_deg(batch).tolist()
    samples = [TRSample(source, tr, ang, cid) for tr, ang, cid in zip(trs, angles, class_ids, strict=True)]
    return samples[0] if one else samples


def check_bin_width(bin_width_deg: float) -> int:
    """Number of bins; raises ConfigError unless the width is positive and divides 90."""
    if bin_width_deg <= 0:
        raise ConfigError(f"bin width must be positive, got {bin_width_deg}")
    n_bins = 90.0 / bin_width_deg
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise ConfigError(f"bin width {bin_width_deg} does not divide 90 evenly")
    return int(round(n_bins))


def bin_by_orientation(samples: list[TRSample], bin_width_deg: float = 15.0) -> list[TRBinStat]:
    """Group samples into [lo, hi) orientation bins over 0..90 degrees.

    The final bin includes 90 degrees.  CI half-width is 1.96 * s/sqrt(n)
    with the sample standard deviation; bins with n < 2 report no CI.
    """
    n_bins = check_bin_width(bin_width_deg)
    buckets: list[list[float]] = [[] for _ in range(n_bins)]
    for s in samples:
        if not 0.0 <= s.orientation_deg <= 90.0:
            raise ConfigError(f"orientation {s.orientation_deg} outside [0, 90]")
        idx = min(int(s.orientation_deg / bin_width_deg), n_bins - 1)
        buckets[idx].append(s.tr)
    stats = []
    for i, vals in enumerate(buckets):
        lo = i * bin_width_deg
        hi = lo + bin_width_deg
        n = len(vals)
        if n == 0:
            stats.append(TRBinStat(lo, hi, 0, None, None))
            continue
        mean = math.fsum(vals) / n
        ci = None
        if n >= 2:
            var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
            ci = 1.96 * math.sqrt(var) / math.sqrt(n)
        stats.append(TRBinStat(lo, hi, n, mean, ci))
    return stats


def compare_gt_pred_tr(
    gt_samples: list[TRSample],
    pred_samples: list[TRSample],
    bin_width_deg: float = 15.0,
) -> tuple[list[dict], float | None]:
    """Per-bin GT vs prediction TR means and the overall mean |gap|.

    Gaps are reported only for bins occupied on both sides; the overall
    figure is None when no bin qualifies.
    """
    gt_bins = bin_by_orientation(gt_samples, bin_width_deg)
    pred_bins = bin_by_orientation(pred_samples, bin_width_deg)
    rows: list[dict] = []
    gaps: list[float] = []
    for g, p in zip(gt_bins, pred_bins):
        gap = None
        if g.n >= 1 and p.n >= 1:
            gap = abs(g.mean_tr - p.mean_tr)
            gaps.append(gap)
        rows.append(
            {
                "bin_lo_deg": g.bin_lo_deg,
                "bin_hi_deg": g.bin_hi_deg,
                "gt_n": g.n,
                "pred_n": p.n,
                "gt_mean_tr": g.mean_tr,
                "pred_mean_tr": p.mean_tr,
                "abs_gap": gap,
            }
        )
    overall = math.fsum(gaps) / len(gaps) if gaps else None
    return rows, overall


def bin_rows(stats: list[TRBinStat], source: str) -> list[dict]:
    rows = []
    for s in stats:
        rows.append(
            {
                "source": source,
                "bin_lo_deg": s.bin_lo_deg,
                "bin_hi_deg": s.bin_hi_deg,
                "n": s.n,
                "mean_tr": s.mean_tr,
                "ci95_half_width": s.ci95_half_width,
            }
        )
    return rows
