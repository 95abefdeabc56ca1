"""Seeded input generators for the three benchmark workloads.

Each generator writes its files into a directory and returns the tallies
the output checks compare against: record totals, the malformed lines it
injected, records below the 0.5 confidence threshold and per-brand
detection counts.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

WIDTH, HEIGHT, FPS = 1280.0, 720.0, 25.0
CONF_THRESHOLD = 0.5
N_CLASSES = 24
SPARSE_DROP_RATE = 0.10  # frames dropped inside each sparse-long burst
SPARSE_MALFORMED_RATE = 0.01  # share of sparse-long lines made malformed
SPLIT_MATCH_RATE = 0.8  # share of labeled-split GT with a jittered true match

_DET_LINE = (
    '{"video_id": "%s", "frame": %d, "class": %d, "poly": '
    '[[%s, %s], [%s, %s], [%s, %s], [%s, %s]], "conf": %s}\n'
)


def _corners(cx, cy, w, h, theta_deg):
    """Corner coordinates (n, 4) of rotated rectangles, in the order the tests' stream uses."""
    rad = np.radians(theta_deg)
    c, s = np.cos(rad), np.sin(rad)
    dx = np.array([-1.0, 1.0, 1.0, -1.0])[None, :] * (w[:, None] / 2)
    dy = np.array([-1.0, -1.0, 1.0, 1.0])[None, :] * (h[:, None] / 2)
    xs = cx[:, None] + dx * c[:, None] - dy * s[:, None]
    ys = cy[:, None] + dx * s[:, None] + dy * c[:, None]
    return xs, ys


def _round(values: np.ndarray, ndigits: int) -> list[float]:
    """Python's ``round(v, ndigits)`` for every value, computed in numpy where that is provably equal.

    ``rint(v * 10**ndigits) / 10**ndigits`` is the double nearest the
    rounded decimal unless ``v * 10**ndigits`` lies within its own rounding
    error of a half-integer; those few values go through ``round``.
    """
    scale = 10.0**ndigits
    scaled = values * scale
    out = np.rint(scaled) / scale
    near_half = np.abs(np.abs(scaled - np.floor(scaled)) - 0.5) < 1e-6
    for i in np.flatnonzero(near_half).tolist():
        out[i] = round(float(values[i]), ndigits)
    return out.tolist()


def _reprs(values: list[float]) -> list[str]:
    """``repr`` of every float, in one C-level pass."""
    return repr(values)[1:-1].split(", ") if values else []


def _detection_lines(video_ids, frames, classes, xs, ys, conf):
    """JSON lines exactly as ``json.dumps`` writes them, with 3-decimal vertices and 5-decimal confidence.

    ``video_ids`` is one string or one string per record.  Returns the
    lines and the rounded confidences.
    """
    n = len(frames)
    coords = _reprs(_round(np.stack([xs, ys], axis=2).reshape(n, 8).ravel(), 3))
    confs = _round(conf, 5)
    if isinstance(video_ids, str):
        video_ids = [video_ids] * n
    cols = [coords[k::8] for k in range(8)]
    return [
        _DET_LINE % row
        for row in zip(video_ids, frames.tolist(), classes.tolist(), *cols, _reprs(confs))
    ], confs


def _tally(classes, confs, valid) -> dict:
    above = [int(c) for c, v, ok in zip(classes.tolist(), confs, valid) if ok and v >= CONF_THRESHOLD]
    per_brand = np.bincount(np.asarray(above, np.int64)).tolist() if above else []
    return {
        "records_total": len(confs),
        "records_skipped": int(len(confs) - sum(valid)),
        "records_below_confidence": int(sum(1 for v, ok in zip(confs, valid) if ok and v < CONF_THRESHOLD)),
        "detection_count": {str(b): n for b, n in enumerate(per_brand) if n},
    }


def _write_meta(path: Path, video_id: str, n_frames: int) -> None:
    meta = {"video_id": video_id, "width": WIDTH, "height": HEIGHT, "fps": FPS, "frame_count": n_frames}
    path.write_text(json.dumps(meta) + "\n", encoding="utf-8")


def gen_dense_stream(out: Path, seed: int, n_frames: int = 10_000, dets_per_frame: int = 50) -> dict:
    """Every frame holds ``dets_per_frame`` rotated boxes of 24 brands; all records are valid.

    Byte-identical to ``tests/conftest.py::make_synthetic_stream`` for the
    same arguments: the draws and their order are the same.
    """
    rng = np.random.default_rng(seed)
    n = n_frames * dets_per_frame
    cx = rng.uniform(-60.0, 1340.0, n)
    cy = rng.uniform(-40.0, 760.0, n)
    w = rng.uniform(8.0, 160.0, n)
    h = rng.uniform(6.0, 90.0, n)
    theta = rng.uniform(0.0, 180.0, n)
    cls = rng.integers(0, N_CLASSES, n)
    conf = rng.uniform(0.05, 1.0, n)
    xs, ys = _corners(cx, cy, w, h, theta)
    frames = np.arange(n) // dets_per_frame
    lines, confs = _detection_lines("synthetic", frames, cls, xs, ys, conf)
    with open(out / "detections.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    _write_meta(out / "meta.json", "synthetic", n_frames)
    return _tally(cls, confs, [True] * n)


_MALFORMED_KINDS = ("truncated", "missing_conf", "conf_range", "three_vertices", "nan_coordinate")


def _malform(line: str, kind: str) -> str:
    obj_text = line.rstrip("\n")
    if kind == "truncated":
        return obj_text[: len(obj_text) // 2] + "\n"
    obj = json.loads(obj_text)
    if kind == "missing_conf":
        del obj["conf"]
    elif kind == "conf_range":
        obj["conf"] = 1.5
    elif kind == "three_vertices":
        obj["poly"] = obj["poly"][:3]
    else:
        obj["poly"][0][0] = float("nan")
    return json.dumps(obj) + "\n"


def gen_sparse_long(
    out: Path,
    seed: int,
    n_frames: int = 1_000_000,
    n_brands: int = 64,
    bursts_per_brand: int = 40,
    mean_run: float = 60.0,
) -> dict:
    """Brands appear in bursts over a long video; a known share of lines is malformed."""
    rng = np.random.default_rng(seed)
    n_bursts = n_brands * bursts_per_brand
    brand = np.repeat(np.arange(n_brands), bursts_per_brand)
    length = np.minimum(rng.geometric(1.0 / mean_run, n_bursts), n_frames)
    start = (rng.random(n_bursts) * (n_frames - length + 1)).astype(np.int64)
    bcx = rng.uniform(100.0, 1180.0, n_bursts)
    bcy = rng.uniform(80.0, 640.0, n_bursts)
    bw = rng.uniform(30.0, 200.0, n_bursts)
    bh = rng.uniform(20.0, 120.0, n_bursts)
    btheta = rng.uniform(0.0, 180.0, n_bursts)

    burst_of = np.repeat(np.arange(n_bursts), length)
    offset = np.arange(burst_of.size) - np.repeat(np.cumsum(length) - length, length)
    keep = rng.random(burst_of.size) >= SPARSE_DROP_RATE
    burst_of, offset = burst_of[keep], offset[keep]
    frames = start[burst_of] + offset
    order = np.lexsort((brand[burst_of], frames))
    burst_of, frames = burst_of[order], frames[order]
    n = frames.size
    cls = brand[burst_of]
    cx = bcx[burst_of] + rng.normal(0.0, 2.0, n)
    cy = bcy[burst_of] + rng.normal(0.0, 2.0, n)
    conf = rng.uniform(0.2, 1.0, n)
    xs, ys = _corners(cx, cy, bw[burst_of], bh[burst_of], btheta[burst_of])
    lines, confs = _detection_lines("sparse-long", frames, cls, xs, ys, conf)

    n_bad = int(round(SPARSE_MALFORMED_RATE * n))
    bad = np.sort(rng.choice(n, n_bad, replace=False))
    valid = [True] * n
    for k, i in enumerate(bad.tolist()):
        lines[i] = _malform(lines[i], _MALFORMED_KINDS[k % len(_MALFORMED_KINDS)])
        valid[i] = False
    with open(out / "detections.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    _write_meta(out / "meta.json", "sparse-long", n_frames)
    return _tally(cls, confs, valid)


def _rotated_boxes_inside(rng, n: int):
    """Rotated boxes whose four corners lie at least 1 px inside the frame."""
    w = rng.uniform(20.0, 200.0, n)
    h = rng.uniform(12.0, 120.0, n)
    theta = rng.uniform(0.0, 180.0, n)
    rad = np.radians(theta)
    ex = (w * np.abs(np.cos(rad)) + h * np.abs(np.sin(rad))) / 2
    ey = (w * np.abs(np.sin(rad)) + h * np.abs(np.cos(rad))) / 2
    cx = ex + 1.0 + rng.random(n) * (WIDTH - 2 * ex - 2.0)
    cy = ey + 1.0 + rng.random(n) * (HEIGHT - 2 * ey - 2.0)
    return cx, cy, w, h, theta


def gen_labeled_split(
    out: Path,
    seed: int,
    n_images: int = 500,
    gt_per_image: int = 20,
    preds_per_image: int = 40,
) -> dict:
    """A labeled split plus predictions: jittered true matches for ~80 % of GT, the rest random false positives."""
    rng = np.random.default_rng(seed)
    n_gt = n_images * gt_per_image
    gt_cls = rng.integers(0, N_CLASSES, n_gt)
    gcx, gcy, gw, gh, gtheta = _rotated_boxes_inside(rng, n_gt)
    gxs, gys = _corners(gcx, gcy, gw, gh, gtheta)
    norm = np.stack([gxs / WIDTH, gys / HEIGHT], axis=2).reshape(n_gt, 8)
    if norm.min() < 0.0 or norm.max() > 1.0:
        raise RuntimeError("generated label outside [0, 1]")

    matched = rng.random(n_gt) < SPLIT_MATCH_RATE
    image_of_gt = np.arange(n_gt) // gt_per_image
    m = int(matched.sum())
    tcx = gcx[matched] + rng.normal(0.0, 2.0, m)
    tcy = gcy[matched] + rng.normal(0.0, 2.0, m)
    tw = gw[matched] * (1.0 + rng.normal(0.0, 0.04, m))
    th = gh[matched] * (1.0 + rng.normal(0.0, 0.04, m))
    ttheta = gtheta[matched] + rng.normal(0.0, 2.0, m)
    tconf = rng.uniform(0.3, 1.0, m)

    n_true_per_image = np.bincount(image_of_gt[matched], minlength=n_images)
    n_fp_per_image = preds_per_image - n_true_per_image
    n_fp = int(n_fp_per_image.sum())
    fcls = rng.integers(0, N_CLASSES, n_fp)
    fcx = rng.uniform(0.0, WIDTH, n_fp)
    fcy = rng.uniform(0.0, HEIGHT, n_fp)
    fw = rng.uniform(20.0, 200.0, n_fp)
    fhgt = rng.uniform(12.0, 120.0, n_fp)
    ftheta = rng.uniform(0.0, 180.0, n_fp)
    fconf = rng.uniform(0.05, 0.9, n_fp)

    image = np.concatenate([image_of_gt[matched], np.repeat(np.arange(n_images), n_fp_per_image)])
    order = np.argsort(image, kind="stable")

    def pick(true_pos, false_pos):
        return np.concatenate([true_pos, false_pos])[order]

    p_image = image[order]
    p_cls = pick(gt_cls[matched], fcls)
    pxs, pys = _corners(pick(tcx, fcx), pick(tcy, fcy), pick(tw, fw), pick(th, fhgt), pick(ttheta, ftheta))
    stems = [f"img_{i:04d}" for i in range(n_images)]
    lines, _ = _detection_lines(
        [stems[i] for i in p_image.tolist()], np.zeros(p_image.size, np.int64), p_cls, pxs, pys, pick(tconf, fconf)
    )

    split = out / "split"
    (split / "images").mkdir(parents=True)
    (split / "labels").mkdir()
    for i, stem in enumerate(stems):
        (split / "images" / f"{stem}.jpg").write_bytes(b"")
        rows = range(i * gt_per_image, (i + 1) * gt_per_image)
        text = "".join(
            f"{gt_cls[r]} " + " ".join(f"{v:.6f}" for v in norm[r]) + "\n" for r in rows
        )
        (split / "labels" / f"{stem}.txt").write_text(text, encoding="utf-8")
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return {"ground_truth_parsed": n_gt, "predictions_parsed": len(lines), "labels_invalid": 0}


GENERATORS = {
    "dense-stream": gen_dense_stream,
    "sparse-long": gen_sparse_long,
    "labeled-split": gen_labeled_split,
}

KEEP_PER_WORKLOAD = 2
SOURCE_DIGEST = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def cached_inputs(cache_root: Path, workload: str, seed: int) -> tuple[Path, dict]:
    """Inputs of (workload, seed), generated once and reused.

    The cache key also holds a digest of this file, so a changed generator
    never reuses inputs an older one wrote.  A cache entry is complete once
    its ``tallies.json`` exists.  Only the most recent ``KEEP_PER_WORKLOAD``
    entries of a workload are kept.
    """
    entry = cache_root / f"{workload}-{seed}-{SOURCE_DIGEST}"
    marker = entry / "tallies.json"
    if marker.is_file():
        marker.touch()
        return entry, json.loads(marker.read_text(encoding="utf-8"))
    if entry.exists():
        shutil.rmtree(entry)
    entry.mkdir(parents=True)
    tallies = GENERATORS[workload](entry, seed)
    tmp = entry / "tallies.json.tmp"
    tmp.write_text(json.dumps(tallies, sort_keys=True), encoding="utf-8")
    tmp.replace(marker)
    others = sorted(
        (p for p in cache_root.glob(f"{workload}-*") if p != entry and (p / "tallies.json").is_file()),
        key=lambda p: (p / "tallies.json").stat().st_mtime,
    )
    for old in others[: max(0, len(others) - (KEEP_PER_WORKLOAD - 1))]:
        shutil.rmtree(old)
    return entry, tallies
