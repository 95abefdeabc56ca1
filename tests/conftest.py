from __future__ import annotations

import csv
import json
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from obbkit.geometry import quad_from_rect

N_FRAMES_SYNTH = 10_000
DETS_PER_FRAME = 50


def detection_line(video_id, frame, cls, quad, conf) -> str:
    return json.dumps(
        {
            "video_id": video_id,
            "frame": frame,
            "class": cls,
            "poly": [[float(x), float(y)] for x, y in quad],
            "conf": float(conf),
        }
    )


def read_table_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of a CSV report, cells as text; a file without a header line raises ValueError."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [dict(zip(header, row)) for row in rows]


def traced_peak(run: Callable[[], object]) -> tuple[object, int]:
    """``run()``'s result and the peak bytes tracemalloc saw allocated while it ran (numpy buffers included)."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def make_synthetic_stream(path: Path, n_frames: int, dets_per_frame: int, seed: int = 1234) -> dict:
    """Write a JSONL detection stream of rotated boxes over a 1280x720 frame."""
    rng = np.random.default_rng(seed)
    n = n_frames * dets_per_frame
    cx = rng.uniform(-60.0, 1340.0, n)
    cy = rng.uniform(-40.0, 760.0, n)
    w = rng.uniform(8.0, 160.0, n)
    h = rng.uniform(6.0, 90.0, n)
    theta = rng.uniform(0.0, 180.0, n)
    cls = rng.integers(0, 24, n)
    conf = rng.uniform(0.05, 1.0, n)
    rad = np.radians(theta)
    c, s = np.cos(rad), np.sin(rad)
    dx = np.array([-1.0, 1.0, 1.0, -1.0])[None, :] * (w[:, None] / 2)
    dy = np.array([-1.0, -1.0, 1.0, 1.0])[None, :] * (h[:, None] / 2)
    xs = cx[:, None] + dx * c[:, None] - dy * s[:, None]
    ys = cy[:, None] + dx * s[:, None] + dy * c[:, None]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            frame = i // dets_per_frame
            poly = [[round(float(xs[i, j]), 3), round(float(ys[i, j]), 3)] for j in range(4)]
            fh.write(
                json.dumps(
                    {
                        "video_id": "synthetic",
                        "frame": int(frame),
                        "class": int(cls[i]),
                        "poly": poly,
                        "conf": round(float(conf[i]), 5),
                    }
                )
                + "\n"
            )
    return {"n_frames": n_frames, "n_detections": n, "width": 1280.0, "height": 720.0, "fps": 25.0}


@pytest.fixture(scope="session")
def synthetic_stream(tmp_path_factory) -> tuple[Path, dict]:
    path = tmp_path_factory.mktemp("stream") / "detections.jsonl"
    info = make_synthetic_stream(path, N_FRAMES_SYNTH, DETS_PER_FRAME)
    return path, info


@pytest.fixture
def unit_square() -> np.ndarray:
    return quad_from_rect(0.5, 0.5, 1.0, 1.0, 0.0)
