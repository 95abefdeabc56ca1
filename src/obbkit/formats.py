"""Dataset and report I/O.

Ground-truth labels are plain text, one instance per line::

    class_id x1 y1 x2 y2 x3 y3 x4 y4

with corner coordinates normalized to [0, 1].  Detections arrive as one
JSON object per line with fields ``video_id``, ``frame``, ``class``
(integer id or class name), ``poly`` (4 [x, y] pixel pairs) and
``conf``.  The class map is a text file with one class name per line,
where the line number is the id.  Reports are CSV (RFC 4180 quoting)
or JSON with stable key order.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .geometry import canonical_order, degenerate_mask
from .geometry import normalize_quad  # noqa: F401 - bound for the benchmark's layer tracer

COORD_TOL = 1e-6  # slack for normalized label coordinates at the frame edge

INT64_MAX = 2**63 - 1  # frame indices and class ids end up in int64 arrays

IMAGE_EXTENSIONS = (".jpg", ".jpeg", ".png", ".bmp", ".tif", ".tiff", ".webp")


@dataclass(frozen=True)
class FrameMeta:
    """Frame geometry and timing of one video."""

    width: float
    height: float
    fps: float = 1.0
    frame_count: int = 0
    video_id: str = ""

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        if self.fps <= 0:
            raise ConfigError(f"frame rate must be positive, got {self.fps}")
        if self.frame_count < 0:
            raise ConfigError(f"frame count must be >= 0, got {self.frame_count}")

    @property
    def frame_area(self) -> float:
        return self.width * self.height

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    @classmethod
    def from_json_file(cls, path: str | Path) -> "FrameMeta":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise DataError(f"{path}: metadata must be a JSON object")
        try:
            return cls(
                width=float(obj["width"]),
                height=float(obj["height"]),
                fps=float(obj.get("fps", 1.0)),
                frame_count=int(obj.get("frame_count", 0)),
                video_id=str(obj.get("video_id", "")),
            )
        except KeyError as exc:
            raise DataError(f"{path}: missing metadata field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: invalid metadata: {exc}") from None


@dataclass(frozen=True)
class ClassMap:
    """Bijective id <-> name table with ids dense from 0."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if name in index:
                raise DataError(f"duplicate class name {name!r} (ids {index[name]} and {i})")
            index[name] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.names)

    def name_of(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.names):
            raise DataError(f"class id {class_id} outside class map of {len(self.names)} entries")
        return self.names[class_id]

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown class name {name!r}") from None


def load_class_map(path: str | Path) -> ClassMap:
    with open(path, encoding="utf-8") as fh:
        names = [line.rstrip("\r\n") for line in fh]
    while names and names[-1] == "":
        names.pop()
    if any(name == "" for name in names):
        raise DataError(f"{path}: empty class name (blank line) in class map")
    return ClassMap(tuple(names))


@dataclass
class GroundTruth:
    """One annotated logo instance, in pixel coordinates."""

    frame_id: str
    class_id: int
    quad: np.ndarray
    degenerate: bool = False


@dataclass
class Detection:
    """One predicted logo instance, in pixel coordinates."""

    video_id: str
    frame_index: int
    class_id: int
    quad: np.ndarray
    confidence: float
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Ground-truth label lines


def _label_values(fields: list[str], n_classes: int | None) -> tuple[int, list[float]]:
    """Class id and the 8 normalized coordinates of one label line's fields; DataError names the fault."""
    if len(fields) != 9:
        raise DataError(f"expected 9 fields, got {len(fields)}")
    cls_tok = fields[0]
    try:
        class_id = int(cls_tok)
    except ValueError:
        raise DataError(f"class id must be an integer, got {cls_tok!r}") from None
    if class_id < 0:
        raise DataError(f"class id must be non-negative, got {class_id}")
    if class_id > INT64_MAX:
        raise DataError(f"class id {class_id} too large")
    if n_classes is not None and class_id >= n_classes:
        raise DataError(f"unknown class id {class_id} (class map has {n_classes} classes)")
    coords = []
    for tok in fields[1:]:
        try:
            val = float(tok)
        except ValueError:
            raise DataError(f"non-numeric token {tok!r}") from None
        if not math.isfinite(val):
            raise DataError(f"non-finite coordinate {tok!r}")
        coords.append(val)
    for val in coords:
        if val < -COORD_TOL or val > 1.0 + COORD_TOL:
            raise DataError(f"coordinate {val!r} outside [0, 1]")
    return class_id, coords


def _parse_label_lines(
    lines: Iterable[str],
    first_line_no: int,
    meta: FrameMeta,
    n_classes: int | None,
    frame_id: str,
) -> tuple[list[GroundTruth], list[int], list[tuple[int, str]]]:
    """Parse label lines; blank lines are not records.

    Returns the ground truths, the line number of each, and
    ``(line number, reason)`` of every malformed line, in line order.
    The quads of all lines are canonicalized and flagged with one
    ``canonical_order`` and one ``degenerate_mask`` call.
    """
    class_ids: list[int] = []
    coords: list[float] = []
    line_nos: list[int] = []
    faults: list[tuple[int, str]] = []
    for line_no, line in enumerate(lines, start=first_line_no):
        fields = line.split()
        if not fields:
            continue
        try:
            class_id, values = _label_values(fields, n_classes)
        except DataError as exc:
            faults.append((line_no, str(exc)))
            continue
        class_ids.append(class_id)
        coords.extend(values)
        line_nos.append(line_no)
    raw = np.array(coords).reshape(-1, 4, 2) * (meta.width, meta.height)
    quads = canonical_order(raw)
    flags = degenerate_mask(raw).tolist()
    gts = [
        GroundTruth(frame_id=frame_id, class_id=class_id, quad=quad, degenerate=flag)
        for class_id, quad, flag in zip(class_ids, quads, flags)
    ]
    return gts, line_nos, faults


def parse_obb_label_line(
    line: str,
    meta: FrameMeta,
    n_classes: int | None = None,
    line_no: int | None = None,
    frame_id: str = "",
) -> GroundTruth:
    """Parse one normalized label line into a pixel-space GroundTruth.

    Raises ParseError on wrong field count, non-numeric tokens,
    coordinates outside [0, 1] (beyond COORD_TOL) and unknown class
    ids.  Degenerate quads are accepted but flagged.
    """
    gts, _, faults = _parse_label_lines([line], 1, meta, n_classes, frame_id)
    if faults:
        raise ParseError(faults[0][1], line_no)
    if not gts:
        raise ParseError("expected 9 fields, got 0", line_no)
    return gts[0]


def serialize_obb_label_line(gt: GroundTruth, meta: FrameMeta) -> str:
    """Inverse of parse_obb_label_line, at 9 significant digits."""
    norm = gt.quad / (meta.width, meta.height)
    coords = " ".join(format(v, ".9g") for v in norm.reshape(-1))
    return f"{gt.class_id} {coords}"


def read_label_file(
    path: str | Path,
    meta: FrameMeta,
    n_classes: int | None = None,
    strict: bool = False,
    warnings: list[str] | None = None,
    stats: dict | None = None,
) -> list[GroundTruth]:
    """Read one label file; blank lines are skipped.

    In lax mode malformed lines are reported as ``<path>:<line>: skipped:
    <reason>`` warnings, skipped and counted in ``stats["skipped"]``; in
    strict mode the first malformed line raises.  Degenerate quads are
    kept, flagged and reported.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        gts, line_nos, faults = _parse_label_lines(fh, 1, meta, n_classes, path.stem)
    if strict and faults:
        line_no, reason = faults[0]
        raise ParseError(f"{path}: line {line_no}: {reason}")
    if stats is not None:
        stats["skipped"] = stats.get("skipped", 0) + len(faults)
    if warnings is not None:
        notes = [(line_no, f"skipped: {reason}") for line_no, reason in faults]
        notes += [(line_no, "degenerate quad flagged") for line_no, gt in zip(line_nos, gts) if gt.degenerate]
        warnings.extend(f"{path}:{line_no}: {note}" for line_no, note in sorted(notes))
    return gts


# ---------------------------------------------------------------------------
# Detection streams (one JSON object per line)


def validate_detection_obj(
    obj,
    class_map: ClassMap | None = None,
    meta: FrameMeta | None = None,
) -> tuple[str, int, int, list[list[float]], float]:
    """Validate one decoded detection record.

    Returns ``(video_id, frame, class_id, poly, conf)`` as plain Python
    values; raises DataError describing the first violation.
    """
    if not isinstance(obj, dict):
        raise DataError("record must be a JSON object")
    for name in ("video_id", "frame", "class", "poly", "conf"):
        if name not in obj:
            raise DataError(f"missing field {name!r}")
    video_id = obj["video_id"]
    if not isinstance(video_id, str):
        raise DataError("field 'video_id' must be a string")
    frame = obj["frame"]
    if isinstance(frame, bool) or not isinstance(frame, int) or frame < 0:
        raise DataError("field 'frame' must be a non-negative integer")
    if frame > INT64_MAX:
        raise DataError(f"frame index {frame} too large")
    if meta is not None and meta.frame_count > 0 and frame >= meta.frame_count:
        raise DataError(f"frame index {frame} outside video of {meta.frame_count} frames")
    cls = obj["class"]
    if isinstance(cls, bool):
        raise DataError("field 'class' must be an integer id or a class name string")
    if isinstance(cls, str):
        if class_map is None:
            raise DataError(f"class name {cls!r} requires a class map")
        class_id = class_map.id_of(cls)
    elif isinstance(cls, int):
        if cls < 0:
            raise DataError(f"class id must be non-negative, got {cls}")
        if cls > INT64_MAX:
            raise DataError(f"class id {cls} too large")
        if class_map is not None and cls >= len(class_map):
            raise DataError(f"class id {cls} outside class map of {len(class_map)} entries")
        class_id = cls
    else:
        raise DataError("field 'class' must be an integer id or a class name string")
    poly = obj["poly"]
    if not isinstance(poly, list) or len(poly) != 4:
        n = len(poly) if isinstance(poly, list) else poly
        raise DataError(f"expected 4 vertices, got {n!r}")
    try:  # math.isfinite raises OverflowError on an integer beyond the float range
        for pt in poly:
            if not isinstance(pt, (list, tuple)) or len(pt) != 2:
                raise DataError(f"vertex must be an [x, y] pair, got {pt!r}")
            for v in pt:
                if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                    raise DataError(f"non-finite or non-numeric coordinate {v!r}")
    except OverflowError:
        raise DataError("coordinate too large for a float") from None
    conf = obj["conf"]
    try:
        if isinstance(conf, bool) or not isinstance(conf, (int, float)) or not math.isfinite(conf):
            raise DataError(f"confidence must be a number, got {conf!r}")
    except OverflowError:
        raise DataError("confidence too large for a float") from None
    if conf < 0.0 or conf > 1.0:
        raise DataError(f"confidence {conf!r} out of range [0, 1]")
    return video_id, frame, class_id, poly, float(conf)


@dataclass
class DetectionChunk:
    """The records of consecutive detection lines, as columns.

    Columns hold the kept records in line order, quads ``(n, 4, 2)`` in
    their input vertex order.  ``max_frame`` covers every record that
    passed validation, degenerate ones included (-1 if there is none).
    """

    n_records: int
    n_skipped: int
    warnings: list[str]
    max_frame: int
    video_ids: list[str]
    frames: list[int]
    classes: list[int]
    confs: list[float]
    quads: np.ndarray

    def detections(self) -> Iterator[Detection]:
        """The kept records as Detections, quads in canonical order."""
        quads = canonical_order(self.quads)
        for video_id, frame, class_id, quad, conf in zip(self.video_ids, self.frames, self.classes, quads, self.confs):
            yield Detection(video_id=video_id, frame_index=frame, class_id=class_id, quad=quad, confidence=conf)


def parse_detection_chunk(
    lines: list[str],
    first_line_no: int,
    class_map: ClassMap | None = None,
    meta: FrameMeta | None = None,
    strict: bool = False,
) -> DetectionChunk:
    """Decode and validate detection lines; degenerate quads count as invalid.

    ``lines[i]`` is line ``first_line_no + i`` of its stream, and blank
    lines are not records.  In lax mode each invalid record is skipped
    with a ``line N: skipped: <reason>`` warning, in line order; in
    strict mode the first invalid record in line order raises ParseError.
    """
    loads, validate = json.loads, validate_detection_obj
    video_ids: list[str] = []
    frames: list[int] = []
    classes: list[int] = []
    confs: list[float] = []
    coords = array("d")  # flat x, y pairs; holds no float objects between lines
    line_nos: list[int] = []
    faults: list[tuple[int, str]] = []
    n_records = 0
    for offset, line in enumerate(lines):
        if not line.strip():
            continue
        n_records += 1
        try:
            video_id, frame, class_id, poly, conf = validate(loads(line), class_map, meta)
        except json.JSONDecodeError as exc:
            fault = f"invalid JSON: {exc.msg}"
        except DataError as exc:
            fault = str(exc)
        else:
            video_ids.append(video_id)
            frames.append(frame)
            classes.append(class_id)
            confs.append(conf)
            for pt in poly:
                coords.extend(pt)
            line_nos.append(first_line_no + offset)
            continue
        faults.append((first_line_no + offset, fault))
        if strict:
            break  # records before this line may still hold an earlier degenerate quad
    max_frame = max(frames, default=-1)
    quads = np.frombuffer(coords, dtype=np.float64).reshape(-1, 4, 2)
    degenerate = degenerate_mask(quads)
    if degenerate.any():
        faults = sorted(faults + [(line_nos[i], "degenerate quad") for i in np.flatnonzero(degenerate).tolist()])
        keep = (~degenerate).tolist()
        video_ids, frames, classes, confs = (
            [v for v, k in zip(col, keep) if k] for col in (video_ids, frames, classes, confs)
        )
        quads = quads[~degenerate]
    if strict and faults:
        raise ParseError(faults[0][1], faults[0][0])
    return DetectionChunk(
        n_records=n_records,
        n_skipped=len(faults),
        warnings=[f"line {line_no}: skipped: {msg}" for line_no, msg in faults],
        max_frame=max_frame,
        video_ids=video_ids,
        frames=frames,
        classes=classes,
        confs=confs,
        quads=quads,
    )


def parse_detection_line(
    line: str,
    class_map: ClassMap | None = None,
    meta: FrameMeta | None = None,
    line_no: int = 1,
) -> Detection:
    """Parse one record; a malformed or degenerate record raises ParseError."""
    chunk = parse_detection_chunk([line], line_no, class_map, meta, strict=True)
    if not chunk.n_records:
        raise ParseError("blank line", line_no)
    return next(chunk.detections())


def iter_detections(
    lines: Iterable[str],
    class_map: ClassMap | None = None,
    meta: FrameMeta | None = None,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> Iterator[Detection]:
    """Stream Detections from JSON lines, parsing one line at a time.

    Degenerate quads count as invalid records: reported and skipped in
    lax mode, fatal in strict mode.
    """
    for line_no, line in enumerate(lines, start=1):
        chunk = parse_detection_chunk([line], line_no, class_map, meta, strict)
        if warnings is not None:
            warnings.extend(chunk.warnings)
        yield from chunk.detections()


# ---------------------------------------------------------------------------
# Dataset split layout


@dataclass(frozen=True)
class SplitPair:
    """Matched image/label stems of one frame in a dataset split."""

    stem: str
    image_path: Path | None
    label_path: Path | None


def load_split(
    root: str | Path,
    split: str,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> list[SplitPair]:
    """Pair image and label files of ``<root>/<split>/{images,labels}``.

    Unpaired labels are kept with a warning in lax mode and excluded in
    strict mode; unpaired images pair with an empty label.  Duplicate
    stems are an error.
    """
    base = Path(root) / split
    images_dir = base / "images"
    labels_dir = base / "labels"
    for d in (images_dir, labels_dir):
        if not d.is_dir():
            raise ConfigError(f"missing split directory {d}")

    images: dict[str, Path] = {}
    for p in sorted(images_dir.iterdir()):
        if p.suffix.lower() not in IMAGE_EXTENSIONS or not p.is_file():
            continue
        if p.stem in images:
            raise DataError(f"duplicate image stem {p.stem!r} in {images_dir}")
        images[p.stem] = p
    labels: dict[str, Path] = {}
    for p in sorted(labels_dir.glob("*.txt")):
        if p.stem in labels:
            raise DataError(f"duplicate label stem {p.stem!r} in {labels_dir}")
        labels[p.stem] = p

    pairs: list[SplitPair] = []
    for stem in sorted(set(images) | set(labels)):
        img = images.get(stem)
        lab = labels.get(stem)
        if lab is not None and img is None:
            if warnings is not None:
                warnings.append(f"label {lab.name} has no matching image")
            if strict:
                continue
        if img is not None and lab is None and warnings is not None:
            warnings.append(f"image {img.name} has no label file (treated as empty)")
        pairs.append(SplitPair(stem=stem, image_path=img, label_path=lab))
    return pairs


# ---------------------------------------------------------------------------
# Report writers/readers (deterministic column and key order)


def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_table_csv(path: str | Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_cell(row.get(k)) for k in fieldnames])


def read_table_csv(path: str | Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty CSV report") from None
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


def write_json_report(path: str | Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_table(path: str | Path, fieldnames: list[str], rows: list[dict], fmt: str) -> None:
    """Write a tabular report as CSV or as a JSON array of row objects."""
    if fmt == "csv":
        write_table_csv(path, fieldnames, rows)
    elif fmt == "json":
        payload = [{k: row.get(k) for k in fieldnames} for row in rows]
        write_json_report(path, payload)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")

