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
import gc
import io
import json
import math
import os
import re
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import orjson

from .errors import ConfigError, DataError, ObbkitError, ParseError
from .geometry import canonical_order, degenerate_mask
from .geometry import normalize_quad  # noqa: F401 - bound for the benchmark's layer tracer

COORD_TOL = 1e-6  # slack for normalized label coordinates at the frame edge

MAX_PIXEL = 1e9  # bound on pixel coordinates and frame sides: IoU and area arithmetic stay far from overflow

INT64_MAX = 2**63 - 1  # frame indices and class ids end up in int64 arrays

IMAGE_EXTENSIONS = (".jpg", ".jpeg", ".png", ".bmp", ".tif", ".tiff", ".webp")

_UNDECODABLE = re.compile("[\udc80-\udcff]")  # what the surrogateescape handler makes of a non-UTF-8 byte


def read_json_object(path: str | Path, kind: str, error: type[ObbkitError]) -> dict:
    """The JSON object of a UTF-8 file, a leading byte-order mark dropped; anything else raises ``error`` naming the ``kind`` of file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:  # a JSON syntax error, bytes that are not UTF-8, nesting too deep
        raise error(f"{path}: invalid {kind} JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: {kind} file must be a JSON object")
    return obj


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
        if not (self.width <= MAX_PIXEL and self.height <= MAX_PIXEL):
            raise ConfigError(f"frame dimensions must be at most {MAX_PIXEL:g} px, got {self.width}x{self.height}")
        if not (0 < self.fps < math.inf and 1.0 / self.fps < math.inf):
            raise ConfigError(f"frame rate must be positive and finite, with a finite 1/fps, got {self.fps}")
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
        obj = read_json_object(path, "metadata", DataError)
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
        except (TypeError, ValueError, OverflowError, ConfigError) as exc:
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
    lines, invalid = _text_lines(path)
    if invalid:
        raise DataError(f"{path}: line {invalid[0] + 1}: invalid UTF-8 in class map")
    names = [line.rstrip("\r\n") for line in lines]
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
    if any(map(_UNDECODABLE.search, fields)):
        raise DataError("invalid UTF-8")
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


@dataclass
class SplitLabels:
    """The labels of a dataset split as columns, in frame then line order.

    ``stems`` are the split's sorted frame ids, empty frames included.
    Label ``i`` lies in frame ``stems[frames[i]]``, on line ``line_nos[i]``
    of its file, with its pixel quad in canonical vertex order.
    Degenerate labels are kept and flagged; ``n_skipped`` malformed lines
    are not.
    """

    stems: list[str]
    frames: np.ndarray
    classes: np.ndarray
    quads: np.ndarray
    degenerate: np.ndarray
    line_nos: np.ndarray | None = None  # None for labels that come from no file
    n_skipped: int = 0

    def ground_truths(self) -> list[GroundTruth]:
        """The labels as GroundTruth records."""
        rows = zip(self.frames.tolist(), self.classes.tolist(), self.quads, self.degenerate.tolist())
        return [GroundTruth(self.stems[f], c, quad, flag) for f, c, quad, flag in rows]


def _checked_labels(records: list[list[str]], top_class: int) -> tuple[list[int], list[float]] | None:
    """Class ids and coordinates of label records checked by column, or None unless each passes _label_values."""
    if set(map(len, records)) != {9}:
        return None
    tokens = list(chain.from_iterable(records))
    try:
        ids = list(map(int, tokens[::9]))
        del tokens[::9]
        values = list(map(float, tokens))
    except ValueError:
        return None
    # a NaN or an infinity makes the sum non-finite; without them min and max are exact
    in_range = math.isfinite(sum(values)) and -COORD_TOL <= min(values) and max(values) <= 1.0 + COORD_TOL
    return (ids, values) if in_range and 0 <= min(ids) and max(ids) <= top_class else None


def _label_columns(sources, stems: list[str], meta: FrameMeta, n_classes: int | None, strict: bool):
    """SplitLabels of ``(frame index, lines)`` sources, and ``(frame index, line number, reason)`` of each malformed line.

    Blank lines are not records.  A source that fails the column check
    goes through _label_values line by line, for each fault's reason.
    With ``strict``, reading stops after the first source holding a
    malformed line.  One ``canonical_order`` and one ``degenerate_mask``
    call cover the quads of all sources.
    """
    frames, class_ids, coords, line_nos, faults = [], [], [], [], []
    top_class = INT64_MAX if n_classes is None else n_classes - 1
    for frame, lines in sources:
        split = list(map(str.split, lines))
        checked = _checked_labels([fields for fields in split if fields], top_class)
        if checked is not None:
            frames += [frame] * len(checked[0])
            class_ids += checked[0]
            coords += checked[1]
            line_nos += [line_no for line_no, fields in enumerate(split, start=1) if fields]
            continue
        for line_no, fields in enumerate(split, start=1):
            if not fields:
                continue
            try:
                class_id, values = _label_values(fields, n_classes)
            except DataError as exc:
                faults.append((frame, line_no, str(exc)))
                continue
            frames.append(frame)
            class_ids.append(class_id)
            coords += values
            line_nos.append(line_no)
        if strict and faults:
            break
    raw = np.array(coords).reshape(-1, 4, 2) * (meta.width, meta.height)
    columns = (np.array(frames, np.int64), np.array(class_ids, np.int64), canonical_order(raw), degenerate_mask(raw))
    return SplitLabels(stems, *columns, np.array(line_nos, np.int64), len(faults)), faults


def _read_labels(stems: list[str], files: list[tuple[int, Path]], meta, n_classes, strict, warnings) -> SplitLabels:
    """SplitLabels of ``(frame index, path)`` label files in frame order, with read_label_file's warnings and errors."""
    labels, faults = _label_columns(((frame, _text_lines(path)[0]) for frame, path in files), stems, meta, n_classes, strict)
    paths = dict(files)
    if strict and faults:
        frame, line_no, reason = faults[0]
        raise ParseError(f"{paths[frame]}: line {line_no}: {reason}")
    flagged = labels.degenerate
    notes = [(frame, line_no, f"skipped: {reason}") for frame, line_no, reason in faults]
    notes += [(f, n, "degenerate quad flagged") for f, n in zip(labels.frames[flagged].tolist(), labels.line_nos[flagged].tolist())]
    if warnings is not None:
        warnings.extend(f"{paths[f]}:{line_no}: {note}" for f, line_no, note in sorted(notes))
    return labels


def read_split_labels(
    split_dir: str | Path,
    meta: FrameMeta,
    n_classes: int | None = None,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> SplitLabels:
    """Read every label file of a split directory (``images/`` and ``labels/``) into one SplitLabels.

    Warnings and strict-mode errors are those of load_split, then of
    read_label_file on each label file in stem order.
    """
    split_dir = Path(split_dir)
    pairs = load_split(split_dir.parent, split_dir.name, strict=strict, warnings=warnings)
    files = [(frame, pair.label_path) for frame, pair in enumerate(pairs) if pair.label_path is not None]
    return _read_labels([pair.stem for pair in pairs], files, meta, n_classes, strict, warnings)


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
    labels, faults = _label_columns([(0, [line])], [frame_id], meta, n_classes, strict=True)
    if faults or not labels.classes.size:
        raise ParseError(faults[0][2] if faults else "expected 9 fields, got 0", line_no)
    return labels.ground_truths()[0]


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
    labels = _read_labels([path.stem], [(0, path)], meta, n_classes, strict, warnings)
    if stats is not None:
        stats["skipped"] = stats.get("skipped", 0) + labels.n_skipped
    return labels.ground_truths()


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
                if abs(v) > MAX_PIXEL:
                    raise DataError(f"coordinate {v!r} beyond the {MAX_PIXEL:g} px bound")
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
    frames: np.ndarray  # int64
    classes: np.ndarray  # int64
    confs: np.ndarray  # float64
    quads: np.ndarray  # float64

    def detections(self) -> Iterator[Detection]:
        """The kept records as Detections, quads in canonical order."""
        quads = canonical_order(self.quads)
        columns = self.video_ids, self.frames.tolist(), self.classes.tolist(), quads, self.confs.tolist()
        for video_id, frame, class_id, quad, conf in zip(*columns):
            yield Detection(video_id=video_id, frame_index=frame, class_id=class_id, quad=quad, confidence=conf)


BULK_LINES = 256  # record lines per block, decoded by one json.loads: bounds the decoded objects alive at once
BULK_LINE_CHARS = 1024  # longest line orjson decodes: it nests at most 512 deep, which stdlib json reads too
SCAN_BYTES = 1 << 16  # bytes read at a time while finding chunk boundaries; forked workers inherit the buffer

_FIELDS = ("video_id", "frame", "class", "poly", "conf")
_PLACEHOLDER = {"video_id": "", "frame": 0, "class": 0, "poly": [[0.0, 0.0]] * 4, "conf": 0.0}
_UNDECODED = object()


def _decode_one(text: str, k: int, faults: dict[int, str]):
    """``json.loads`` of one line, or _UNDECODED with its fault recorded under ``k``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        faults[k] = f"invalid JSON: {exc.msg}"
    except ValueError:  # an integer literal longer than the interpreter's digit limit
        faults[k] = "invalid JSON: integer literal too long"
    except RecursionError:
        faults[k] = "invalid JSON: nesting too deep"
    return _UNDECODED


class _LineDecoder(json.JSONDecoder):
    """``json.loads("", cls=_LineDecoder, lines=texts)``: orjson's value of each line, read on its own.

    Going through json.loads lets the benchmark's layer tracer time each
    block's decode.  A line that orjson rejects, or that is longer than
    BULK_LINE_CHARS, reads _UNDECODED.
    """

    def __init__(self, lines: list[str]):
        self.lines = lines

    def decode(self, s, *args) -> list:
        values = []
        for text in self.lines:
            try:
                values.append(orjson.loads(text) if len(text) <= BULK_LINE_CHARS else _UNDECODED)
            except orjson.JSONDecodeError:
                values.append(_UNDECODED)
        return values


def _decode_block(texts: list[str], faults: dict[int, str]) -> tuple[list, set[int]]:
    """The decoded value of each line, and the lines that stdlib json read.

    orjson reads each line of up to BULK_LINE_CHARS characters on its own
    (one _LineDecoder pass).  Stdlib json reads the lines it rejects and
    the longer ones, which could nest deeper than stdlib json reads; a
    line both reject reads _UNDECODED, with ``faults[k]`` set.
    """
    values = json.loads("", cls=_LineDecoder, lines=texts)
    by_stdlib = {k for k, value in enumerate(values) if value is _UNDECODED}
    for k in by_stdlib:
        values[k] = _decode_one(texts[k], k, faults)
    return values, by_stdlib


def _all_len(items: list, n: int) -> bool:
    """Whether every item has length ``n``; False if one has no length."""
    try:
        return set(map(len, items)) <= {n}
    except TypeError:
        return False


def _int_cells(col: list) -> np.ndarray:
    """An int column as int64; cells of another type or beyond int64 read -1."""
    if set(map(type, col)) != {int}:
        col = [v if type(v) is int else -1 for v in col]
    try:
        return np.array(col, np.int64)
    except OverflowError:
        return np.array([v if -INT64_MAX <= v <= INT64_MAX else -1 for v in col], np.int64)


def _coordinates(polys: list, flag: np.ndarray) -> np.ndarray:
    """The (n, 4, 2) coordinates of a poly column; flags each poly that is not four [x, y] number pairs."""
    if not _all_len(polys, 4):
        ok = [type(p) is list and len(p) == 4 for p in polys]
        flag |= np.logical_not(ok)
        polys = [p if good else _PLACEHOLDER["poly"] for p, good in zip(polys, ok)]
    points = list(chain.from_iterable(polys))
    if not _all_len(points, 2):
        ok = np.array([type(q) is list and len(q) == 2 for q in points])
        flag |= ~ok.reshape(-1, 4).all(axis=1)
        points = [q if good else [0.0, 0.0] for q, good in zip(points, ok.tolist())]
    flat = list(chain.from_iterable(points))
    if not set(map(type, flat)) <= {float, int}:
        flat = [v if type(v) is float or type(v) is int else math.nan for v in flat]
    try:
        return np.frombuffer(array("d", flat), np.float64).reshape(-1, 4, 2)
    except OverflowError:  # an int beyond the float range: ints read NaN, so their records are validated alone
        return np.array([v if type(v) is float else math.nan for v in flat]).reshape(-1, 4, 2)


def _check_columns(values: list, class_map: ClassMap | None, meta: FrameMeta | None) -> tuple:
    """Checks of decoded records by column: ``video_ids`` list, ``frames, classes, quads, confs`` arrays, flags.

    A record is flagged if it fails a check or has other fields than the
    five; unflagged cells are what validate_detection_obj would return,
    in its order.
    """
    flag = np.zeros(len(values), bool)
    try:
        if set(map(type, values)) != {dict} or set(map(len, values)) != {5}:
            raise KeyError
        video_ids, frames, classes, polys, confs = ([v[name] for v in values] for name in _FIELDS)
    except KeyError:  # a value that is no dict, or a dict of other fields than the five
        ok = [type(v) is dict and v.keys() == _PLACEHOLDER.keys() for v in values]
        flag |= np.logical_not(ok)
        values = [v if good else _PLACEHOLDER for v, good in zip(values, ok)]
        video_ids, frames, classes, polys, confs = ([v[name] for v in values] for name in _FIELDS)
    if set(map(type, video_ids)) != {str}:
        flag |= [type(v) is not str for v in video_ids]
    if set(map(type, classes)) != {int}:  # names resolve through the class map, other types read -1
        index = class_map._index if class_map is not None else {}
        classes = [c if type(c) is int else index.get(c, -1) if type(c) is str else -1 for c in classes]
    if set(map(type, confs)) != {float}:
        confs = [c if type(c) is float else math.nan for c in confs]
    coords = _coordinates(polys, flag)
    frame_arr, class_arr, conf_arr = _int_cells(frames), _int_cells(classes), np.array(confs)
    flag |= (frame_arr < 0) | (class_arr < 0) | ~((conf_arr >= 0.0) & (conf_arr <= 1.0))
    flag |= ~(np.abs(coords) <= MAX_PIXEL).all(axis=(1, 2))  # NaN and inf too
    if meta is not None and meta.frame_count > 0:
        flag |= frame_arr >= meta.frame_count
    if class_map is not None:
        flag |= class_arr >= len(class_map)
    return video_ids, frame_arr, class_arr, coords, conf_arr, flag


def parse_detection_chunk(
    lines: list[str],
    first_line_no: int,
    class_map: ClassMap | None = None,
    meta: FrameMeta | None = None,
    strict: bool = False,
    invalid_utf8: Iterable[int] = (),
) -> DetectionChunk:
    """Decode and validate detection lines; degenerate quads count as invalid.

    ``lines[i]`` is line ``first_line_no + i`` of its stream, and blank
    lines are not records; lines at the indices in ``invalid_utf8`` held
    bytes that are not UTF-8.  In lax mode each invalid record is skipped
    with a ``line N: skipped: <reason>`` warning, in line order; in strict
    mode the first one raises ParseError.  Each line is decoded alone, and
    blocks of BULK_LINES records are checked by column; only flagged ones
    go through validate_detection_obj, so results equal a per-line check.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()  # the cyclic GC would scan a block's decoded objects many times over
    try:
        faults = dict.fromkeys(invalid_utf8, "invalid UTF-8")  # line index -> reason
        records = [i for i, line in enumerate(lines) if line and not line.isspace()]
        rows = [i for i in records if i not in faults]
        video_ids, kept_rows = [], []  # the kept records' ids and line indices
        columns = array("q"), array("q"), array("d"), array("d")  # frames, classes, quad x, y pairs, confs
        for lo in range(0, len(rows), BULK_LINES):
            block = rows[lo : lo + BULK_LINES]
            texts = [lines[i] for i in block]
            bad: dict[int, str] = {}
            values, by_stdlib = _decode_block(texts, bad)
            ids, *cells, flag = _check_columns(values, class_map, meta)
            keep = ~flag
            for k in np.flatnonzero(flag).tolist():
                if k not in by_stdlib:  # as stdlib json reads it: orjson reads integers beyond 64 bits as floats
                    values[k] = _decode_one(texts[k], k, bad)
                if values[k] is _UNDECODED:
                    continue
                try:
                    ids[k], *record = validate_detection_obj(values[k], class_map, meta)
                except DataError as exc:
                    bad[k] = str(exc)
                    continue
                for col, cell in zip(cells, record):
                    col[k] = cell
                keep[k] = True
            faults.update((block[k], msg) for k, msg in bad.items())
            if bad:
                kept = keep.tolist()
                ids, block, cells = list(compress(ids, kept)), compress(block, kept), [col[keep] for col in cells]
            video_ids += ids
            kept_rows += block
            for col, block_cells in zip(columns, cells):
                col.frombytes(block_cells.tobytes())
    finally:
        if gc_was_enabled:
            gc.enable()
    frames, classes, quads, confs = (np.frombuffer(col, col.typecode) for col in columns)
    max_frame = int(frames.max(initial=-1))
    quads = quads.reshape(-1, 4, 2)
    degenerate = degenerate_mask(quads)
    if degenerate.any():
        faults.update((kept_rows[i], "degenerate quad") for i in np.flatnonzero(degenerate).tolist())
        video_ids = list(compress(video_ids, (~degenerate).tolist()))
        frames, classes, quads, confs = (col[~degenerate] for col in (frames, classes, quads, confs))
    ordered = sorted(faults.items())
    if strict and ordered:
        raise ParseError(ordered[0][1], first_line_no + ordered[0][0])
    warnings = [f"line {first_line_no + i}: skipped: {msg}" for i, msg in ordered]
    return DetectionChunk(len(records), len(ordered), warnings, max_frame, video_ids, frames, classes, confs, quads)


def line_ranges(path: str | Path, n_lines: int) -> Iterator[tuple[int, int, int]]:
    r"""``(byte offset, line count, first line number)`` of consecutive ``n_lines``-line runs of a file.

    Lines end as in text mode, at ``\n``, ``\r\n`` or a lone ``\r``; the
    last run holds the lines left, a final line without an end included.
    """
    start = pos = seen = 0  # seen: line ends since start
    first_line_no, last = 1, b"\n"
    with open(path, "rb") as fh:
        while data := fh.read(SCAN_BYTES):
            while data.endswith(b"\r") and (more := fh.read(1)):  # so a \r\n line end is seen whole
                data += more
            if b"\r" in data:  # same length, with a \n at each line end and nowhere else
                data = data.replace(b"\r\n", b" \n").replace(b"\r", b"\n")
            ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
            for cut in (ends[n_lines - seen - 1 :: n_lines] + pos + 1).tolist():
                yield start, n_lines, first_line_no
                start, first_line_no = cut, first_line_no + n_lines
            seen, pos, last = (seen + ends.size) % n_lines, pos + len(data), data[-1:]
    if pos > start:
        yield start, seen + (last != b"\n"), first_line_no


def _text_lines(path: str | Path, offset: int = 0, n_lines: int | None = None) -> tuple[list[str], list[int]]:
    """Up to ``n_lines`` text-mode lines of a file from a byte offset (all with None), and the indices of those holding bytes that are not UTF-8.

    Only a strict UTF-8 read that fails is made again with surrogateescape, which keeps each bad byte as a lone surrogate.
    A read from offset 0 drops a leading byte-order mark; a U+FEFF anywhere else stays in its line.
    """
    for errors in ("strict", "surrogateescape"):
        with open(path, "rb") as raw:
            raw.seek(offset)
            with io.TextIOWrapper(raw, encoding="utf-8" if offset else "utf-8-sig", errors=errors) as text:
                try:
                    lines = list(islice(text, n_lines))
                except UnicodeDecodeError:  # raised by the strict read only
                    continue
        invalid = [i for i, line in enumerate(lines) if _UNDECODABLE.search(line)] if errors != "strict" else []
        return lines, invalid


def read_detection_range(path: str | Path, offset: int, n_lines: int, first_line_no: int, *args) -> DetectionChunk:
    """parse_detection_chunk(lines, first_line_no, *args) of ``n_lines`` lines from a byte offset (see line_ranges).

    The lines are read in text mode.  A line holding bytes that are not
    UTF-8 is an invalid record (``invalid UTF-8``).
    """
    lines, invalid = _text_lines(path, offset, n_lines)
    return parse_detection_chunk(lines, first_line_no, *args, invalid_utf8=invalid)


def iter_detections(
    lines: Iterable[str],
    class_map: ClassMap | None = None,
    meta: FrameMeta | None = None,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> Iterator[Detection]:
    """Stream Detections from JSON lines, parsed in blocks of up to BULK_LINES lines.

    Degenerate quads count as invalid records: reported and skipped in
    lax mode, fatal in strict mode once the records before them are out.
    """
    lines, line_no = iter(lines), 1
    while block := list(islice(lines, BULK_LINES)):
        try:
            chunk = parse_detection_chunk(block, line_no, class_map, meta, strict)
        except ParseError as exc:
            yield from parse_detection_chunk(block[: exc.line_no - line_no], line_no, class_map, meta).detections()
            raise
        if warnings is not None:
            warnings.extend(chunk.warnings)
        yield from chunk.detections()
        line_no += len(block)


# ---------------------------------------------------------------------------
# Dataset split layout


@dataclass(frozen=True)
class SplitPair:
    """Matched image/label stems of one frame in a dataset split."""

    stem: str
    image_path: Path | None
    label_path: Path | None


def _files_by_stem(directory: Path, kind: str, keep) -> dict[str, Path]:
    """The files of ``directory`` that ``keep`` accepts, by stem, in name order; a stem held twice is a DataError."""
    with os.scandir(directory) as entries:
        paths = [directory / name for name in sorted(entry.name for entry in entries if entry.is_file())]
    files: dict[str, Path] = {}
    for p in filter(keep, paths):
        if p.stem in files:
            raise DataError(f"duplicate {kind} stem {p.stem!r} in {directory}")
        files[p.stem] = p
    return files


def load_split(
    root: str | Path,
    split: str,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> list[SplitPair]:
    """Pair image and label files of ``<root>/<split>/{images,labels}``.

    Unpaired labels are kept with a warning in lax mode and excluded in
    strict mode; unpaired images pair with an empty label.  Duplicate
    stems are an error.  Entries that are not files are ignored.
    """
    base = Path(root) / split
    images_dir = base / "images"
    labels_dir = base / "labels"
    for d in (images_dir, labels_dir):
        if not d.is_dir():
            raise ConfigError(f"missing split directory {d}")

    images = _files_by_stem(images_dir, "image", lambda p: p.suffix.lower() in IMAGE_EXTENSIONS)
    labels = _files_by_stem(labels_dir, "label", lambda p: p.name.endswith(".txt"))
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
# Report writers (deterministic column and key order)


def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_json_report(path: str | Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


TABLE_BLOCK_ROWS = 4096  # rows formatted per write: the cells in memory are one block's (about 1.5 MiB for a timeline)


def _cell_texts(values, fmt: str) -> list[str]:
    """One column's cells as report text: format_cell for CSV, JSON literals for JSON."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu" or (values.dtype.kind == "f" and (fmt == "csv" or np.isfinite(values).all())):
            return list(map(repr, values.tolist()))  # int/float repr is both format_cell and json text
        values = values.tolist()
    return list(map(format_cell if fmt == "csv" else json.dumps, values))


def write_table(path: str | Path, fieldnames: list[str], rows: list[dict] | dict, fmt: str) -> None:
    """Write a tabular report as CSV or as a JSON array of row objects.

    ``rows`` is a list of row dicts or a dict of equal-length columns
    (lists or 1-D arrays) by field name.  Columns are formatted one at a
    time, into the bytes ``csv.writer`` with format_cell, or
    ``json.dump(indent=2)``, would write for the same rows.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    columns = rows if isinstance(rows, dict) else {k: [row.get(k) for row in rows] for k in fieldnames}
    n = len(columns[fieldnames[0]])
    fields = ",\n".join(f"    {json.dumps(k).replace('%', '%%')}: %s" for k in fieldnames)
    json_row = ("  {\n" + fields + "\n  }").__mod__
    with open(path, "w", encoding="utf-8", newline="" if fmt == "csv" else None) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fmt == "csv":
            writer.writerow(fieldnames)
        elif n:
            fh.write("[\n")
        for lo in range(0, n, TABLE_BLOCK_ROWS):
            cells = zip(*(_cell_texts(columns[k][lo : lo + TABLE_BLOCK_ROWS], fmt) for k in fieldnames))
            if fmt == "csv":
                writer.writerows(cells)
            else:
                fh.write((",\n" if lo else "") + ",\n".join(map(json_row, cells)))
        if fmt == "json":
            fh.write("\n]\n" if n else "[]\n")
