from __future__ import annotations

import json

import numpy as np
import pytest

from obbkit.errors import ConfigError, DataError, ParseError
from obbkit.formats import (
    BULK_LINES,
    ClassMap,
    FrameMeta,
    iter_detections,
    line_ranges,
    load_class_map,
    load_split,
    parse_detection_chunk,
    parse_obb_label_line,
    read_detection_range,
    read_label_file,
    read_split_labels,
    serialize_obb_label_line,
    write_table,
)
from conftest import detection_line, read_table_csv, traced_peak
from oracles import normalize_quad_reference, random_convex_quad, write_table_reference
from obbkit.geometry import normalize_quad, polygon_area
from obbkit.geometry import quad_from_rect

META_1000 = FrameMeta(width=1000.0, height=1000.0, fps=25.0, frame_count=100)
META_100 = FrameMeta(width=100.0, height=100.0)


def parse_one(line, class_map=None, meta=None):
    """The Detection of one line, parsed in strict mode."""
    (det,) = parse_detection_chunk([line], 1, class_map, meta, strict=True).detections()
    return det


class TestParseLabelLine:
    def test_corner_square(self):
        gt = parse_obb_label_line("0 0.0 0.0 0.1 0.0 0.1 0.1 0.0 0.1", META_1000)
        assert gt.class_id == 0
        assert not gt.degenerate
        assert polygon_area(gt.quad) == pytest.approx(100.0 * 100.0, rel=1e-12)
        assert gt.quad.min() == 0.0 and gt.quad.max() == 100.0

    def test_rotated_diamond_area(self):
        gt = parse_obb_label_line("3 0.5 0.4 0.6 0.5 0.5 0.6 0.4 0.5", META_100)
        assert gt.class_id == 3
        assert polygon_area(gt.quad) == pytest.approx(200.0, rel=1e-12)

    def test_field_count_error(self):
        with pytest.raises(ParseError, match="expected 9 fields"):
            parse_obb_label_line("0 0.1 0.1 0.2", META_100)

    def test_non_numeric(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_obb_label_line("0 a 0 0.1 0 0.1 0.1 0 0.1", META_100)

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_obb_label_line("0 1.5 0 0.1 0 0.1 0.1 0 0.1", META_100)

    def test_edge_tolerance_accepted(self):
        line = "0 0.0 0.0 1.0000005 0.0 1.0 1.0 0.0 1.0"
        gt = parse_obb_label_line(line, META_100)
        assert not gt.degenerate

    def test_unknown_class(self):
        with pytest.raises(ParseError, match="unknown class id"):
            parse_obb_label_line("7 0 0 0.1 0 0.1 0.1 0 0.1", META_100, n_classes=5)

    def test_non_finite(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_obb_label_line("0 nan 0 0.1 0 0.1 0.1 0 0.1", META_100)

    def test_line_number_in_message(self):
        with pytest.raises(ParseError, match="line 17"):
            parse_obb_label_line("0 0.1", META_100, line_no=17)


class TestRoundTrip:
    def test_parse_serialize_parse_identical(self):
        rng = np.random.default_rng(99)
        meta = FrameMeta(width=1280.0, height=720.0)
        for _ in range(500):
            coords = rng.uniform(0.05, 0.95, 8)
            # make a convex quad: an axis box plus slight independent corner jitter
            cx, cy = rng.uniform(0.2, 0.8, 2)
            w, h = rng.uniform(0.05, 0.15, 2)
            quad = np.array(
                [[cx - w, cy - h], [cx + w, cy - h], [cx + w, cy + h], [cx - w, cy + h]]
            )
            line = "2 " + " ".join(format(v, ".9g") for v in quad.reshape(-1))
            gt1 = parse_obb_label_line(line, meta)
            line2 = serialize_obb_label_line(gt1, meta)
            gt2 = parse_obb_label_line(line2, meta)
            assert gt1.class_id == gt2.class_id
            assert gt1.quad.tolist() == gt2.quad.tolist()
            assert serialize_obb_label_line(gt2, meta) == line2


class TestDetectionStream:
    def test_valid_record(self):
        line = detection_line("v1", 3, 2, quad_from_rect(50, 50, 10, 5, 20), 0.97)
        det = parse_one(line)
        assert det.video_id == "v1"
        assert det.frame_index == 3
        assert det.class_id == 2
        assert det.confidence == 0.97
        assert not det.degenerate

    def test_confidence_out_of_range(self):
        line = detection_line("v", 0, 0, quad_from_rect(5, 5, 2, 2, 0), 1.7)
        with pytest.raises(ParseError, match="out of range"):
            parse_one(line)

    def test_three_vertex_polygon(self):
        obj = {"video_id": "v", "frame": 0, "class": 0, "poly": [[0, 0], [1, 0], [1, 1]], "conf": 0.5}
        with pytest.raises(ParseError, match="expected 4 vertices"):
            parse_one(json.dumps(obj))

    def test_missing_field(self):
        obj = {"video_id": "v", "frame": 0, "poly": [[0, 0], [1, 0], [1, 1], [0, 1]], "conf": 0.5}
        with pytest.raises(ParseError, match="missing field 'class'"):
            parse_one(json.dumps(obj))

    def test_class_name_requires_map(self):
        line = detection_line("v", 0, "acme", quad_from_rect(5, 5, 2, 2, 0), 0.5)
        with pytest.raises(ParseError, match="requires a class map"):
            parse_one(line)

    def test_class_name_resolved(self):
        cmap = ClassMap(("acme", "globex"))
        line = detection_line("v", 0, "globex", quad_from_rect(5, 5, 2, 2, 0), 0.5)
        assert parse_one(line, cmap).class_id == 1

    def test_unknown_class_name(self):
        cmap = ClassMap(("acme",))
        line = detection_line("v", 0, "initech", quad_from_rect(5, 5, 2, 2, 0), 0.5)
        with pytest.raises(ParseError, match="unknown class name"):
            parse_one(line, cmap)

    def test_frame_beyond_count(self):
        line = detection_line("v", 120, 0, quad_from_rect(5, 5, 2, 2, 0), 0.5)
        with pytest.raises(ParseError, match="outside video"):
            parse_one(line, meta=META_1000)

    def test_boolean_frame_rejected(self):
        obj = {"video_id": "v", "frame": True, "class": 0, "poly": [[0, 0], [1, 0], [1, 1], [0, 1]], "conf": 0.5}
        with pytest.raises(ParseError, match="non-negative integer"):
            parse_one(json.dumps(obj))

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_one("{not json")

    def test_lax_skips_and_reports(self):
        good = detection_line("v", 0, 0, quad_from_rect(5, 5, 2, 2, 0), 0.9)
        bad = detection_line("v", 0, 0, quad_from_rect(5, 5, 2, 2, 0), 2.0)
        bowtie = detection_line("v", 1, 0, [[0, 0], [1, 1], [1, 0], [0, 1]], 0.9)
        warnings: list[str] = []
        dets = list(iter_detections([good, bad, bowtie], warnings=warnings))
        assert len(dets) == 1
        assert len(warnings) == 2
        assert "out of range" in warnings[0]
        assert "degenerate" in warnings[1]

    def test_strict_raises(self):
        bad = detection_line("v", 0, 0, quad_from_rect(5, 5, 2, 2, 0), -0.1)
        with pytest.raises(ParseError):
            list(iter_detections([bad], strict=True))

    def test_streaming_memory_bounded(self):
        meta = FrameMeta(width=1280.0, height=720.0)

        def lines(n):
            for i in range(n):
                yield detection_line("v", i % 1000, i % 7, quad_from_rect(100 + i % 50, 80, 20, 10, i % 180), 0.9)

        count, peak = traced_peak(lambda: sum(1 for _ in iter_detections(lines(20_000), meta=meta)))
        assert count == 20_000
        # ~3 MB of text flows through; a streaming parser holds only one record
        assert peak < 2_000_000


def _iter_detections_per_line(lines, meta=None, strict=False, warnings=None):
    """iter_detections as one parse_detection_chunk call per line."""
    for line_no, line in enumerate(lines, start=1):
        chunk = parse_detection_chunk([line], line_no, None, meta, strict)
        if warnings is not None:
            warnings.extend(chunk.warnings)
        yield from chunk.detections()


def _detection_tuples(dets):
    return [(d.video_id, d.frame_index, d.class_id, d.quad.tobytes(), d.confidence) for d in dets]


class TestBlockedDetectionStream:
    """iter_detections, parsed in blocks, against a per-line parse of the same stream."""

    @staticmethod
    def _stream(bad_at=()):
        lines = [
            detection_line("v", i % 90, i % 3, quad_from_rect(10 + i % 40, 20, 6, 4, i % 180), 0.5) + "\n"
            for i in range(2 * BULK_LINES + 40)
        ]
        faults = [
            '{"oops\n',
            "\n",
            detection_line("v", 1, 0, [[0, 0], [1, 1], [1, 0], [0, 1]], 0.9) + "\n",  # degenerate
            detection_line("v", 500, 0, quad_from_rect(5, 5, 2, 2, 0), 0.9) + "\n",  # past frame_count
        ]
        for k, i in enumerate(bad_at):
            lines[i] = faults[k % len(faults)]
        return lines

    def test_lax_records_and_warnings(self):
        lines = self._stream(bad_at=(0, 7, BULK_LINES - 1, BULK_LINES, BULK_LINES + 3, 2 * BULK_LINES + 39))
        got_w, want_w = [], []
        got = _detection_tuples(iter_detections(lines, meta=META_1000, warnings=got_w))
        want = _detection_tuples(_iter_detections_per_line(lines, meta=META_1000, warnings=want_w))
        assert got == want and len(got) == len(lines) - 6
        assert got_w == want_w and len(want_w) == 4  # blank lines are no records

    @pytest.mark.parametrize("bad", [0, 5, BULK_LINES - 1, BULK_LINES, BULK_LINES + 17])
    def test_strict_yields_the_records_before_the_error(self, bad):
        lines = self._stream(bad_at=(bad,))
        results = []
        for fn in (iter_detections, _iter_detections_per_line):
            out = []
            with pytest.raises(ParseError) as exc:
                for d in fn(lines, strict=True):
                    out.append(d)
            results.append((_detection_tuples(out), str(exc.value), exc.value.line_no))
        assert results[0] == results[1]
        assert len(results[0][0]) == bad and results[0][2] == bad + 1

    def test_lazy(self):
        lines = self._stream()
        pulled = []

        def source():
            for line in lines:
                pulled.append(line)
                yield line

        stream = iter_detections(source())
        next(stream)
        assert len(pulled) == BULK_LINES
        assert sum(1 for _ in stream) == len(lines) - 1


class TestDetectionChunk:
    GOOD = detection_line("v", 7, 2, quad_from_rect(50, 50, 10, 5, 20), 0.8)
    BOWTIE = detection_line("v", 9, 0, [[0, 0], [1, 1], [1, 0], [0, 1]], 0.9)
    LINES = [GOOD + "\n", "\n", BOWTIE + "\n", '{"oops\n', GOOD + "\n"]

    def test_columns_counts_and_line_ordered_warnings(self):
        chunk = parse_detection_chunk(self.LINES, 101)
        assert (chunk.n_records, chunk.n_skipped) == (4, 2)
        assert chunk.warnings[0] == "line 103: skipped: degenerate quad"
        assert chunk.warnings[1].startswith("line 104: skipped: invalid JSON: ")
        assert chunk.frames.tolist() == [7, 7] and chunk.classes.tolist() == [2, 2] and chunk.confs.tolist() == [0.8, 0.8]
        assert chunk.quads.shape == (2, 4, 2)
        assert chunk.max_frame == 9  # validated records count, degenerate ones too

    def test_strict_raises_first_fault_in_line_order(self):
        with pytest.raises(ParseError, match="^line 103: degenerate quad$"):
            parse_detection_chunk(self.LINES, 101, strict=True)

    def test_detections_are_canonical(self):
        chunk = parse_detection_chunk(self.LINES, 1)
        expected = normalize_quad(json.loads(self.GOOD)["poly"])[0]
        for det in chunk.detections():
            assert det.quad.tobytes() == expected.tobytes()
            assert not det.degenerate

    def test_empty_chunk(self):
        chunk = parse_detection_chunk(["\n", "  \n"], 1)
        assert (chunk.n_records, chunk.n_skipped, chunk.max_frame) == (0, 0, -1)
        assert chunk.quads.shape == (0, 4, 2) and list(chunk.detections()) == []


class TestClassMap:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("acme\nglobex corp\ninitech\n", encoding="utf-8")
        cmap = load_class_map(path)
        assert len(cmap) == 3
        assert cmap.name_of(1) == "globex corp"
        assert cmap.id_of("initech") == 2

    def test_duplicate_name_rejected(self):
        with pytest.raises(DataError, match="duplicate class name"):
            ClassMap(("acme", "acme"))

    def test_blank_interior_line_rejected(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("acme\n\nglobex\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty class name"):
            load_class_map(path)

    def test_unknown_lookups(self):
        cmap = ClassMap(("acme",))
        with pytest.raises(DataError):
            cmap.name_of(5)
        with pytest.raises(DataError):
            cmap.id_of("none")


class TestFrameMeta:
    def test_from_json(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps({"video_id": "m", "width": 1280, "height": 720, "fps": 25, "frame_count": 500}))
        meta = FrameMeta.from_json_file(path)
        assert meta.frame_area == 1280 * 720
        assert meta.dt == pytest.approx(0.04)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigError):
            FrameMeta(width=0.0, height=10.0)
        with pytest.raises(ConfigError):
            FrameMeta(width=10.0, height=10.0, fps=-1.0)

    @pytest.mark.parametrize("width, height", [(2e9, 720.0), (1280.0, 1e300), (float("inf"), 720.0), (float("nan"), 720.0)])
    def test_sides_beyond_the_pixel_bound(self, width, height):
        with pytest.raises(ConfigError, match="frame dimensions must be at most 1e\\+09 px"):
            FrameMeta(width=width, height=height)
        FrameMeta(width=1e9, height=1e9)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps({"width": 1280}))
        with pytest.raises(DataError, match="missing metadata field"):
            FrameMeta.from_json_file(path)


def _make_split(tmp_path, stems_with_labels, stems_without_labels=(), extra_labels=()):
    images = tmp_path / "test" / "images"
    labels = tmp_path / "test" / "labels"
    images.mkdir(parents=True)
    labels.mkdir(parents=True)
    for stem in stems_with_labels:
        (images / f"{stem}.jpg").write_bytes(b"")
        (labels / f"{stem}.txt").write_text("0 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2\n")
    for stem in stems_without_labels:
        (images / f"{stem}.jpg").write_bytes(b"")
    for stem in extra_labels:
        (labels / f"{stem}.txt").write_text("0 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2\n")
    return tmp_path


class TestLoadSplit:
    def test_pairing(self, tmp_path):
        root = _make_split(tmp_path, ["f001", "f002"])
        pairs = load_split(root, "test")
        assert [p.stem for p in pairs] == ["f001", "f002"]
        assert all(p.image_path and p.label_path for p in pairs)

    def test_label_without_image(self, tmp_path):
        root = _make_split(tmp_path, ["f001"], extra_labels=["f009"])
        warnings: list[str] = []
        pairs = load_split(root, "test", warnings=warnings)
        assert {p.stem for p in pairs} == {"f001", "f009"}
        assert any("no matching image" in w for w in warnings)
        strict_pairs = load_split(root, "test", strict=True)
        assert {p.stem for p in strict_pairs} == {"f001"}

    def test_image_without_label(self, tmp_path):
        root = _make_split(tmp_path, ["f001"], stems_without_labels=["f002"])
        warnings: list[str] = []
        pairs = load_split(root, "test", warnings=warnings)
        assert {p.stem for p in pairs} == {"f001", "f002"}
        assert any("no label file" in w for w in warnings)

    def test_empty_split_ok(self, tmp_path):
        (tmp_path / "val" / "images").mkdir(parents=True)
        (tmp_path / "val" / "labels").mkdir(parents=True)
        assert load_split(tmp_path, "val") == []

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="missing split directory"):
            load_split(tmp_path, "train")

    def test_duplicate_stem(self, tmp_path):
        root = _make_split(tmp_path, ["f001"])
        (root / "test" / "images" / "f001.png").write_bytes(b"")
        with pytest.raises(DataError, match="duplicate image stem"):
            load_split(root, "test")


class TestLabelFile:
    def test_reads_and_flags(self, tmp_path):
        path = tmp_path / "f01.txt"
        path.write_text(
            "0 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2\n"
            "oops\n"
            "1 0.1 0.1 0.4 0.4 0.2 0.1 0.3 0.5\n",  # bow-tie-ish, likely degenerate
            encoding="utf-8",
        )
        warnings: list[str] = []
        gts = read_label_file(path, META_100, strict=False, warnings=warnings)
        assert all(gt.frame_id == "f01" for gt in gts)
        assert any("skipped" in w for w in warnings)

    def test_strict_raises(self, tmp_path):
        path = tmp_path / "f01.txt"
        path.write_text("bad line\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_label_file(path, META_100, strict=True)

    def test_warning_text_names_the_line_once(self, tmp_path):
        path = tmp_path / "labels" / "f0.txt"
        path.parent.mkdir()
        path.write_text(
            "0 0.1 0.1 0.2 0.1 0.2 0.2 0.1 0.2\n"
            "oops\n"
            "\n"
            "0 0.1 0.1 0.2 0.2 0.2 0.1 0.1 0.2\n"  # bow-tie: kept and flagged
            "0 0.1 0.1 0.2 0.1 0.2 0.2 0.1 1.5\n",
            encoding="utf-8",
        )
        warnings: list[str] = []
        stats: dict = {}
        gts = read_label_file(path, META_100, warnings=warnings, stats=stats)
        assert [gt.degenerate for gt in gts] == [False, True]
        assert warnings == [
            f"{path}:2: skipped: expected 9 fields, got 1",
            f"{path}:4: degenerate quad flagged",
            f"{path}:5: skipped: coordinate 1.5 outside [0, 1]",
        ]
        assert stats == {"skipped": 2}
        with pytest.raises(ParseError, match=r"f0.txt: line 2: expected 9 fields, got 1$"):
            read_label_file(path, META_100, strict=True)

    def test_file_quads_match_the_scalar_reference(self, tmp_path):
        rng = np.random.default_rng(23)
        meta = FrameMeta(width=1280.0, height=720.0)
        lines = []
        for i in range(400):
            quad = random_convex_quad(rng, rng.uniform(0.2, 0.8, 2), rng.uniform(0.01, 0.2))
            if i % 3 == 0:
                quad = quad[rng.permutation(4)]  # shuffled vertices: some bow-ties
            lines.append(f"{i % 7} " + " ".join(format(v, ".9g") for v in np.clip(quad, 0.0, 1.0).reshape(-1)))
        path = tmp_path / "f.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        gts = read_label_file(path, meta)
        assert len(gts) == len(lines)
        for line, gt in zip(lines, gts):
            raw = np.array([float(t) for t in line.split()[1:]]).reshape(4, 2) * (meta.width, meta.height)
            quad, degenerate = normalize_quad_reference(raw)
            assert gt.quad.tobytes() == quad.tobytes()
            assert gt.degenerate == degenerate
            one = parse_obb_label_line(line, meta)
            assert one.quad.tobytes() == gt.quad.tobytes() and one.degenerate == gt.degenerate


class TestByteOrderMark:
    """Every text reader drops a UTF-8 byte-order mark at the start of its file; a U+FEFF anywhere else stays a fault."""

    BOM = "\ufeff"

    def test_label_file(self, tmp_path):
        root = _make_split(tmp_path, ["f001"])
        path = root / "test" / "labels" / "f001.txt"
        line = path.read_text(encoding="utf-8")
        path.write_text(self.BOM + line + self.BOM + line, encoding="utf-8")
        warnings: list[str] = []
        labels = read_split_labels(root / "test", META_100, warnings=warnings)
        assert (labels.classes.tolist(), labels.line_nos.tolist(), labels.n_skipped) == ([0], [1], 1)
        assert warnings == [f"{path}:2: skipped: class id must be an integer, got '\\ufeff0'"]

    def test_class_map(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text(self.BOM + "acme\nglobex\n", encoding="utf-8")
        assert load_class_map(path).names == ("acme", "globex")

    @pytest.mark.parametrize("chunk_lines", [1, 2])  # the second line starts a chunk, or lies inside the first
    def test_detection_stream(self, tmp_path, chunk_lines):
        line = detection_line("v", 0, 0, quad_from_rect(50, 50, 20, 10, 0), 0.9)
        path = tmp_path / "stream.jsonl"
        path.write_text(self.BOM + line + "\n" + self.BOM + line + "\n", encoding="utf-8")
        chunks = [read_detection_range(path, *span) for span in line_ranges(path, chunk_lines)]
        assert [v for c in chunks for v in c.video_ids] == ["v"]
        assert [w for c in chunks for w in c.warnings] == [
            "line 2: skipped: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        ]


class TestReportTables:
    FIELDS = ["brand_id", "exposure_s", "note"]

    def test_csv_round_trip(self, tmp_path):
        rows = [
            {"brand_id": 3, "exposure_s": 1.52, "note": 'say "hi", ok'},
            {"brand_id": 1, "exposure_s": 0.1 + 0.2, "note": ""},
        ]
        path = tmp_path / "report.csv"
        write_table(path, self.FIELDS, rows, "csv")
        header, parsed = read_table_csv(path)
        assert header == self.FIELDS
        assert parsed[0]["note"] == 'say "hi", ok'
        assert float(parsed[1]["exposure_s"]) == 0.1 + 0.2  # repr round-trips exactly
        assert int(parsed[0]["brand_id"]) == 3

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(path, self.FIELDS, [], "csv")
        assert path.read_text() == "brand_id,exposure_s,note\n"
        assert read_table_csv(path) == (self.FIELDS, [])

    def test_reader_rejects_a_csv_without_header(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_table_csv(path)

    def test_json_rows(self, tmp_path):
        path = tmp_path / "report.json"
        write_table(path, self.FIELDS, [{"brand_id": 1, "exposure_s": 2.0, "note": None}], "json")
        payload = json.loads(path.read_text())
        assert payload == [{"brand_id": 1, "exposure_s": 2.0, "note": None}]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_write_the_bytes_of_rows(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr("obbkit.formats.TABLE_BLOCK_ROWS", 7)  # rows span several blocks
        rng = np.random.default_rng(5)
        notes = ['say "hi", ok', "", "caf\u00e9 \u2603", None, "line\nbreak", "50%", "plain"]
        columns = {
            "brand_id": rng.integers(0, 2**40, 40),
            "exposure_s": rng.random(40) * 10.0 ** rng.integers(-20, 20, 40),
            "note": [notes[i % len(notes)] for i in range(40)],
        }
        odd = {"brand_id": np.arange(3), "exposure_s": np.array([np.nan, np.inf, -0.0]), "note": [True, 1.5, 7]}
        for i, cols in enumerate([columns, odd, {k: [] for k in self.FIELDS}]):
            values = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols.values()]
            as_rows = [dict(zip(cols, row)) for row in zip(*values)]
            want, by_rows, by_cols = (tmp_path / f"{name}{i}.{fmt}" for name in ("want", "rows", "cols"))
            write_table_reference(want, self.FIELDS, as_rows, fmt)
            write_table(by_rows, self.FIELDS, as_rows, fmt)
            write_table(by_cols, self.FIELDS, cols, fmt)
            assert by_rows.read_bytes() == want.read_bytes()
            assert by_cols.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_bounded_by_a_block(self, tmp_path, fmt):
        n = 200_000
        rng = np.random.default_rng(3)
        columns = {"brand_id": np.arange(n) % 64, "frame_index": np.arange(n) * 7, "coverage": rng.random(n)}
        path = tmp_path / f"timeline.{fmt}"
        _, peak = traced_peak(lambda: write_table(path, list(columns), columns, fmt))
        assert path.stat().st_size > 5 * 2**20
        assert peak < 4 * 2**20  # the cells of 65,536 rows at once took about 23 MiB

    def test_deterministic_bytes(self, tmp_path):
        rows = [{"brand_id": i, "exposure_s": i * 0.1, "note": "x"} for i in range(20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(p1, self.FIELDS, rows, "csv")
        write_table(p2, self.FIELDS, rows, "csv")
        assert p1.read_bytes() == p2.read_bytes()
