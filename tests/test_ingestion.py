"""Bulk detection ingestion against the line-at-a-time reference parser, and the byte-range reader."""

from __future__ import annotations

import gc
import json
import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit import formats
from obbkit.errors import ParseError
from obbkit.formats import ClassMap, FrameMeta, line_ranges, parse_detection_chunk, read_detection_range
from oracles import parse_detection_chunk_reference

BLOCK_SIZES = (1, 2, 1024)
CLASSES = ClassMap(("acme", "globex", "initech"))
META = FrameMeta(width=100.0, height=100.0, frame_count=50)
SQUARE = [[10.0, 10.0], [30.0, 10.0], [30.0, 20.0], [10.0, 20.0]]


def record(**fields) -> dict:
    return {"video_id": "v", "frame": 3, "class": 1, "poly": SQUARE, "conf": 0.75, **fields}


def outcome(parse, lines, class_map=None, meta=None) -> tuple:
    """Everything a parse returns, with the type of every cell, plus its strict-mode error."""
    chunk = parse(lines, 7, class_map, meta)
    try:
        parse(lines, 7, class_map, meta, strict=True)
        strict = None
    except ParseError as exc:
        strict = str(exc)
    cells = [list(map(repr, col)) for col in (chunk.video_ids, chunk.frames, chunk.classes, chunk.confs)]
    quads = (chunk.quads.dtype, chunk.quads.shape, chunk.quads.tobytes())
    return chunk.n_records, chunk.n_skipped, chunk.warnings, chunk.max_frame, cells, quads, strict


def assert_like_reference(lines, class_map=None, meta=None) -> tuple:
    """The reference's outcome, after checking that every block size gives it."""
    want = outcome(parse_detection_chunk_reference, lines, class_map, meta)
    for size in BLOCK_SIZES:
        with mock.patch.object(formats, "BULK_LINES", size):
            assert outcome(parse_detection_chunk, lines, class_map, meta) == want, f"block size {size}"
    return want


# A valid record is drawn first; most lines keep it, the rest break it in one way.
ODD_VALUES = {
    "video_id": [5, None, ["v"], {"v": 1}],
    "frame": [-1, 60, 2**63 - 1, 2**63, 10**30, True, 1.0, "3", None, {"f": 1}],
    "class": ["acme", "initech", "nope", -1, 3, 2**64, False, 1.5, None, [1]],
    "poly": [
        SQUARE[:3],
        SQUARE + [[0.0, 0.0]],
        [[10, 10], [30, 10], [30, 20], [10, 20]],
        [[10.0, 10.0, 1.0], [30.0], [30.0, 20.0], [10.0, 20.0]],
        [[10.0, 10.0], [30.0, 10.0], [30.0, math.nan], [10.0, 20.0]],
        [[10.0, 10.0], [30.0, math.inf], [30.0, 20.0], [10.0, 20.0]],
        [[10.0, 10.0], [30.0, 10**400], [30.0, 20.0], [10.0, 20.0]],
        [[10.0, 10.0], [30.0, 1e300], [30.0, 20.0], [10.0, 20.0]],
        [[-2 * 10**9, 10.0], [30.0, 10.0], [30.0, 20.0], [10.0, 20.0]],
        [[10.0, 10.0], [True, 10.0], [30.0, 20.0], [10.0, 20.0]],
        [[10.0, 10.0], ["30", 10.0], [30.0, 20.0], [10.0, None]],
        [[10.0, 10.0], {"x": 1, "y": 2}, [30.0, 20.0], [10.0, 20.0]],
        "abcd",
        {"a": 1, "b": 2, "c": 3, "d": 4},
        None,
    ],
    "conf": [0, 1, -0.1, 1.5, math.nan, math.inf, -math.inf, True, "0.5", None, 10**400],
}
FRAGMENTS = ["[1", "1],1", "[[", "]]],[1", '{"a": {"b": 1}', '"c": 2}', "{}", "[]", "5", '"s"', "null", "[{}]", "}", "{"]
BLANKS = ["", " ", "\t", "\xa0", "\u2028", "\x1c"]

names = st.sampled_from(list(ODD_VALUES))
coords = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 100.0))
polys = st.lists(st.lists(coords, min_size=2, max_size=2), min_size=4, max_size=4)
valid_records = st.builds(
    record,
    video_id=st.text(max_size=3),
    frame=st.integers(0, 60),
    **{"class": st.integers(0, 3)},
    poly=polys,
    conf=st.floats(0.0, 1.0),
)


@st.composite
def detection_lines(draw) -> str:
    rec = draw(valid_records)
    kind = draw(st.integers(0, 14))
    if kind == 6:
        name = draw(names)
        rec[name] = draw(st.sampled_from(ODD_VALUES[name]))
    elif kind == 7:
        del rec[draw(names)]
    elif kind == 8:
        rec[draw(st.sampled_from(["extra", "frame2"]))] = draw(st.sampled_from([{"nested": {"deep": 1}}, 1, [{}]]))
    text = json.dumps(rec, ensure_ascii=draw(st.booleans()))
    if kind == 9:  # duplicate key: the last one wins
        text = text[:-1] + ', "conf": ' + draw(st.sampled_from(["2.0", "0.5", "NaN"])) + "}"
    elif kind == 10:
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == 11:
        text = draw(st.sampled_from(FRAGMENTS))
    elif kind == 12:  # two records on one line
        text = text + draw(st.sampled_from([" ", ", ", ","])) + json.dumps(record())
    elif kind == 13:
        text = draw(st.sampled_from(BLANKS))
    elif kind == 14:
        text = "\ufeff" + text
    return text + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def streams(draw) -> list[str]:
    lines = [line + "\n" for line in draw(st.lists(detection_lines(), max_size=12))]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1][:-1]  # a final line without its end
    return lines


class TestBulkParserExactness:
    @settings(max_examples=300, deadline=None)
    @given(streams(), st.booleans(), st.booleans())
    def test_random_streams_match_the_reference(self, lines, with_map, with_meta):
        assert_like_reference(lines, CLASSES if with_map else None, META if with_meta else None)

    @pytest.mark.parametrize(
        "lines",
        [
            ["[1\n", "1],1\n"],
            ["[[\n", "]]],[1\n"],
            ["[1\n", "1],1\n", json.dumps(record()) + "\n"],
        ],
    )
    def test_lines_that_join_into_values(self, lines):
        want = assert_like_reference(lines)
        assert want[1] == len(lines) - (len(lines) == 3)

    def test_record_split_over_two_lines_beside_two_records_on_one(self):
        # every line ends in "}", and together they decode as three values for three lines
        head = '{"video_id": "v", "x": {"a": 1}'
        tail = '"frame": 0, "class": 0, "poly": [[0, 0], [10, 0], [10, 10], [0, 10]], "conf": 0.5}'
        pair = json.dumps(record(frame=1)) + ", " + json.dumps(record(frame=2))
        lines = [head + "\n", tail + "\n", pair + "\n", json.dumps(record()) + "\n"]
        assert json.loads("[" + "\n,".join(lines[:3]) + "\n]")[0]["frame"] == 0  # the joined decode succeeds
        want = assert_like_reference(lines)
        assert want[:2] == (4, 3) and all("invalid JSON" in w for w in want[2])

    def test_string_across_two_lines_beside_two_records_on_one(self):
        # without a newline between joined lines, "v}\n" + '", ...' would decode as one valid record
        head = '{"video_id": "v}'
        tail = '", "frame": 0, "class": 0, "poly": [[0, 0], [10, 0], [10, 10], [0, 10]], "conf": 0.5}'
        pair = json.dumps(record(frame=1)) + ", " + json.dumps(record(frame=2))
        lines = [head, tail, pair]
        assert len(json.loads("[" + ",".join(lines) + "]")) == 3
        for end in ("", "\n"):  # callers may pass lines without their ends
            assert assert_like_reference([line + end for line in lines])[:2] == (3, 3)

    def test_nested_dicts_in_valid_records_and_braces_in_strings(self):
        lines = [
            json.dumps(record(extra={"nested": {"deep": [1, {"x": 2}]}})) + "\n",
            json.dumps(record(video_id="{}{", frame=4)) + "\n",
            json.dumps(record(frame=5)) + "\n",
        ]
        assert assert_like_reference(lines)[:2] == (3, 0)

    def test_gc_state_is_restored(self):
        lines = [json.dumps(record()) + "\n", "{bad\n"]
        was_enabled = gc.isenabled()
        try:
            for enabled in (False, True):
                gc.enable() if enabled else gc.disable()
                parse_detection_chunk(lines, 1)
                assert gc.isenabled() is enabled
                with pytest.raises(ParseError):
                    parse_detection_chunk(lines, 1, strict=True)
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_overlong_integer_literal_is_a_skipped_line(self):
        lines = [json.dumps(record()) + "\n", '{"frame": 1' + "0" * 5000 + "}\n", json.dumps(record(frame=4)) + "\n"]
        for size in BLOCK_SIZES:
            with mock.patch.object(formats, "BULK_LINES", size):
                chunk = parse_detection_chunk(lines, 1)
                assert chunk.warnings == ["line 2: skipped: invalid JSON: integer literal too long"]
                assert (chunk.n_records, chunk.n_skipped, chunk.frames) == (3, 1, [3, 4])
                with pytest.raises(ParseError, match="^line 2: invalid JSON: integer literal too long$"):
                    parse_detection_chunk(lines, 1, strict=True)

    def test_line_nested_too_deep_after_a_bad_line(self):
        # the reference raises RecursionError here, so the outcome is pinned
        deep = "[" * 100_000 + "]" * 100_000
        lines = [json.dumps(record()), '{"broken', "[" * 100_000, '{"a": ' + deep + "}", json.dumps(record())]
        for size in BLOCK_SIZES:
            with mock.patch.object(formats, "BULK_LINES", size):
                chunk = parse_detection_chunk(lines, 1)
                assert chunk.warnings[1:] == [
                    "line 3: skipped: invalid JSON: nesting too deep",
                    "line 4: skipped: invalid JSON: nesting too deep",
                ]
                assert chunk.warnings[0].startswith("line 2: skipped: invalid JSON: Unterminated string")
                assert (chunk.n_records, chunk.n_skipped, chunk.frames) == (5, 3, [3, 3])
                with pytest.raises(ParseError, match="^line 2: invalid JSON: Unterminated string"):
                    parse_detection_chunk(lines, 1, strict=True)


# Text that splits into lines differently in text mode and under str.splitlines.
line_pieces = st.sampled_from(["a", "é", "\u2028", "\x1c", "\x85", "\x0b", "\r", "\n", "\r\n", "\n\r"])


class TestByteRanges:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(line_pieces, max_size=30).map("".join), st.integers(1, 4), st.integers(1, 6))
    def test_ranges_split_lines_as_text_mode(self, tmp_path_factory, text, n_lines, scan_bytes):
        path = tmp_path_factory.mktemp("ranges") / "stream.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            want = list(fh)
        got = []
        with mock.patch.object(formats, "SCAN_BYTES", scan_bytes), mock.patch.object(
            formats, "parse_detection_chunk", lambda lines, first_line_no, *args, **kwargs: (first_line_no, lines)
        ):
            for span in line_ranges(path, n_lines):
                first_line_no, lines = read_detection_range(path, *span)
                assert first_line_no == len(got) + 1 and len(lines) == span[1]
                assert len(lines) == n_lines or len(got) + len(lines) == len(want)
                got += lines
        assert got == want

    def test_invalid_utf8_flags_only_its_line(self, tmp_path):
        good = json.dumps(record(video_id="é")).encode()
        bad = json.dumps(record(frame=4)).encode().replace(b'"v"', b'"v\xff"')
        path = tmp_path / "stream.jsonl"
        path.write_bytes(b"\n".join([good, bad, b"\xe2\x82", good + b"\xc3"]) + b"\r\n" + good)
        chunks = [read_detection_range(path, *span) for span in line_ranges(path, 2)]
        assert [w for c in chunks for w in c.warnings] == [f"line {n}: skipped: invalid UTF-8" for n in (2, 3, 4)]
        assert [c.video_ids for c in chunks] == [["é"], [], ["é"]]
        with pytest.raises(ParseError, match="^line 2: invalid UTF-8$"):
            read_detection_range(path, *next(line_ranges(path, 2)), None, None, True)

    def test_range_reader_closes_its_file(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(json.dumps(record()) + "\n" + json.dumps(record(frame=4)) + "\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for span in line_ranges(path, 1):
                read_detection_range(path, *span)
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestPixelBound:
    NEAR_FLOAT_MAX = [[1e308, 1e308], [1.7e308, 1e308], [1.7e308, 1.7e308], [1e308, 1.7e308]]

    @pytest.mark.parametrize(
        "poly, reason",
        [
            (NEAR_FLOAT_MAX, "coordinate 1e+308 beyond the 1e+09 px bound"),
            ([[0, 0], [10, 0], [10, 1000000001], [0, 10]], "coordinate 1000000001 beyond the 1e+09 px bound"),
            ([[0.0, 0.0], [-1.5e9, 0.0], [10.0, 10.0], [0.0, 10.0]], "coordinate -1500000000.0 beyond the 1e+09 px bound"),
        ],
    )
    def test_coordinates_beyond_the_bound_are_skipped(self, poly, reason):
        lines = [json.dumps(record()) + "\n", json.dumps(record(poly=poly)) + "\n"]
        want = assert_like_reference(lines)
        assert want[:3] == (2, 1, [f"line 8: skipped: {reason}"])

    def test_coordinates_at_the_bound_are_kept(self):
        square = [[-1e9, -1e9], [1e9, -1e9], [1e9, 1e9], [-1e9, 1e9]]
        assert assert_like_reference([json.dumps(record(poly=square)) + "\n"])[:2] == (1, 0)
