"""Tests of the benchmark's own code: generators, layer wrappers and self-time arithmetic.

Run with: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

SMALL = {
    "dense-stream": dict(n_frames=30, dets_per_frame=7),
    "sparse-long": dict(n_frames=5_000, n_brands=4, bursts_per_brand=3, mean_run=20.0),
    "labeled-split": dict(n_images=6, gt_per_image=4, preds_per_image=8),
}


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _generate(tmp_path: Path, workload: str, seed: int, tag: str) -> tuple[str, dict]:
    out = tmp_path / f"{workload}-{tag}"
    out.mkdir()
    tallies = gen.GENERATORS[workload](out, seed, **SMALL[workload])
    return _digest(out), tallies


@pytest.mark.parametrize("workload", list(gen.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    first, tallies = _generate(tmp_path, workload, 5, "a")
    again, tallies_again = _generate(tmp_path, workload, 5, "b")
    other, _ = _generate(tmp_path, workload, 6, "c")
    assert first == again and tallies == tallies_again
    assert other != first


def test_dense_stream_matches_the_test_suite_generator(tmp_path):
    spec = importlib.util.spec_from_file_location("obbkit_tests_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    conftest.make_synthetic_stream(tmp_path / "expected.jsonl", 30, 7, 1234)
    gen.gen_dense_stream(tmp_path, 1234, n_frames=30, dets_per_frame=7)
    assert (tmp_path / "detections.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_sparse_tallies_count_the_injected_malformed_lines(tmp_path):
    tallies = gen.gen_sparse_long(tmp_path, 3, **SMALL["sparse-long"])
    lines = (tmp_path / "detections.jsonl").read_text().splitlines()
    assert tallies["records_total"] == len(lines)
    assert tallies["records_skipped"] == round(gen.SPARSE_MALFORMED_RATE * len(lines)) > 0


def test_split_labels_lie_in_unit_square(tmp_path):
    gen.gen_labeled_split(tmp_path, 3, **SMALL["labeled-split"])
    labels = (tmp_path / "split" / "labels").iterdir()
    values = [float(v) for p in labels for line in p.read_text().splitlines() for v in line.split()[1:]]
    assert values and min(values) >= 0.0 and max(values) <= 1.0


def _module_state():
    import obbkit
    from obbkit import cli, errors, evaluation, formats, geometry, losses, metrics, pipeline, tightness

    mods = (obbkit, cli, errors, evaluation, formats, geometry, losses, metrics, pipeline, tightness)
    return {m.__name__: dict(vars(m)) for m in mods}


def test_wrappers_restore_every_obbkit_attribute(tmp_path):
    from obbkit import cli

    stream = tmp_path / "stream"
    split = tmp_path / "split"
    stream.mkdir()
    split.mkdir()
    gen.gen_dense_stream(stream, 2, n_frames=10, dets_per_frame=4)
    gen.gen_labeled_split(split, 2, **SMALL["labeled-split"])
    commands = [c for cmds in run.WORKLOADS.values() for c in cmds if c.jobs == 1]

    before = _module_state()
    tracer = layertrace.Tracer()
    with layertrace.traced(tracer), contextlib.redirect_stdout(io.StringIO()):
        for i, cmd in enumerate(commands):
            inputs = stream if cmd.kind == "analyze" else split
            assert cli.main(cmd.argv(inputs, tmp_path / f"out{i}")) == 0
    after = _module_state()

    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert attrs.keys() == after[name].keys(), name
        changed = [k for k in attrs if attrs[k] is not after[name][k]]
        assert changed == [], f"{name}: {changed}"
    summary = tracer.summary()
    assert summary["calls"]["formats.decode"]["count"] > 0
    assert summary["calls"]["geometry.iou_obb"]["count"] > 0
    assert summary["calls"]["tightness.tr_sample"]["count"] > 0
    assert summary["counters"]["pipeline.chunks"] == 2  # sparse flags and dense: one chunk each


def test_wrappers_restore_attributes_when_the_block_raises():
    before = _module_state()
    with pytest.raises(RuntimeError):
        with layertrace.traced(layertrace.Tracer()):
            raise RuntimeError("boom")
    after = _module_state()
    assert all(before[n][k] is after[n][k] for n in before for k in before[n])


def test_self_time_with_overlapping_children():
    S = layertrace.Span
    spans = [
        S("root", 0.0, 10.0, None, calls_s=1.0),  # children cover [1, 6] and [7, 8]; 1 s of direct calls
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
        S("c", 7.0, 8.0, 0),
        S("a1", 2.0, 3.5, 1),
        S("a2", 3.0, 3.8, 1),  # overlaps a1 on [3, 3.5]
        S("spill", 5.0, 7.0, 2),  # runs past its parent's end: only [5, 6] counts against b
    ]
    got = layertrace.self_times(spans)
    want = [10.0 - 6.0 - 1.0, 3.0 - 1.8, 3.0 - 1.0, 1.0, 1.5, 0.8, 2.0]
    assert got == pytest.approx(want)


def test_call_self_time_excludes_nested_calls():
    ticks = iter(range(100))
    tracer = layertrace.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.call("inner", lambda: None)
    outer = tracer.call("outer", lambda: inner())
    tracer.span("top", outer)()
    summary = tracer.summary()
    # clock reads: top opens 0, outer starts 1, inner 2..3, outer ends 4, top closes 5
    assert summary["calls"]["inner"] == {"count": 1, "busy_s": 1.0, "self_s": 1.0}
    assert summary["calls"]["outer"] == {"count": 1, "busy_s": 3.0, "self_s": 2.0}
    assert summary["spans"]["top"] == {"count": 1, "busy_s": 5.0, "self_s": 2.0}



def test_cache_reuses_an_entry_until_the_generator_changes(tmp_path, monkeypatch):
    calls = []

    def fake(out, seed):
        calls.append(seed)
        (out / "data").write_text(str(seed))
        return {"seed": seed}

    monkeypatch.setitem(gen.GENERATORS, "dense-stream", fake)
    first, tallies = gen.cached_inputs(tmp_path, "dense-stream", 4)
    again, _ = gen.cached_inputs(tmp_path, "dense-stream", 4)
    assert first == again and tallies == {"seed": 4} and calls == [4]
    monkeypatch.setattr(gen, "SOURCE_DIGEST", "changed")
    fresh, _ = gen.cached_inputs(tmp_path, "dense-stream", 4)
    assert fresh != first and calls == [4, 4]


def test_report_comparison_sees_files_only_one_run_wrote(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "brand_exposure.csv").write_text("same")
        (d / "run_report.json").write_text(str(d))  # carries a duration: never compared
    assert run.reports_identical(a, b) == []
    (b / "extra.json").write_text("{}")
    assert run.reports_identical(a, b) == ["extra.json differs between a and b"]


def test_throughputs_report_the_slowest_pass_and_the_rest_the_median():
    assert run.reported("pass_rec_per_s", [3.0, 1.0, 2.0]) == 1.0
    assert run.reported("slowest_cmd_rec_per_s", [3.0, 1.0, 2.0]) == 1.0
    assert run.reported("peak_rss_mb", [3.0, 1.0, 2.0]) == 2.0
