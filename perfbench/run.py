"""Benchmark of obbkit's data-sized commands: analyze, evaluate and fit.

Usage:
    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

One run generates the workload's inputs from the seed (cached per
workload and seed under ``.perfbench/``), then runs the workload's CLI
commands one after another, each in a fresh interpreter (a closed loop
with one client, at most ``--jobs 2``), until ``--seconds`` have passed.
Every command's outputs are checked against the generator's tallies and,
for the reference seed, against stored headline values.  The run prints
each metric with unit, reported value (a throughput's slowest pass, else
the median), median, spread and sample count, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
jobs=1 command once untraced and once with the layer wrappers of
``layertrace`` installed, and reports the per-layer metrics, including
the tracing overhead.  The exit code is 0 when every check passed, 1
when one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))  # workload and metric names, units

DEFAULT_SEED = 1234
SETUP_REPEATS = 5
RUN_BUDGET_S = 170  # every child is killed by then, so a run ends within 180 s
REFERENCE_TOL = 1e-9
MIB = 1024.0


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    metric: str  # end-to-end throughput name, e.g. analyze_j1_det_per_s
    unit: str
    kind: str  # analyze | evaluate | fit
    jobs: int
    argv: Callable[[Path, Path], list[str]]  # (inputs dir, output dir) -> CLI arguments

    def rate_records(self, tallies: dict) -> int:
        """Records the command's own throughput counts: detections, predictions or boxes."""
        if self.kind == "analyze":
            return tallies["records_total"]
        if self.kind == "evaluate":
            return tallies["predictions_parsed"]
        return tallies["predictions_parsed"] + tallies["ground_truth_parsed"]

    def input_records(self, tallies: dict) -> int:
        """Input records the command reads: stream lines, or labels plus predictions."""
        if self.kind == "analyze":
            return tallies["records_total"]
        return tallies["predictions_parsed"] + tallies["ground_truth_parsed"]


def _analyze(jobs: int, *extra: str) -> Command:
    def argv(inp: Path, out: Path) -> list[str]:
        return [
            "analyze", "--detections", str(inp / "detections.jsonl"), "--meta", str(inp / "meta.json"),
            "--jobs", str(jobs), "--out", str(out), *extra,
        ]  # fmt: skip

    return Command(f"analyze_j{jobs}_det_per_s", "det/s", "analyze", jobs, argv)


def _split(metric: str, unit: str, command: str, *extra: str) -> Command:
    def argv(inp: Path, out: Path) -> list[str]:
        return [
            command, "--labels", str(inp / "split"), "--detections", str(inp / "predictions.jsonl"),
            "--width", str(gen.WIDTH), "--height", str(gen.HEIGHT), "--out", str(out), *extra,
        ]  # fmt: skip

    return Command(metric, unit, "evaluate" if command == "evaluate" else "fit", 1, argv)


SPARSE_FLAGS = ("--min-run", "3", "--max-gap", "2", "--top-k", "10", "--format", "json")

# workload name -> its commands, in the order one pass runs them
WORKLOADS: dict[str, list[Command]] = {
    "dense-stream": [_analyze(1), _analyze(2)],
    "sparse-long": [_analyze(1, *SPARSE_FLAGS), _analyze(2, *SPARSE_FLAGS)],
    "labeled-split": [
        _split("evaluate_obb_pred_per_s", "pred/s", "evaluate", "--box-mode", "obb"),
        _split("evaluate_hbb_pred_per_s", "pred/s", "evaluate", "--box-mode", "hbb"),
        _split("fit_box_per_s", "box/s", "fit"),
    ],
}

# per-layer metric -> (end-to-end metric it should move, workload, workloads it should not move on)
PER_LAYER = {
    "cli.self_s": ("every command", "all workloads", "-"),
    "formats.decode_calls": ("analyze_j1_det_per_s", "dense-stream", "labeled-split"),
    "formats.decode_s": ("analyze_j1_det_per_s", "dense-stream", "labeled-split"),
    "formats.validate_s": ("analyze_j1_det_per_s", "dense-stream", "labeled-split"),
    "formats.iter_detections_s": ("evaluate_hbb_pred_per_s, fit_box_per_s", "labeled-split", "-"),
    "formats.read_label_file_s": ("evaluate_hbb_pred_per_s, fit_box_per_s", "labeled-split", "-"),
    "formats.write_s": ("analyze_j1_det_per_s", "sparse-long", "dense-stream"),
    "formats.bytes_written": ("analyze_j1_det_per_s", "sparse-long", "dense-stream"),
    "geometry.normalize_quad_calls": ("evaluate_*, fit_box_per_s", "labeled-split", "analyze workloads"),
    "geometry.normalize_quad_s": ("evaluate_*, fit_box_per_s", "labeled-split", "analyze workloads"),
    "geometry.normalize_quad_per_box": ("evaluate_*, fit_box_per_s", "labeled-split", "analyze workloads"),
    "geometry.iou_obb_calls": ("evaluate_obb_pred_per_s", "labeled-split", "analyze workloads"),
    "geometry.iou_obb_s": ("evaluate_obb_pred_per_s", "labeled-split", "analyze workloads"),
    "geometry.iou_nonzero_ratio": ("evaluate_obb_pred_per_s", "labeled-split", "analyze workloads"),
    "geometry.enclosing_hbb_calls": ("evaluate_hbb_pred_per_s", "labeled-split", "analyze workloads"),
    "geometry.enclosing_hbb_s": ("evaluate_hbb_pred_per_s", "labeled-split", "analyze workloads"),
    "geometry.clip_areas_to_rect_s": ("analyze_j1_det_per_s", "dense-stream", "labeled-split"),
    "geometry.clipped_quads": ("analyze_j1_det_per_s", "dense-stream", "labeled-split"),
    "geometry.degenerate_mask_s": ("analyze_j1_det_per_s", "dense-stream", "labeled-split"),
    "metrics.temporal_filter_s": ("analyze_j1_det_per_s, peak_rss_mb", "sparse-long", "dense-stream"),
    "metrics.aggregate_brand_s": ("analyze_j1_det_per_s", "sparse-long", "dense-stream"),
    "metrics.build_timeline_s": ("analyze_j1_det_per_s", "sparse-long", "dense-stream"),
    "metrics.timeline_rows": ("analyze_j1_det_per_s", "sparse-long", "dense-stream"),
    "pipeline.self_s": ("analyze_j1_det_per_s, analyze_j2_det_per_s", "sparse-long", "labeled-split"),
    "pipeline.chunks": ("analyze_j2_det_per_s", "dense-stream", "labeled-split"),
    "pipeline.parent_cpu_s": ("analyze_j2_det_per_s", "dense-stream", "labeled-split"),
    "pipeline.worker_cpu_s": ("analyze_j2_det_per_s", "dense-stream", "labeled-split"),
    "pipeline.j2_speedup": ("analyze_j2_det_per_s", "dense-stream", "labeled-split"),
    "evaluation.match_frame_calls": ("evaluate_*", "labeled-split", "analyze workloads"),
    "evaluation.match_frame_self_s": ("evaluate_*", "labeled-split", "analyze workloads"),
    "evaluation.average_precision_s": ("evaluate_*", "labeled-split", "analyze workloads"),
    "tightness.tr_sample_calls": ("fit_box_per_s", "labeled-split", "evaluate commands"),
    "tightness.tr_sample_self_s": ("fit_box_per_s", "labeled-split", "evaluate commands"),
    "trace.overhead_s": ("nothing: traced minus untraced jobs=1 wall", "all workloads", "-"),
}

# ---------------------------------------------------------------------------
# output checks


def _read_rows(path: Path) -> list[dict]:
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(name: str, got: float, want: float) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= REFERENCE_TOL):
        return [f"{name} = {got!r}, reference {want!r}"]
    return []


def _check_counts(counts: dict, expected: dict) -> list[str]:
    return [
        f"counts.{key} = {counts.get(key)!r}, generator says {want!r}"
        for key, want in expected.items()
        if counts.get(key) != want
    ]


def check_outputs(cmd: Command, out: Path, tallies: dict, ref: dict | None) -> tuple[dict, list[str]]:
    """Check one command's reports; returns (run report counts, problems)."""
    report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
    counts, summary = report["counts"], report["summary"]
    if cmd.kind == "analyze":
        problems = _check_counts(
            counts, {k: tallies[k] for k in ("records_total", "records_skipped", "records_below_confidence")}
        )
        rows = _read_rows(Path(report["outputs"][0]))
        per_brand = {str(int(r["brand_id"])): int(r["detection_count"]) for r in rows}
        if per_brand != tallies["detection_count"]:
            problems.append("per-brand detection_count differs from the generator's tallies")
        if ref is not None:
            exposure = {str(int(r["brand_id"])): float(r["exposure_s"]) for r in rows}
            if exposure.keys() != ref["exposure_s"].keys():
                problems.append("brands with exposure differ from the reference")
            for brand, want in ref["exposure_s"].items():
                problems += _close(f"exposure_s[{brand}]", exposure.get(brand, math.nan), want)
        return counts, problems

    if cmd.kind == "evaluate":
        problems = _check_counts(
            counts,
            {
                "ground_truth_parsed": tallies["ground_truth_parsed"],
                "ground_truth_skipped": tallies["labels_invalid"],
                "predictions_parsed": tallies["predictions_parsed"],
                "predictions_skipped": 0,
            },
        )
        for key in ("map50", "precision", "recall"):
            value = summary.get(key)
            if not (isinstance(value, float) and 0.0 <= value <= 1.0):
                problems.append(f"summary.{key} = {value!r} is not in [0, 1]")
            elif ref is not None:
                problems += _close(f"summary.{key}", value, ref[cmd.metric][key])
        return counts, problems

    problems = _check_counts(
        counts,
        {"gt_samples": tallies["ground_truth_parsed"], "pred_samples": tallies["predictions_parsed"]},
    )
    gaps = summary.get("overall_mean_abs_gap", {})
    if sorted(gaps) != ["15", "5"] or not all(isinstance(v, float) and math.isfinite(v) for v in gaps.values()):
        problems.append(f"summary.overall_mean_abs_gap = {gaps!r}")
    elif ref is not None:
        for tag, want in ref[cmd.metric].items():
            problems += _close(f"overall_mean_abs_gap[{tag}]", gaps[tag], want)
    return counts, problems


def reports_identical(out_a: Path, out_b: Path) -> list[str]:
    """Payload reports of two runs must be byte-identical (run_report.json carries a duration)."""
    names = {p.name for p in out_a.iterdir()} | {p.name for p in out_b.iterdir()}
    names.discard("run_report.json")
    problems = []
    for name in sorted(names):
        path_a, path_b = out_a / name, out_b / name
        if not (path_a.is_file() and path_b.is_file() and path_a.read_bytes() == path_b.read_bytes()):
            problems.append(f"{name} differs between {out_a.name} and {out_b.name}")
    return problems


# ---------------------------------------------------------------------------
# measurement


def _run_child(args: list[str], deadline: float) -> tuple[int, str]:
    """Run a child interpreter in its own session; kill the session at ``deadline`` (monotonic)."""
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return -1, f"killed at the run's {RUN_BUDGET_S} s deadline\n{err}"
    return proc.returncode, err


def measure_setup(repeats: int, deadline: float) -> list[float]:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import obbkit.cli; obbkit.cli.build_parser()"
    _run_child(["-c", code], deadline)  # warm-up: writes the bytecode cache a user's first call would write
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rc, err = _run_child(["-c", code], deadline)
        samples.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"importing obbkit.cli failed:\n{err}")
    return samples


@dataclass
class Outcome:
    cmd: Command
    out: Path
    result: dict | None  # child measurements; None when the child itself failed
    counts: dict
    problems: list[str]


@dataclass
class Context:
    inputs: Path
    work: Path
    tallies: dict
    ref: dict | None  # headline reference values, for the reference seed only
    deadline: float  # time.monotonic() by which every child must have ended


def run_command(cmd: Command, ctx: Context, out: Path, trace: bool) -> Outcome:
    if out.exists():
        shutil.rmtree(out)
    result_path = out.with_name(out.name + ".result.json")
    result_path.unlink(missing_ok=True)
    flags = ["--result", str(result_path), *(["--trace"] if trace else [])]
    child = [str(CHILD), *flags, "--", *cmd.argv(ctx.inputs, out)]
    rc, err = _run_child(child, ctx.deadline)
    if rc != 0 or not result_path.is_file():
        return Outcome(cmd, out, None, {}, [f"benchmark child exited {rc}: {err.strip()[-2000:]}"])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        return Outcome(cmd, out, result, {}, [f"obbkit exited {result['rc']}: {err.strip()[-2000:]}"])
    try:
        counts, problems = check_outputs(cmd, out, ctx.tallies, ctx.ref)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        counts, problems = {}, [f"reports unreadable: {exc!r}"]
    return Outcome(cmd, out, result, counts, problems)


def run_pass(commands: list[Command], ctx: Context, trace: bool, tag: str) -> list[Outcome]:
    """Run each command once; analyze at jobs=2 must reproduce jobs=1 byte for byte."""
    outcomes = []
    for cmd in commands:
        o = run_command(cmd, ctx, ctx.work / f"{tag}-{cmd.metric}", trace)
        if cmd.kind == "analyze" and cmd.jobs > 1 and outcomes and not outcomes[0].problems and not o.problems:
            o.problems += reports_identical(outcomes[0].out, o.out)
        outcomes.append(o)
    return outcomes


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def _boxes_ingested(o: Outcome) -> int:
    c = o.counts
    if o.cmd.kind == "analyze":
        return c.get("records_accepted", 0)
    if o.cmd.kind == "evaluate":
        return c.get("ground_truth_parsed", 0) + c.get("predictions_parsed", 0)
    return c.get("gt_samples", 0) + c.get("pred_samples", 0)


def layer_metrics(traced: list[Outcome], untraced: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over the workload's jobs=1 commands."""

    def total(kind: str, name: str, field: str) -> float:
        return sum(o.result["trace"][kind].get(name, {}).get(field, 0) for o in traced)

    def counter(name: str) -> float:
        return sum(o.result["trace"]["counters"].get(name, 0) for o in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    analyze = [o for o in traced if o.cmd.kind == "analyze"]
    nq_calls = total("calls", "geometry.normalize_quad", "count")
    iou_calls = total("calls", "geometry.iou_obb", "count")
    j1 = [o.result["wall_s"] for o in untraced if o.cmd.kind == "analyze" and o.cmd.jobs == 1]
    j2 = [o for o in untraced if o.cmd.kind == "analyze" and o.cmd.jobs == 2]
    untraced_j1 = sum(o.result["wall_s"] for o in untraced if o.cmd.jobs == 1)
    return {
        "cli.self_s": total("spans", "cli.main", "self_s"),
        "formats.decode_calls": total("calls", "formats.decode", "count"),
        "formats.decode_s": total("calls", "formats.decode", "busy_s"),
        "formats.validate_s": total("calls", "formats.validate", "busy_s"),
        "formats.iter_detections_s": total("spans", "formats.iter_detections", "self_s"),
        "formats.read_label_file_s": total("spans", "formats.read_label_file", "self_s"),
        "formats.write_s": total("spans", "formats.write_table", "busy_s"),
        "formats.bytes_written": counter("formats.bytes_written"),
        "geometry.normalize_quad_calls": nq_calls,
        "geometry.normalize_quad_s": total("calls", "geometry.normalize_quad", "busy_s"),
        "geometry.normalize_quad_per_box": ratio(nq_calls, sum(_boxes_ingested(o) for o in traced)),
        "geometry.iou_obb_calls": iou_calls,
        "geometry.iou_obb_s": total("calls", "geometry.iou_obb", "self_s"),
        "geometry.iou_nonzero_ratio": ratio(counter("geometry.iou_nonzero"), iou_calls),
        "geometry.enclosing_hbb_calls": total("calls", "geometry.enclosing_hbb", "count"),
        "geometry.enclosing_hbb_s": total("calls", "geometry.enclosing_hbb", "busy_s"),
        "geometry.clip_areas_to_rect_s": total("spans", "geometry.clip_areas_to_rect", "busy_s"),
        "geometry.clipped_quads": counter("geometry.clipped_quads"),
        "geometry.degenerate_mask_s": total("spans", "geometry.degenerate_mask", "busy_s"),
        "metrics.temporal_filter_s": total("spans", "metrics.temporal_filter", "busy_s"),
        "metrics.aggregate_brand_s": total("spans", "metrics.aggregate_brand", "busy_s"),
        "metrics.build_timeline_s": total("spans", "metrics.build_timeline", "busy_s"),
        "metrics.timeline_rows": counter("metrics.timeline_rows"),
        "pipeline.self_s": sum(o.result["trace"]["spans"]["pipeline.run_analyze"]["self_s"] for o in analyze),
        "pipeline.chunks": counter("pipeline.chunks"),
        "pipeline.parent_cpu_s": sum(o.result["cpu_self_s"] for o in j2),
        "pipeline.worker_cpu_s": sum(o.result["cpu_children_s"] for o in j2),
        "pipeline.j2_speedup": ratio(sum(j1), sum(o.result["wall_s"] for o in j2)),
        "evaluation.match_frame_calls": total("calls", "evaluation.match_frame", "count"),
        "evaluation.match_frame_self_s": total("calls", "evaluation.match_frame", "self_s"),
        "evaluation.average_precision_s": total("spans", "evaluation.average_precision", "busy_s"),
        "tightness.tr_sample_calls": total("calls", "tightness.tr_sample", "count"),
        "tightness.tr_sample_self_s": total("calls", "tightness.tr_sample", "self_s"),
        "trace.overhead_s": sum(o.result["wall_s"] for o in traced) - untraced_j1,
    }


def _is_count(name: str, unit: str) -> bool:
    return unit in ("count", "bytes", "ratio") and name != "pipeline.j2_speedup"


# ---------------------------------------------------------------------------
# machine stamp


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_stamp(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# entry point


# Throughputs report a run's slowest pass, not its median pass.  On a shared
# 2-core Xeon VM some passes ran up to 40 % faster than the rest; across three
# sets of ten seeds on sparse-long, the slowest pass spread 0.04-0.08 between
# runs where the median pass spread 0.07-0.20.  On the other workloads the two
# spread alike.
SLOWEST_PASS = {"pass_rec_per_s", "slowest_cmd_rec_per_s"}


def reported(name: str, values: list[float]) -> float:
    return min(values) if name in SLOWEST_PASS else statistics.median(values)


def _fmt(name: str, unit: str, values: list[float], note: str) -> str:
    med = statistics.median(values)
    head = f"  {name:34s} {unit:7s} value={reported(name, values):<14.6g} median={med:<14.6g}"
    return f"{head} spread={spread(values):<7.3f} n={len(values):<3d} {note}"


def _end_to_end(passes: list[list[Outcome]], setup: list[float], tallies: dict) -> dict[str, list[float]]:
    return {
        # fresh interpreter to `import obbkit.cli` + `build_parser()`
        "setup_s": setup,
        # input records over the wall time of one pass of every command
        "pass_rec_per_s": [
            sum(o.cmd.input_records(tallies) for o in p) / sum(o.result["wall_s"] for o in p) for p in passes
        ],
        # the slowest command's input records over its own wall time, not diluted by the others
        "slowest_cmd_rec_per_s": [min(o.cmd.input_records(tallies) / o.result["wall_s"] for o in p) for p in passes],
        # largest parent-plus-worker peak RSS of a command
        "peak_rss_mb": [
            max((o.result["maxrss_self_kib"] + o.result["maxrss_children_kib"]) / MIB for o in p) for p in passes
        ],
    }


def _per_layer(pairs: list[tuple[list[Outcome], list[Outcome]]], problems: list[str]) -> dict[str, list[float]]:
    """Per-layer samples from (untraced pass, traced pass) pairs; counts must repeat exactly."""
    per_pass = [layer_metrics(traced, untraced) for untraced, traced in pairs]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    samples = {name: [p[name] for p in per_pass] for name in units}
    for name, values in samples.items():
        if _is_count(name, units[name]) and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
    if pairs:
        per_box = {
            o.cmd.metric: o.result["trace"]["calls"].get("geometry.normalize_quad", {}).get("count", 0)
            / max(1, _boxes_ingested(o))
            for o in pairs[0][1]
        }
        print(f"  normalize_quad calls per box ingested, by command: {json.dumps(per_box)}")
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    commands = WORKLOADS[workload]
    stamp = machine_stamp(workload, seed)
    print(f"== {workload} seed={seed} trace={int(trace)}  stamp: {json.dumps(stamp)}", flush=True)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref = reference["workloads"][workload] if seed == reference["seed"] else None

    t0 = time.perf_counter()
    inputs, tallies = gen.cached_inputs(WORK / "cache", workload, seed)
    print(f"  inputs ready in {time.perf_counter() - t0:.1f} s: {inputs.relative_to(ROOT)}", flush=True)
    problems = []  # failures that belong to no single command
    if ref is not None and "sha256" in ref:
        digest = hashlib.sha256((inputs / "detections.jsonl").read_bytes()).hexdigest()
        if digest != ref["sha256"]:
            problems.append(f"generated stream digest {digest} differs from the reference {ref['sha256']}")

    work = WORK / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(inputs, work, tallies, ref, deadline)
    setup = [] if trace else measure_setup(SETUP_REPEATS, deadline)
    passes: list[list[Outcome]] = []
    traced_passes: list[list[Outcome]] = []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass(commands, ctx, False, "plain"))
        if trace:
            traced_passes.append(run_pass([c for c in commands if c.jobs == 1], ctx, True, "traced"))
        now = time.perf_counter()
        longest = max(longest, now - t_pass)
        # stop when the next pass would overrun the run length or the deadline
        if now - t_start + longest > seconds or time.monotonic() + longest > deadline:
            break

    outcomes = [o for p in passes + traced_passes for o in p]
    attempted, failed = len(outcomes), sum(1 for o in outcomes if o.problems)
    for o in outcomes:
        for problem in o.problems:
            print(f"  CHECK FAILED [{o.cmd.metric}] {problem}", flush=True)
    print(f"  commands attempted={attempted} failed={failed} failed_ops_ratio={failed / attempted:.6g}")
    clean = [
        (p, tp) for p, tp in zip_longest(passes, traced_passes, fillvalue=[]) if not any(o.problems for o in p + tp)
    ]
    for cmd in commands:
        rates = [cmd.rate_records(tallies) / o.result["wall_s"] for p, _ in clean for o in p if o.cmd is cmd]
        if rates:
            print(_fmt(cmd.metric, cmd.unit, rates, "(per command, not gated)"))

    if trace:
        samples = _per_layer(clean, problems)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        notes = {
            name: f"-> {moves} on {on}" + (f"; not on {off}" if off != "-" else "")
            for name, (moves, on, off) in PER_LAYER.items()
        }
    else:
        measured = _end_to_end([p for p, _ in clean], setup, tallies)
        samples = {m["name"]: measured[m["name"]] for m in SPEC["end_to_end"]}
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        notes = {}
    for problem in problems:
        print(f"  CHECK FAILED [{workload}] {problem}", flush=True)
    metrics = {}
    for name, values in samples.items():
        if values:
            print(_fmt(name, units[name], values, notes.get(name, "")))
            metrics[name] = {"value": reported(name, values), "unit": units[name]}

    correct = failed == 0 and not problems and len(metrics) == len(samples)
    record = {"stamp": stamp, "correct": correct, "attempted": attempted, "failed": failed, "samples": samples}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*(w["name"] for w in SPEC["workloads"]), "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0, help="run length: passes stop before overrunning it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "obbkit" / "cli.py").is_file():
        print(f"error: obbkit sources not found under {SRC}", file=sys.stderr)
        return 2

    names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
