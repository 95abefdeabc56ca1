"""Command-line interface: analyze, evaluate, fit and losscheck.

Exit codes: 0 success, 1 validation/configuration error, 2 data error
(strict mode), 3 internal error.  analyze, evaluate and fit print the
run report to stdout as JSON; losscheck prints one line per check
instead.  Every command writes the run report to
``<out>/run_report.json`` (losscheck only when given --out); payload
files are fully deterministic, while the run report carries the
wall-clock duration.  Set EXPOSURE_LOG=debug|info|warning|error for log
verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import pipeline
from .errors import ConfigError, ObbkitError
from .evaluation import INTERPOLATIONS
from .formats import FrameMeta, load_class_map, read_json_object
from .losses import LossParams

logger = logging.getLogger("obbkit")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap onto the documented contract
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _file(text: str) -> Path:
    """argparse type of an input file."""
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"file not found: {text}")
    return Path(text)


def _directory(text: str) -> Path:
    """argparse type of an input directory."""
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"directory not found: {text}")
    return Path(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--strict", action="store_true", help="escalate malformed records to a fatal error")


def _add_meta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--meta", type=_file, help="sidecar metadata JSON (video_id, width, height, fps, frame_count)")
    p.add_argument("--width", type=float, help="frame width in pixels (overrides --meta)")
    p.add_argument("--height", type=float, help="frame height in pixels (overrides --meta)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="obbkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="brand exposure metrics from a detection stream")
    p.add_argument("--detections", type=_file, required=True, help="JSON-lines detection file")
    p.add_argument("--classes", type=_file, help="class map file (one name per line)")
    _add_meta_flags(p)
    p.add_argument("--fps", type=float, help="frame rate (overrides --meta)")
    p.add_argument("--frames", type=int, help="frame count (overrides --meta)")
    p.add_argument("--conf-threshold", type=float, default=0.5, help="drop detections below this confidence")
    p.add_argument("--top-k", type=int, default=5, help="ranking length")
    p.add_argument("--min-run", type=int, default=1, help="suppress visible runs shorter than this many frames")
    p.add_argument("--max-gap", type=int, default=0, help="bridge invisible gaps up to this many frames")
    p.add_argument("--jobs", type=int, default=pipeline.default_jobs(), help="worker processes (does not change results)")
    _add_common(p)

    p = sub.add_parser("evaluate", help="mAP/precision/recall of predictions against a labeled split")
    p.add_argument("--labels", type=_directory, required=True, help="split directory containing images/ and labels/")
    p.add_argument("--detections", type=_file, required=True, help="JSON-lines predictions file")
    p.add_argument("--classes", type=_file, help="class map file")
    _add_meta_flags(p)
    p.add_argument("--iou-threshold", type=float, default=0.5, help="matching IoU threshold")
    p.add_argument("--box-mode", choices=("obb", "hbb"), default="obb", help="match on rotated or enclosing boxes")
    p.add_argument(
        "--conf-threshold",
        type=float,
        default=None,
        help="fixed P/R operating point (default: max-F1 point)",
    )
    p.add_argument("--interpolation", choices=INTERPOLATIONS, default="all_points", help="AP interpolation")
    _add_common(p)

    p = sub.add_parser("fit", help="tightness-ratio vs orientation analysis")
    p.add_argument("--labels", type=_directory, help="split directory containing images/ and labels/")
    p.add_argument("--detections", type=_file, help="JSON-lines predictions file")
    p.add_argument("--classes", type=_file, help="class map file")
    _add_meta_flags(p)
    p.add_argument("--bin-width", type=float, default=None, help="orientation bin width in degrees (default: emit 15 and 5)")
    _add_common(p)

    p = sub.add_parser("losscheck", help="run the loss fixture and gradient suite")
    p.add_argument("--gamma", type=float, default=None, help="override the focusing exponent")
    p.add_argument("--alpha", type=float, default=None, help="override the negative-weight scale")
    p.add_argument("--lambda-box", type=float, default=None)
    p.add_argument("--lambda-cls", type=float, default=None)
    p.add_argument("--lambda-dfl", type=float, default=None)
    p.add_argument("--params", type=_file, help="JSON file with loss parameters")
    p.add_argument("--out", type=Path, default=None, help="directory for the JSON report (optional)")
    return parser


def _resolve_meta(args, require_dims: bool) -> FrameMeta | None:
    fields = dataclasses.asdict(FrameMeta.from_json_file(args.meta)) if args.meta is not None else {}
    fields.update((name, getattr(args, flag)) for flag, name in _META_FLAGS.items() if getattr(args, flag, None) is not None)
    if "width" not in fields or "height" not in fields:
        if require_dims:
            raise ConfigError("frame dimensions required: pass --meta or --width/--height")
        return None
    return FrameMeta(**fields)


def _config_echo(args) -> dict:
    return {k: str(v) if isinstance(v, Path) else v for k, v in sorted(vars(args).items()) if k != "command"}


def _loss_params(args) -> LossParams:
    names = [f.name for f in dataclasses.fields(LossParams)]
    values = {}
    if args.params is not None:
        loaded = read_json_object(args.params, "loss parameter", ConfigError)
        unknown = set(loaded) - set(names)
        if unknown:
            raise ConfigError(f"unknown loss parameters {sorted(unknown)}")
        values.update(loaded)
    values.update((name, getattr(args, name)) for name in names if getattr(args, name) is not None)
    return LossParams(**values)


def _setup_logging() -> None:
    level_name = os.environ.get("EXPOSURE_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


_CONFIG_NAMES = {"format": "fmt", "out": "out_dir", "labels": "labels_dir"}  # flag -> config field
_META_FLAGS = {"width": "width", "height": "height", "fps": "fps", "frames": "frame_count"}  # flag -> FrameMeta field
_CONFIGS = {
    "analyze": pipeline.AnalyzeConfig,
    "evaluate": pipeline.EvaluateConfig,
    "fit": pipeline.FitConfig,
    "losscheck": pipeline.LossCheckConfig,
}


def _config(cls, args, **computed):
    """A command config from the flags named like its fields, plus the ``computed`` fields."""
    names = {f.name for f in dataclasses.fields(cls)} - computed.keys()
    flags = {_CONFIG_NAMES.get(k, k): v for k, v in vars(args).items()}
    return cls(**{k: v for k, v in flags.items() if k in names}, **computed)


def _dispatch(args) -> int:
    if args.command == "losscheck":
        computed = {"params": _loss_params(args)}
    else:
        meta = _resolve_meta(args, require_dims=args.command != "fit" or args.labels is not None)
        computed = {"meta": meta, "class_map": None if args.classes is None else load_class_map(args.classes)}
    cfg = _config(_CONFIGS[args.command], args, **computed)
    run = getattr(pipeline, f"run_{args.command}")  # looked up per call: the benchmark's layer tracer patches it
    report = run(cfg, _config_echo(args))
    if args.command != "losscheck":
        print(json.dumps(report.to_payload(), indent=2))
        return EXIT_OK
    for check in report.summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"[{status}] {check['name']}: expected {check['expected']:.12g}, "
            f"actual {check['actual']:.12g} (tol {check['tol']:g})"
        )
    if report.counts["checks_failed"]:
        failed = [c["name"] for c in report.summary["checks"] if not c["passed"]]
        print(f"losscheck failed: {len(failed)} fixture(s): {', '.join(failed)}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ObbkitError as exc:  # DataError, ParseError, GeometryError
        logger.error("data error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - exit-code contract for internal errors
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
