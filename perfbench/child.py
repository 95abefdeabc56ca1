"""Run one obbkit CLI command in this fresh interpreter and write its measurements as JSON.

Usage: python3 perfbench/child.py --result OUT.json [--trace] -- <obbkit arguments>

The command's own stdout (its run report) is discarded.  The result file
holds the exit code, wall time around ``obbkit.cli.main``, CPU time and
peak RSS of this process and of its worker processes, and with
``--trace`` the per-layer trace summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kib(usage) -> int:
    """This process's own RSS high-water mark.

    ``ru_maxrss`` survives exec, so in a child of a large parent it
    reports the parent's size; VmHWM belongs to this program's address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    from obbkit import cli

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        run = tracer.span("cli.main", cli.main)
        tracing = layertrace.traced(tracer)
    else:
        run = cli.main
        tracing = contextlib.nullcontext()

    self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    children0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), tracing:
        t0 = time.perf_counter()
        rc = run(argv)
        wall = time.perf_counter() - t0
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_self_s": _cpu(self_usage) - self0,
        "cpu_children_s": _cpu(children_usage) - children0,
        "maxrss_self_kib": _peak_rss_kib(self_usage),
        "maxrss_children_kib": children_usage.ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
