#!/usr/bin/env python3
"""Certification benchmark for hamvt: one workload per process.

Run from the repository root, one process per workload:

    python3 bench/run.py --workload cascade --seed 1 --seconds 30 --trace 0

Workloads: cascade, search_found, search_none, field (see README.md).
The process imports ``hamvt`` from ``src/`` next to this directory,
builds the seeded inputs several times (``setup_s`` is the median), then
runs closed-loop passes over the workload's task list until ``--seconds``
would be exceeded, checking every output.  ``--trace 1`` adds one traced
set-up and pass after the untraced passes and reports per-layer metrics.

Standard output ends with a report line ({"report": ...}: environment,
seed, every metric with its unit, failures) and then the result line
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the result
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import os
from time import perf_counter

T_START = perf_counter()
# One thread per process: keep numpy's BLAS pool from starting threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
#: Set-up is repeated (re-importing hamvt each time) and the median kept.
SETUP_REPEATS = 7

#: (name, unit, better) of the end-to-end metrics on the result line.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("decided_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
#: Reported on the report line only: it is 0 on every correct run, and
#: the result line already carries it as failed / attempted.
FAILED_FRAC = ("failed_frac", "ratio", "lower")


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
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


def environment(numpy_version: str) -> dict:
    return {"python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(ROOT),
            "machine": platform.machine()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cascade", "search_found", "search_none",
                             "field"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget for the measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hamvt" / "__init__.py").is_file():
        print(f"error: no hamvt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = workloads.load_package(SRC)
        inputs = setup(lib, args.seed)
        setup_times.append(perf_counter() - t0)
        if len(setup_times) == 1:
            first_setup_s = perf_counter() - T_START

    # Closed loop: passes back to back, stopping before the budget would
    # be exceeded; a traced run keeps room for its traced pass.
    passes = []
    reserve = 2 if args.trace else 1
    t_run = perf_counter()
    while True:
        p = workloads.Pass()
        run(lib, inputs, p)
        passes.append(p)
        elapsed = perf_counter() - t_run
        if elapsed + reserve * elapsed / len(passes) > args.seconds:
            break
    wall_s = statistics.median(p.wall for p in passes)

    checked = list(passes)  # every pass whose outputs were checked
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            traced_inputs = setup(lib, args.seed)
            tracer.phase = "pass"
            traced = workloads.Pass()
            run(lib, traced_inputs, traced)
        finally:
            tracer.uninstall()
        checked.append(traced)

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    e2e = {
        "wall_s": wall_s,
        "decided_frac": sum(p.decided for p in checked) / attempted,
        "failed_frac": failed / attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    units = {n: u for n, u, _ in END_TO_END + (FAILED_FRAC,)}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "environment": environment(numpy.__version__),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "setup_repeats_s": setup_times,
        "first_setup_from_process_start_s": first_setup_s,
        "tasks_per_pass": passes[0].attempted,
        "end_to_end": {n: {"value": v, "unit": units[n]}
                       for n, v in e2e.items()},
        "failures": [f for p in checked for f in p.failures][:20],
    }
    result = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}

    if tracer is not None:
        values, untraced = tracing.layer_metrics(tracer)
        values["trace.overhead_s"] = traced.wall - wall_s
        values["trace.unattributed_s"] = (traced.wall
                                          - tracer.top_level_s("pass"))
        units = {n: u for n, u, *_ in tracing.LAYER_METRICS
                 + tracing.TRACE_METRICS}
        result = {n: {"value": v, "unit": units[n]}
                  for n, v in values.items()}
        report["traced_wall_s"] = traced.wall
        report["untraced_names"] = tracer.untraced
        report["untraced_metrics"] = untraced
        report["spans"] = {k: {"calls": s["calls"], "time_s": s["time_s"],
                               "self_s": s["self_s"], "work": s["work"]}
                           for k, s in sorted(tracer.summary().items())}
        report["per_layer"] = result

    for name, m in (report["end_to_end"] | result).items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
