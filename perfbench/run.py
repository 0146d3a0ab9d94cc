#!/usr/bin/env python3
"""injurylab benchmark: one command, three workloads, an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and nowhere else; without it the command exits with code 2.
Inputs are generated from the seed (see ``workloads.py``) and cached under
``.perfbench_work/``, which also receives the command outputs and traces.

Per run:

1. Cohort CSVs are generated in a child process unless cached (always when
   traced, so the generator time is fresh).  Not charged to ``setup_s``.
2. Set-up: importing the package, then ``SETUP_REPEATS`` repetitions, each
   parsing one cohort's CSVs and building its ``ModelingData`` (model
   workloads) plus one untimed warm-up op.  ``setup_s`` is the import time
   plus the median repetition.
3. Rounds run back to back, at least ``MIN_ROUNDS`` of them, and no round
   starts that would, as slow as the slowest so far, end after
   ``--seconds``.  Every round repeats the same work.  Every op's output is
   checked against reference.json; a mismatch makes the run incorrect and
   the exit code 1.  ``ops_per_s`` is the median over rounds of ops per
   second of the program calls, ``op_p50_s`` the median over cells of each
   cell's median op time.

On ``ingest_features`` the result line gives every time in reference
seconds, scaled round by round with the speed probe of ``speed.py``, because
the shared machine runs that command up to 1.9x slower for minutes at a
time.  The report line gives the measured values and the probe times.

Output: one JSON report line (every metric with its unit, per-op outcomes,
fit failures with their messages, the environment), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  In a traced run
rounds alternate between tracing off and on, which gives
``trace.overhead_ratio``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

import speed  # noqa: E402
import workloads as wl  # noqa: E402
from layers import COUNTS, SPAN_NAMES, SPANS, per_layer_metric_units  # noqa: E402
from tracer import Tracer, install  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}
#: compared against the traced wall time on one-thread workloads
SELF_TIME_TOLERANCE = 0.02


class Round(NamedTuple):
    traced: bool
    wall_s: float
    ops: list
    first_span: int       # tracer.spans[first_span:end_span] are this round's
    end_span: int
    scale: float          # reference seconds per measured second


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(wl.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="cohort size; toy is for the benchmark's own tests")
    parser.add_argument("--record", action="store_true",
                        help="run every cohort once and store the outcomes "
                             "in reference.json instead of checking them")
    return parser.parse_args(argv)


def import_program():
    """Import injurylab from this checkout's src/; None when it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "injurylab", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import injurylab
    import injurylab.cli  # noqa: F401  (loads every layer module)

    if not os.path.abspath(injurylab.__file__).startswith(src + os.sep):
        return None
    return injurylab


def blas_info() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # OpenBLAS reports its pool size; numpy wheels bundle it under numpy.libs
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                return info
    return info


def environment() -> dict:
    import numpy as np

    return {
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


def make_workload(args, variant, reference, inputs):
    spec = wl.SPECS[args.workload]
    if args.workload == "ingest_features":
        out_dir = os.path.join(WORK_DIR, "out", args.size, f"v{variant}")
        return wl.IngestWorkload(spec, inputs, variant, reference, out_dir)
    return wl.ModelWorkload(spec, inputs, variant, reference)


def run(args) -> int:
    if import_program() is None:
        print("error: src/injurylab not found in this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    spec = wl.SPECS[args.workload]
    variant = args.seed % wl.N_VARIANTS
    reference_all = wl.load_reference()
    reference = reference_all.get(args.size, {}).get(args.workload, {})
    inputs = wl.prepare_inputs(WORK_DIR, args.workload, args.size, variant,
                               regenerate=bool(args.trace))
    meta = {"sessions": [m["sessions"] for _, m in inputs],
            "generate_s": sum(m["generate_s"] for _, m in inputs)}

    tracer = Tracer()
    if args.trace:
        install(tracer, SPANS)
    workload = make_workload(args, variant, reference, inputs)

    if args.record:
        record(args, workload, reference_all)
        return 0

    checked: list = []
    crashes: list = []

    def attempt(index, setup=False):
        """Run a round (or set-up repetition ``index``); returns (wall, ops)."""
        try:
            wall, ops = (workload.setup_once(index) if setup
                         else workload.run_round())
        except Exception as exc:  # the run reports it and fails
            crashes.append(f"{type(exc).__name__}: {exc}")
            return None
        for op in ops:
            workload.check(op)
        checked.extend(ops)
        return wall, ops

    # -- set-up ----------------------------------------------------------
    scaler = speed.Scaler(spec.speed_scaled)
    tracer.enabled = bool(args.trace)
    setup_reps = []   # (measured, scaled) seconds
    for repeat in range(wl.SETUP_REPEATS):
        started = time.perf_counter()
        if attempt(repeat, setup=True) is None:
            break
        seconds = time.perf_counter() - started
        setup_reps.append((seconds, seconds * scaler.step()))
    setup_s = {"measured": import_s + wl.median([m for m, _ in setup_reps]),
               "scaled": import_s * scaler.start() + wl.median([s for _, s in setup_reps])}

    # -- timed rounds -----------------------------------------------------
    rounds: list[Round] = []
    measure_start = time.perf_counter()
    index = 0
    while not crashes:
        traced = bool(args.trace) and index % 2 == 1
        tracer.enabled = traced
        first_span = len(tracer.spans)
        outcome = attempt(index)
        tracer.enabled = False
        if outcome is None:
            break
        rounds.append(Round(traced, *outcome, first_span, len(tracer.spans),
                            scaler.step()))
        index += 1
        elapsed = time.perf_counter() - measure_start
        slowest = max(r.wall_s for r in rounds)
        if index >= wl.MIN_ROUNDS and elapsed + slowest > args.seconds:
            break

    report, result = summarize(args, spec, variant, meta, setup_s, setup_reps,
                               scaler.probes, rounds, checked, crashes, tracer)
    if args.trace:
        write_trace(args, tracer)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(args, spec, variant, meta, setup_s, setup_reps, probes, rounds,
              checked, crashes, tracer):
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]

    def rate(selected, scaled=True):
        return wl.median([len(r.ops) / (r.wall_s * (r.scale if scaled else 1.0))
                          for r in selected])

    def cell_median(selected, scaled=True):
        """Median over cells of each cell's median op time: with cells of
        very different cost, the plain median would jump between them."""
        by_cell = {}
        for r in selected:
            for op in r.ops:
                by_cell.setdefault(op.cell, []).append(
                    op.seconds * (r.scale if scaled else 1.0))
        return wl.median([wl.median(times) for times in by_cell.values()])

    timed_ops = [op for r in untraced for op in r.ops]
    all_ops = [op for r in rounds for op in r.ops]
    fit_failures = [op for op in all_ops
                    if isinstance(op.outcome, str) and op.cell != "features"]
    aucs = [op.outcome for op in all_ops if isinstance(op.outcome, float)]
    mismatches = [op for op in checked if op.error is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "setup_s": setup_s["scaled"],
        "ops_per_s": rate(untraced),
        "op_p50_s": cell_median(untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "size": args.size, "trace": args.trace,
        "cohort": vars(spec.sizes[args.size]) | {"sessions": meta["sessions"]},
        "threads": spec.threads,
        "environment": environment(),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end.items()},
        "time_base": "reference" if spec.speed_scaled else "measured",
        "measured": {"setup_s": setup_s["measured"],
                     "ops_per_s": rate(untraced, scaled=False),
                     "op_p50_s": cell_median(untraced, scaled=False)},
        "speed": {"probes_s": probes, "reference_s": speed.REFERENCE_S,
                  "rounds": [r.scale for r in rounds]},
        "op_count": len(timed_ops),
        "rounds": len(rounds),
        "setup_repeats_s": setup_reps,
        "failed_ratio": {"value": len(fit_failures) / len(all_ops) if all_ops else 0.0,
                         "unit": "fraction"},
        "fit_failures": [{"cell": op.cell, "cohort": op.cohort, "error": op.outcome}
                         for op in fit_failures],
        "ops": [{"cell": op.cell, "cohort": op.cohort, "seconds": op.seconds,
                 "outcome": op.outcome} for op in all_ops],
        "mismatches": [{"cell": op.cell, "cohort": op.cohort, "error": op.error}
                       for op in mismatches],
        "crashes": crashes,
    }
    if args.workload != "ingest_features":
        report["auc_mean"] = {"value": sum(aucs) / len(aucs) if aucs else float("nan"),
                              "unit": "AUC"}

    metrics = dict(end_to_end)
    units = dict(END_TO_END_UNITS)
    if args.trace:
        metrics = per_layer(spec, meta, rounds, tracer, rate(untraced), rate(traced))
        units = per_layer_metric_units()
        report["trace_check"] = trace_check(spec, traced, tracer)
    result = {
        "correct": not mismatches and not crashes and bool(rounds),
        "attempted": max(1, len(checked) + len(crashes)),
        "failed": len(crashes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return report, result


def per_layer(spec, meta, rounds, tracer, untraced_rate, traced_rate) -> dict:
    values = {}
    for name, (calls, total, self_s) in tracer.span_totals(SPAN_NAMES).items():
        values[f"{name}.calls"] = calls
        values[f"{name}.total_s"] = total
        values[f"{name}.self_s"] = self_s
    for name in COUNTS:
        values[name] = tracer.counts.get(name, 0)
    busy = sum(op.seconds for r in rounds for op in r.ops)
    wall = sum(r.wall_s for r in rounds)
    values["pipeline.run_simulations.parallel_efficiency"] = (
        busy / (wall * spec.threads) if spec.name != "ingest_features" and wall else 0.0)
    values["synthdata.generate_cohort.total_s"] = meta["generate_s"]
    values["trace.overhead_ratio"] = (untraced_rate - traced_rate) / untraced_rate
    return values


def trace_check(spec, traced_rounds, tracer) -> dict:
    """Self times of the spans inside traced rounds against their wall time."""
    self_sum = sum(span[5] for r in traced_rounds
                   for span in tracer.spans[r.first_span:r.end_span])
    wall = sum(r.wall_s for r in traced_rounds)
    return {"self_s_sum": self_sum, "wall_s": wall, "threads": spec.threads,
            "tolerance": SELF_TIME_TOLERANCE}


def write_trace(args, tracer) -> None:
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"trace-{args.workload}-{args.size}-s{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "op", "thread", "start", "end", "self_s"],
                   "spans": tracer.spans}, fh)


def record(args, workload, reference_all) -> None:
    """Store every op's outcome for this variant in reference.json."""
    for repeat in range(wl.SETUP_REPEATS):
        workload.setup_once(repeat)
    target = reference_all.setdefault(args.size, {}).setdefault(args.workload, {})
    for op in workload.run_round()[1]:
        workload.record(target, op)
    wl.save_reference(reference_all)
    print(json.dumps({"recorded": args.workload, "size": args.size,
                      "seed": args.seed}))


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
