"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py`` with BLAS pinned to one thread; prints one JSON line.
With ``--setup-only`` it stops after set-up and reports only ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The timed work of one process stops at this many seconds even if a pass
# is unfinished, so that the process always ends well within 180 s.
HARD_CAP_S = 100.0
# Reference slices run after set-up to scale the set-up time.
SETUP_SLICES = 40


class OperationTimeout(Exception):
    """An operation ran past its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise OperationTimeout(f"timeout after {seconds:.3g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op, rec, limit):
    """Run one operation under its time limit; any exception is a failed operation."""
    rec.reset()
    start = rec.clock.now()
    result, error = None, ""
    try:
        with time_limit(limit):
            result = op.call()
    except OperationTimeout as exc:
        error = str(exc)
    except Exception as exc:  # the operation's failure is reported, the run goes on
        if not exc.__class__.__module__.startswith("scaleopt"):
            traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    end = rec.clock.now()
    outcome = op.outcome(rec, result, error)
    # Wall time cut at every evaluation boundary: start, eval starts and ends, end.
    marks = [start, *(t for pair in zip(rec.starts, rec.ends) for t in pair), end]
    outcome.segments = [b - a for a, b in zip(marks, marks[1:])]
    return outcome


def run_passes(ops, rec, limit, count, deadline, tracer=None):
    """Run ``count`` whole passes over ``ops``; a pass stops, mid-pass, at ``deadline``."""
    passes = []
    for _ in range(count):
        current = []
        passes.append(current)
        for op in ops:
            if time.perf_counter() >= deadline:
                return passes
            if tracer is not None:
                tracer.op_id = len(current)
            current.append(run_op(op, rec, min(limit, deadline - time.perf_counter())))
    return passes


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{name: os.environ.get(name) for name in PINNED_ENV},
    }


def determinism_problems(passes) -> list:
    problems = []
    for later in passes[1:]:
        for first, o in zip(passes[0], later):
            if first.digest != o.digest:
                problems.append(f"{o.key}: trace differs between passes")
    return problems


def percentile(values, q):
    import numpy
    return float(numpy.percentile(values, q)) if values else float("nan")


def summarize(passes, scale: float) -> dict:
    """Counts, checks and timings of all passes; times are multiplied by ``scale``."""
    outcomes = [o for p in passes for o in p]
    steps = [scale * t for o in outcomes for t in o.steps]
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "passes": len(passes),
        "evals": sum(o.evals for o in outcomes),
        "wall_s": scale * sum(sum(o.segments) for o in outcomes),
        "steps": len(steps),
        "step_s_p50": percentile(steps, 50),
        "step_s_p90": percentile(steps, 90),
        "failures": sorted({f"{o.key}: {o.detail}" for o in outcomes if not o.passed}),
        "problems": [f"{o.key}: {p}" for o in outcomes for p in o.problems]
                    + determinism_problems(passes),
        "digests": {o.key: o.digest for o in passes[0]},
    }


def cross_check(tracer, outcomes) -> list:
    """Exact counts from the spans must equal those derived from the results."""
    spans = tracer.op_span_counts()
    problems = []
    for op_id, o in enumerate(outcomes):
        if not o.expect:
            continue
        seen = {"evals": spans[(op_id, "objectives.eval")],
                "gp.build_posterior": spans[(op_id, "gp.build_posterior")],
                "direct1d.potentially_optimal": spans[(op_id, "direct1d.potentially_optimal")],
                "grid_steps": tracer.op_counts[op_id]["grid_steps"]}
        for name, expected in o.expect.items():
            if seen[name] != expected:
                problems.append(f"{o.key}: {name} traced {seen[name]}, expected {expected}")
    return problems


def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() at which the launcher started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = t_start if args.t0 is None else args.t0

    unpinned = [name for name in PINNED_ENV if os.environ.get(name) != "1"]
    if unpinned:
        print(f"BLAS threads not pinned to 1: {', '.join(unpinned)}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "scaleopt" / "__init__.py").is_file():
        print(f"no scaleopt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import scaleopt
    import calibrate
    import tracing
    import workloads

    if Path(scaleopt.__file__).resolve().parent != (src / "scaleopt").resolve():
        print(f"imported scaleopt from {scaleopt.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    kind = workloads.REFERENCE[args.workload]
    clock = calibrate.Clock(kind)
    rec = workloads.EvalRecorder(clock)
    workload = workloads.build(args.workload, args.seed, rec)
    for op in workload.warmup:
        run_op(op, rec, workload.time_limit)
    tracing.assert_untraced()
    setup_raw_s = time.monotonic() - t0
    # Set-up is scaled by reference slices run right after it.
    setup_scale = calibrate.scale(kind, calibrate.slice_times(kind, SETUP_SLICES))
    setup = {"setup_s": setup_raw_s * setup_scale, "setup_raw_s": setup_raw_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    deadline = time.perf_counter() + HARD_CAP_S
    result = {**setup, "environment": environment(), "ops_per_pass": len(workload.ops)}
    if not args.trace:
        count = max(1, round(args.seconds / workload.pass_seconds))
        clock.calibrating = True
        passes = run_passes(workload.ops, rec, workload.time_limit, count, deadline)
        clock.calibrating = False
        scale = clock.scale()
        result.update(summarize(passes, scale))
        result["scale"] = scale
        result["reference"] = kind
        result["reference_slices"] = len(clock.samples)
        result["reference_samples"] = clock.samples
        result["raw_wall_s"] = result["wall_s"] / scale
        if len(passes[-1]) < len(workload.ops):
            result["problems"].append("timed work stopped at the hard cap")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # One traced pass; once the wrappers are gone and proven gone, the
        # same pass runs untraced, and the ratio of the two is the overhead.
        tracer = tracing.Tracer()
        rec.tracer = tracer
        tracer.install()
        try:
            traced = run_passes(workload.ops, rec, workload.time_limit, 1, deadline, tracer)
        finally:
            tracer.uninstall()  # raises unless every original is back in place
            rec.tracer = None
        plain = run_passes(workload.ops, rec, workload.time_limit, 1, deadline)
        result.update(summarize(traced + plain, 1.0))
        if len(plain[-1]) < len(workload.ops):
            result["problems"].append("traced work stopped at the hard cap")
        result["problems"] += cross_check(tracer, traced[0])
        traced_wall = sum(sum(o.segments) for o in traced[0])
        plain_wall = sum(sum(o.segments) for o in plain[0])
        result["traced_wall_s"] = traced_wall
        result["untraced_wall_s"] = plain_wall
        result["spans"] = len(tracer.names)
        overhead = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        result["layers"] = tracer.layer_metrics({m["name"]: m["unit"] for m in declared},
                                                overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
