"""scaleopt benchmark: homogeneity checks, numeral runs and DIRECT, end to end.

    python3 bench/run.py --workload sweep1d --seed 1 --seconds 15 --trace 0

Workloads: sweep1d, illcond1d, grid2d, numeral, direct (see bench/NOTES.md).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced pass.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Each workload runs in its own worker process with BLAS pinned to
one thread; ``setup_s`` is the median over several worker processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

DEFAULT_SEED = 1
CONFIRM_SEED = 7  # a second seed for confirming claims made on the default one
SETUP_SAMPLES = 5
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every worker must end in time for the whole run to end within 180 s.
SETUP_TIMEOUT_S = 20.0
TOTAL_TIMEOUT_S = 170.0


class WorkerError(Exception):
    pass


def worker(args, extra, timeout):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(time.monotonic()), *extra]
    env = {**os.environ, **PINNED}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout,
                              text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        raise WorkerError(f"worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(res, setup_samples):
    wall = res["wall_s"]
    attempted = res["attempted"]
    scaled = (f"{res['passes']} passes, times x{res['scale']:.3f} from "
              f"{res['reference_slices']} '{res['reference']}' reference slices")
    return {
        "setup_s": (statistics.median(setup_samples),
                    f"median of {len(setup_samples)} processes"),
        "evals_per_s": (res["evals"] / wall,
                        f"{res['evals']} evaluations in {wall:.2f} s, {scaled}"),
        "step_s_p50": (res["step_s_p50"], f"{res['steps']} steps, {scaled}"),
        "step_s_p90": (res["step_s_p90"], f"{res['steps']} steps, {scaled}"),
        "ok_frac": ((attempted - res["failed"]) / attempted,
                    f"{attempted - res['failed']}/{attempted} operations"),
        "peak_rss_mb": (res["peak_rss_mb"], "1 process"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    try:
        e2e_units, layer_units = declared_metrics()
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
        remaining = TOTAL_TIMEOUT_S - (time.monotonic() - started)
        res = worker(args, [], remaining)
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(res["setup_s"])

    env = res["environment"]
    print(f"scaleopt benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        values = res["layers"]
        units = layer_units
        for name, m in values.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
        print(f"  traced pass {res['traced_wall_s']:.2f} s, untraced pass "
              f"{res['untraced_wall_s']:.2f} s, {res['spans']} spans, "
              f"{res['steps']} steps")
    else:
        e2e = end_to_end(res, setup_samples)
        units = e2e_units
        values = {name: {"value": v, "unit": units[name]} for name, (v, _) in e2e.items()}
        for name, (value, samples) in e2e.items():
            print(f"  {name:12s} {value:<12.6g} {units[name]:6s} ({samples})")
        print(f"  failed_frac  {res['failed'] / res['attempted']:<12.6g} ratio  "
              f"({res['failed']}/{res['attempted']} operations)")
    for line in res["failures"]:
        print(f"  failed: {line}")
    for line in res["problems"]:
        print(f"  PROBLEM: {line}")

    if set(values) != set(units) or any(values[n]["unit"] != units[n] for n in units):
        print("reported metrics differ from those declared in BENCHMARK.json", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "confirm_seed": CONFIRM_SEED,
              "seconds": args.seconds,
              "trace": args.trace, "setup_samples": setup_samples, "metrics": values, **res}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
