"""Command-line front end.

Subcommands:
  run          optimize a built-in objective and write trace files
  homogeneity  compare a base run against an affinely scaled run, or, with
               --algorithm direct, show DIRECT changing its subdivisions
               under a translation
  example-fig1 emit plot data for the five-point planning example

A flag passes on only the value given, so each default has one home in the
library; ``homogeneity`` exits 2 on a flag the chosen algorithm does not read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gp, harness, objectives, optimizer
from .errors import ConfigError, ScaleoptError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ALGORITHMS = {"p": optimizer.P_ALGORITHM, "ei": optimizer.ONE_STEP_BAYES}


def _add_common_run_flags(p):
    p.add_argument("--objective", choices=sorted(objectives.BUILTIN_OBJECTIVES))
    p.add_argument("--kernel", choices=gp.KERNEL_FAMILIES)
    p.add_argument("--kernel-c", type=float)
    p.add_argument("--estimator", choices=gp.ESTIMATORS)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--grid-resolution", type=int)
    p.add_argument("--config", help="JSON file with defaults; flags override")


def _given(**values) -> dict:
    """The values the user gave, those not None, so each default keeps one home."""
    return {name: value for name, value in values.items() if value is not None}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports a bad flag or file value as a ConfigError."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _apply_config_file(parser, args, argv):
    """Parse again with the file's values as flags, checked as flags are.

    They go ahead of argv's flags, so a flag given on the command line wins.
    """
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = {k.replace("-", "_") for k in data} - set(vars(args))
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    not_flags = sorted(k for k, v in data.items() if type(v) not in (str, int, float))
    if not_flags:
        raise ConfigError(f"config values must be JSON strings or numbers: {not_flags}")
    file_flags = [f"--{key.replace('_', '-')}={value}" for key, value in data.items()]
    split = argv.index(args.command) + 1
    return parser.parse_args(argv[:split] + file_flags + argv[split:])


def _reject_unread(args, names):
    unread = [f"--{name.replace('_', '-')}" for name in names
              if getattr(args, name) is not None]
    if unread:
        raise ConfigError(f"--algorithm {args.algorithm} does not read {', '.join(unread)}")


def _build_kwargs(args):
    objective, (lower, upper) = objectives.get_objective(
        args.objective or objectives.DEFAULT_OBJECTIVE)
    grid = optimizer.CandidateGrid.for_region([lower], [upper], args.grid_resolution)
    kernel = gp.CorrelationKernel(**_given(family=args.kernel, c=args.kernel_c))
    return objective, lower, upper, dict(kernel=kernel, grid=grid, **_given(
        budget=args.budget, estimator=args.estimator, epsilon=args.epsilon))


def _outputs(args) -> list:
    """The files the command writes: its ``--output`` with each suffix it writes."""
    return [] if args.output is None else [args.output + suffix for suffix in args.writes]


def _write(path, text):
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_run(args) -> int:
    algorithm = ALGORITHMS[args.algorithm]
    objective, lower, upper, kwargs = _build_kwargs(args)
    trace = optimizer.run(algorithm, objective, [lower], [upper], **kwargs)
    csv_path, json_path = _outputs(args)
    _write(csv_path, trace.to_csv())
    _write(json_path, trace.to_json())
    best = trace.best_point
    print(f"best point: {best.tolist()}  best value: {trace.best_value!r}")
    print(f"trace written to {csv_path} / {json_path}")
    return EXIT_OK


def cmd_homogeneity(args) -> int:
    if args.algorithm == "direct":
        return _direct_check(args)
    _reject_unread(args, ["output"])
    algorithm = ALGORITHMS[args.algorithm]
    objective, lower, upper, kwargs = _build_kwargs(args)
    report = harness.homogeneity_check(algorithm, objective, [lower], [upper],
                                       **_given(a=args.a, b=args.b), **kwargs)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _direct_check(args) -> int:
    """The DIRECT translation check: builder, base run, shifted run."""
    _reject_unread(args, ["objective", "kernel", "kernel_c", "estimator",
                          "grid_resolution", "a", "b"])
    case = harness.build_direct_counterexample(**_given(epsilon=args.epsilon,
                                                        budget=args.budget))
    mismatch, base, shifted = harness.direct_homogeneity_check(case)
    print(f"translation shift: {case.shift!r} "
          f"(threshold delta_f={case.delta_f!r}, eps={case.epsilon})")
    print(f"counterexample interval {case.interval_index} at iteration "
          f"{case.found_at_iteration}")
    print(f"subdivision mismatch at iteration {mismatch}"
          if mismatch is not None else "no subdivision mismatch observed")
    print(f"base iterations:\n{base.to_csv()}\nshifted iterations:\n{shifted.to_csv()}")
    if args.output is not None:
        partition_path, trace_path = _outputs(args)
        _write(partition_path, base.partition.to_json())
        _write(trace_path, base.to_csv())
        print(f"partition/trace written to {partition_path} / {trace_path}")
    return EXIT_OK if mismatch is None else EXIT_MISMATCH


def cmd_example_fig1(args) -> int:
    data = harness.fig1_reproduction(**_given(
        estimator=args.estimator, epsilon=args.epsilon, resolution=args.grid_resolution))
    cols = ["x", "m_f", "s_f", "crit_f", "m_phi", "s_phi", "crit_phi"]
    (path,) = _outputs(args)
    _write(path, optimizer.csv_text([cols] + [
        [float(v) for v in row] for row in zip(*(data[c] for c in cols))]))
    print(f"printed-phi max deviation from a*f+b: {data['printed_phi_deviation']!r}")
    print(f"aspiration levels: y_on={data['y_on_f']!r} z_on={data['y_on_phi']!r}")
    print(f"criterion argmax: f -> {data['argmax_f']}, phi -> {data['argmax_phi']}")
    print(f"plot data written to {path}")
    return EXIT_OK


def make_parser():
    parser = _Parser(prog="scaleopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an optimization")
    p_run.add_argument("--algorithm", default="p", choices=list(ALGORITHMS))
    _add_common_run_flags(p_run)
    p_run.add_argument("--output", default="trace")
    p_run.set_defaults(func=cmd_run, writes=(".csv", ".json"))

    p_hom = sub.add_parser("homogeneity", help="affine-scaling comparison")
    p_hom.add_argument("--algorithm", default="p", choices=[*ALGORITHMS, "direct"])
    _add_common_run_flags(p_hom)
    p_hom.add_argument("--a", help="scale factor; float or numeral like 3*G^2")
    p_hom.add_argument("--b", help="offset; float or numeral like G^-1")
    p_hom.add_argument("--output", help="direct only: prefix of the files to write")
    p_hom.set_defaults(func=cmd_homogeneity, writes=("_partition.json", "_trace.csv"))

    p_fig = sub.add_parser("example-fig1", help="five-point example data")
    p_fig.add_argument("--estimator", choices=gp.ESTIMATORS)
    p_fig.add_argument("--epsilon", type=float)
    p_fig.add_argument("--grid-resolution", type=int)
    p_fig.add_argument("--output", default="fig1.csv")
    p_fig.set_defaults(func=cmd_example_fig1, writes=("",))

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads -1e9, -1/3 and -G as flags
        if argv[i] in ("--a", "--b") and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]  # a numeral takes any sign and form
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, args, argv)
        for path in _outputs(args):  # rejected before any evaluation
            directory = os.path.dirname(path)
            if directory and not os.path.isdir(directory):
                raise ConfigError(f"output directory {directory} does not exist")
            if os.path.isdir(path):
                raise ConfigError(f"cannot write {path}: it is a directory")
        return args.func(args)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScaleoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
