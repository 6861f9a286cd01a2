"""Byte-exact golden traces.

Each case produces text from the public entry points and compares it with
the file of the same name under ``tests/golden``.  A refactor that keeps
the behaviour keeps every byte; a change that moves a cell on purpose
says which case and why, and rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

The extended-numeral runs pin their trace CSV and each step's certificate
deviation in hexadecimal, so a change to the numeral arithmetic that moves
one bit of a collapsed criterion shows.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from scaleopt import cli, optimizer
from scaleopt.grossone import scaled_criterion_run
from scaleopt.harness import exact_affine
from scaleopt.objectives import gramacy_lee, sin3x2

GOLDEN = Path(__file__).parent / "golden"


def _cli_outputs(args, suffixes):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        assert cli.main(args + ["--output", out]) == cli.EXIT_OK
        return [Path(out + suffix).read_text() for suffix in suffixes]


def _run_case(algorithm, estimator, suffix):
    def produce():
        csv_text, json_text = _cli_outputs(
            ["run", "--algorithm", algorithm, "--objective", "sin3x2",
             "--estimator", estimator, "--budget", "25"], [".csv", ".json"])
        return csv_text if suffix == ".csv" else json_text
    return produce


def _scaled_run_case(algorithm):
    # the scaled run of harness.homogeneity_check for a=3.9765, b=-7.3
    def produce():
        trace = optimizer.run(algorithm, exact_affine(sin3x2, 3.9765, -7.3),
                              [-1.0], [1.0], budget=25)
        return trace.to_csv()
    return produce


def _direct_demo_case(suffix):
    def produce():
        return _cli_outputs(["direct-demo"], [suffix])[0]
    return produce


def _numeral_indices():
    out = {}
    for name, objective, lower, upper in (("sin3x2", sin3x2, -1.0, 1.0),
                                          ("gramacy-lee", gramacy_lee, 0.5, 2.5)):
        trace, _ = scaled_criterion_run(objective, "G", "G^2", [lower], [upper],
                                        budget=15)
        out[name] = trace.grid_indices
    return json.dumps(out, indent=2) + "\n"


def _numeral_runs():
    out = {}
    for a, b in (("G", "G^2"), ("3*G^-2", "-7")):
        trace, certificates = scaled_criterion_run(sin3x2, a, b, [-1.0], [1.0],
                                                   budget=15)
        out[f"sin3x2 a={a} b={b}"] = {
            "trace": trace.to_csv(),
            "max_relative_deviation": [c.max_relative_deviation.hex()
                                       for c in certificates],
        }
    return json.dumps(out, indent=2) + "\n"


CASES = {
    **{f"run_{alg}_{est}{suffix}": _run_case(alg, est, suffix)
       for alg in ("p", "ei") for est in ("mle", "sample")
       for suffix in (".csv", ".json")},
    "scaled_run_p.csv": _scaled_run_case(optimizer.P_ALGORITHM),
    "scaled_run_ei.csv": _scaled_run_case(optimizer.ONE_STEP_BAYES),
    "direct_demo_partition.json": _direct_demo_case("_partition.json"),
    "direct_demo_trace.csv": _direct_demo_case("_trace.csv"),
    "numeral_grid_indices.json": _numeral_indices,
    "numeral_runs.json": _numeral_runs,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    produced = CASES[name]().encode()
    assert produced == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in CASES.items():
        (GOLDEN / name).write_bytes(produce().encode())
        print(f"wrote {GOLDEN / name}")
