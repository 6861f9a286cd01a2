"""Byte-exact golden traces.

Each case produces text from the public entry points and compares it with
the file of the same name under ``tests/golden``.  A refactor that keeps
the behaviour keeps every byte; a change that moves a cell on purpose
says which case and why, and rewrites the files with

    PYTHONPATH=src python tests/test_golden.py --write

which may move float cells only.  It refuses, and writes nothing, if any
other cell would change: a trace's ``iter``, ``grid_index``, ``x0`` or ``x1``, a
header, or any byte of the files in ``FROZEN``.  It prints each file's
largest relative float change.

The 2-D runs (``run_2d_*.csv``) pin a P and an EI run of budget 30 on the
default 101 x 101 grid over [0, 1]^2, on a seeded surface defined here.

``run_1d_decisions.json`` pins the grid indices of the 24 budget-25 runs on
the default 1001-point grids: both kernel families, P and EI, both
estimators and the three built-in objectives.  A rewrite treats them as
grid cells, so no 1-D choice may move.

The DIRECT runs (``direct_<objective>_trace.csv``) pin ``run_direct``'s
trace on ``rastrigin1d`` at budget 24 (1,673 intervals) and on ``sin3x2`` at
budget 40 (387 intervals), each over its default region.

``example_fig1.csv`` pins the plot data ``example-fig1`` writes at its
defaults: posterior mean, standard deviation and P criterion on a
1001-point grid, for the five-point example's f and its affine image.

The scaled runs (``scaled_run_*.csv``, the scaled side of a homogeneity
check with a=3.9765, b=-7.3) and the extended-numeral runs pin their trace
CSV in the normalized frame the scaled run works in; the numeral runs also
pin each step's certificate deviation in hexadecimal.
"""

import csv
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

import numpy as np

from scaleopt import cli, direct1d, gp, optimizer
from scaleopt.grossone import scaled_criterion_run
from scaleopt.objectives import BUILTIN_OBJECTIVES, get_objective, gramacy_lee, sin3x2

GOLDEN = Path(__file__).parent / "golden"


def _cli_outputs(args, suffixes, code):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        assert cli.main(args + ["--output", out]) == code
        return [Path(out + suffix).read_text() for suffix in suffixes]


def _run_case(algorithm, estimator, suffix):
    def produce():
        csv_text, json_text = _cli_outputs(
            ["run", "--algorithm", algorithm, "--objective", "sin3x2",
             "--estimator", estimator, "--budget", "25"], [".csv", ".json"], cli.EXIT_OK)
        return csv_text if suffix == ".csv" else json_text
    return produce


def _scaled_run_case(algorithm):
    # the scaled run of harness.homogeneity_check for a=3.9765, b=-7.3
    def produce():
        trace, _ = scaled_criterion_run(sin3x2, 3.9765, -7.3, [-1.0], [1.0],
                                        budget=25, algorithm=algorithm)
        return trace.to_csv()
    return produce


def _surface_2d():
    """A seeded smooth surface on [0, 1]^2: three Gaussian wells and a ripple."""
    rng = np.random.default_rng(2011)
    centers = rng.uniform(0.1, 0.9, size=(3, 2)).tolist()
    widths = rng.uniform(0.08, 0.25, size=3).tolist()
    depths = rng.uniform(0.5, 2.0, size=3).tolist()

    def surface(x):
        value = 0.3 * x[0] - 0.2 * x[1] + 0.2 * math.sin(5.0 * x[0]) * math.cos(7.0 * x[1])
        for (cx, cy), width, depth in zip(centers, widths, depths):
            value -= depth * math.exp(-((x[0] - cx) ** 2 + (x[1] - cy) ** 2)
                                      / (2.0 * width * width))
        return value

    return surface


def _run_2d_case(algorithm):
    # the default 101 x 101 grid and corners-plus-center design
    def produce():
        return optimizer.run(algorithm, _surface_2d(), [0.0, 0.0], [1.0, 1.0],
                             budget=30).to_csv()
    return produce


def _decisions_1d():
    # one line per run: "kernel/algorithm/estimator/objective": its grid indices
    lines = []
    for family in gp.KERNEL_FAMILIES:
        for algorithm in (optimizer.P_ALGORITHM, optimizer.ONE_STEP_BAYES):
            for estimator in gp.ESTIMATORS:
                for name in sorted(BUILTIN_OBJECTIVES):
                    objective, (lower, upper) = get_objective(name)
                    trace = optimizer.run(algorithm, objective, [lower], [upper], budget=25,
                                          kernel=gp.CorrelationKernel(family),
                                          estimator=estimator)
                    key = f"{family}/{algorithm}/{estimator}/{name}"
                    lines.append(f"  {json.dumps(key)}: {json.dumps(trace.grid_indices)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _direct_run_case(name, budget):
    # run_direct on a built-in objective over its default region
    def produce():
        objective, (lower, upper) = get_objective(name)
        return direct1d.run_direct(objective, lower, upper, budget=budget)[1].to_csv()
    return produce


def _direct_demo_case(suffix):
    # the DIRECT translation check's files; it exits 1 on the mismatch it shows
    def produce():
        return _cli_outputs(["homogeneity", "--algorithm", "direct"], [suffix],
                            cli.EXIT_MISMATCH)[0]
    return produce


def _fig1_case():
    # the five-point planning example's plot data, at its defaults
    return _cli_outputs(["example-fig1"], [""], cli.EXIT_OK)[0]


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
    "run_1d_decisions.json": _decisions_1d,
    "run_2d_p.csv": _run_2d_case(optimizer.P_ALGORITHM),
    "run_2d_ei.csv": _run_2d_case(optimizer.ONE_STEP_BAYES),
    "scaled_run_p.csv": _scaled_run_case(optimizer.P_ALGORITHM),
    "scaled_run_ei.csv": _scaled_run_case(optimizer.ONE_STEP_BAYES),
    "direct_demo_partition.json": _direct_demo_case("_partition.json"),
    "direct_demo_trace.csv": _direct_demo_case("_trace.csv"),
    "direct_rastrigin1d_trace.csv": _direct_run_case("rastrigin1d", 24),
    "direct_sin3x2_trace.csv": _direct_run_case("sin3x2", 40),
    "example_fig1.csv": _fig1_case,
    "numeral_grid_indices.json": _numeral_indices,
    "numeral_runs.json": _numeral_runs,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    produced = CASES[name]().encode()
    assert produced == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


# Files that no rewrite may change, and the cells that must not move: trace
# columns, and the labels ``_cells`` gives headers and case names.
FROZEN = {"direct_demo_partition.json", "direct_demo_trace.csv",
          "direct_rastrigin1d_trace.csv", "direct_sin3x2_trace.csv",
          "numeral_grid_indices.json"}
EXACT_COLUMNS = {"iter", "grid_index", "x0", "x1", "header", "algorithm", "case"}


def _cells(text):
    """(column, cell) pairs of a trace CSV, a trace JSON, ``numeral_runs.json``
    or a JSON of grid indices by case."""
    if not text.startswith("{"):
        header, *rows = csv.reader(io.StringIO(text))
        return [("header", ",".join(header))] + [
            pair for row in rows for pair in zip(header, row)]
    data = json.loads(text)
    if "records" in data:
        return [("algorithm", data["algorithm"])] + [
            (key, repr(value)) for rec in data["records"] for key, value in rec.items()]
    out = []
    for case, run in data.items():
        if isinstance(run, list):  # grid indices
            out += [("case", case)] + [("grid_index", repr(i)) for i in run]
            continue
        out += [("case", case)] + _cells(run["trace"])
        out += [("certificate", cell) for cell in run["max_relative_deviation"]]
    return out


def _number(cell: str) -> float:
    return float.fromhex(cell) if "0x" in cell else float(cell)


def largest_float_change(name, old, new) -> float:
    """Largest relative change of a float cell from ``old`` to ``new``.

    Raises ``ValueError`` if any other cell changes.
    """
    if name in FROZEN:
        if old != new:
            raise ValueError(f"{name} may not change")
        return 0.0
    old_cells, new_cells = _cells(old), _cells(new)
    if [c for c, _ in old_cells] != [c for c, _ in new_cells]:
        raise ValueError(f"{name}: the cells are not the same columns")
    worst = 0.0
    for (column, before), (_, after) in zip(old_cells, new_cells):
        if before == after:
            continue
        if column in EXACT_COLUMNS or "" in (before, after) or "None" in (before, after):
            raise ValueError(f"{name}: {column} cell {before!r} would become {after!r}")
        x, y = _number(before), _number(after)
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _edit(text, line, column, cell):
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[column] = cell
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def test_rewrite_moves_float_cells_only():
    text = (GOLDEN / "run_p_mle.csv").read_text()
    mu = float(text.split("\n")[6].split(",")[5])  # the first step's mu
    moved = _edit(text, 6, 5, repr(mu * (1 + 2.0 ** -40)))
    assert 0 < largest_float_change("run_p_mle.csv", text, moved) < 1e-11
    for column in (0, 1, 2):  # iter, grid_index, x0
        with pytest.raises(ValueError):
            largest_float_change("run_p_mle.csv", text, _edit(text, 6, column, "7"))
    with pytest.raises(ValueError):
        largest_float_change("direct_demo_trace.csv", text, moved)
    decisions = (GOLDEN / "run_1d_decisions.json").read_text()
    step = re.sub(r"\[(\d+)", lambda m: f"[{int(m.group(1)) + 1}", decisions, count=1)
    with pytest.raises(ValueError, match="grid_index"):
        largest_float_change("run_1d_decisions.json", decisions, step)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    produced = {name: produce() for name, produce in CASES.items()}
    changes = {}
    for name, text in produced.items():
        path = GOLDEN / name
        try:
            changes[name] = (largest_float_change(name, path.read_text(), text)
                             if path.exists() else None)
        except ValueError as exc:
            sys.exit(f"refusing to rewrite the golden files: {exc}")
    for name, text in produced.items():
        (GOLDEN / name).write_bytes(text.encode())
        change = "new file" if changes[name] is None else \
            f"largest relative float change {changes[name]:.3g}"
        print(f"wrote {GOLDEN / name}: {change}")
