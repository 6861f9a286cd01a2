"""No module of the package reaches into another's private names, and
each rule's constant is used only in its home module.

A leading underscore marks a name as internal to its module or object, so
``from .mod import _name`` and ``obj._attr`` (with ``obj`` other than
``self`` or ``cls``) couple one module to another's internals.  Dunder
names such as ``__setattr__`` are protocol, not private.  The package
module itself binds only its version and submodules, so each object has one
import path.

The benchmark's tracer patches package names from outside the package, so
a test also checks that it still finds each of them.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

from scaleopt import gp

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "scaleopt").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_references(source: str) -> list:
    """(line, text) for each private import or foreign private attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.lineno, f"from {'.' * node.level}{node.module or ''} "
                                    f"import {alias.name}")
                      for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_rule_catches_both_forms():
    source = ("from .gp import _cross_distances, build_posterior\n"
              "w = posterior._factor\n"
              "self._factor = object.__setattr__\n")
    assert private_references(source) == [
        (1, "from .gp import _cross_distances"), (2, "posterior._factor")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_foreign_private_names(path):
    assert private_references(path.read_text()) == []


# Each rule's constant belongs to the one module that applies the rule.
RULE_HOMES = {"DUPLICATE_THRESHOLD": "gp.py", "DELTA_EQ_REL": "direct1d.py"}


def name_references(source: str, names) -> set:
    """The names among ``names`` that ``source`` imports, reads or assigns."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & set(names)


def test_name_rule_catches_each_form():
    source = ("from .gp import DUPLICATE_THRESHOLD\n"
              "tol = direct1d.DELTA_EQ_REL\n")
    assert name_references(source, RULE_HOMES) == set(RULE_HOMES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_rule_constants_stay_home(path):
    foreign = {name for name, home in RULE_HOMES.items() if home != path.name}
    assert name_references(path.read_text(), foreign) == set()


# The grid-run options and their defaults are declared in one signature.
# Other functions may take one or two of them as inputs (the model takes its
# kernel and estimator, DIRECT its own epsilon and budget), but a signature
# with more than two declares the run's options a second time.
RUN_OPTIONS = {"initial_design", "budget", "kernel", "estimator", "epsilon", "grid"}
# The kernel families and estimators are named in the module that checks them.
MODEL_NAMES = {"exponential", "squared-exponential", "mle", "sample"}


def option_signatures(source: str, module: str) -> set:
    """(module.function, its RUN_OPTIONS) for each function that takes more than two."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if len(names & RUN_OPTIONS) > 2:
                found.add((f"{module}.{node.name}", frozenset(names & RUN_OPTIONS)))
    return found


def string_constants(source: str, names) -> set:
    """The names among ``names`` that ``source`` writes as a string literal."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in names}


def test_option_rule_catches_a_second_signature():
    source = ("def grid_run(algorithm, initial_design=None, budget=20, kernel=None,\n"
              "             estimator=None, epsilon=0.1, grid=None): pass\n"
              "def run(algorithm, **options): pass\n"
              "def fig1(estimator, epsilon): pass\n"
              "def check(a, b, budget=25, kernel=None, estimator='mle'): pass\n")
    assert option_signatures(source, "m") == {
        ("m.grid_run", frozenset(RUN_OPTIONS)),
        ("m.check", frozenset({"budget", "kernel", "estimator"}))}
    assert string_constants(source, MODEL_NAMES) == {"mle"}


def test_run_options_have_one_signature():
    sites = set().union(*(option_signatures(path.read_text(), path.stem)
                          for path in SOURCES))
    assert sites == {("optimizer.grid_run", frozenset(RUN_OPTIONS))}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "gp.py"],
                         ids=lambda p: p.name)
def test_model_names_written_only_in_gp(path):
    assert string_constants(path.read_text(), MODEL_NAMES) == set()


# S is factored on one path: each name is used only inside its one caller.
FACTOR_PATH = {("cho_factor", "gp._factor_with_jitter"),
               ("_factor_with_jitter", "gp.GridCorrelations._refactor")}
FACTOR_NAMES = {name for name, _ in FACTOR_PATH}


def use_sites(source: str, module: str, names, called: bool = False) -> set:
    """(name, enclosing module.class.function) for each read of ``names``,
    or with ``called`` for each call of one, ``name(...)`` or ``obj.name(...)``.

    Assigning a name, as its definition does, is not a use.
    """
    tree = ast.parse(source)
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            read = isinstance(getattr(child, "ctx", None), ast.Load)
            read = read and (not called or id(child) in callees)
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif read and isinstance(child, ast.Name) and child.id in names:
                found.add((child.id, scope))
            elif read and isinstance(child, ast.Attribute) and child.attr in names:
                found.add((child.attr, scope))
            visit(child, inner)

    visit(tree, module)
    return found


def sites_in_package(names, called: bool = False) -> set:
    return set().union(*(use_sites(path.read_text(), path.stem, names, called)
                         for path in SOURCES))


def test_factor_rule_catches_a_second_call_site():
    source = ("def _factor_with_jitter(s):\n    return cho_factor(s)\n"
              "class GridCorrelations:\n"
              "    def _refactor(self):\n        return _factor_with_jitter(1)\n"
              "    def rows(self):\n        return linalg.cho_factor(2)\n")
    second = ("cho_factor", "gp.GridCorrelations.rows")
    assert use_sites(source, "gp", FACTOR_NAMES) == FACTOR_PATH | {second}


def test_one_factor_path():
    assert sites_in_package(FACTOR_NAMES) == FACTOR_PATH


# A run gets its model state from its grid, which keys it by kernel and
# initial-design size; a posterior without one builds its own over no grid
# points.  A state built anywhere else could be shared past that key.
STATE_BUILDERS = {("GridCorrelations", "optimizer.CandidateGrid.correlations"),
                  ("GridCorrelations", "gp.SurrogatePosterior.__init__")}


def test_state_rule_catches_a_third_construction():
    source = ("class CandidateGrid:\n"
              "    def correlations(self, kernel) -> GridCorrelations:\n"
              "        return GridCorrelations(self.points, kernel)\n"
              "def grid_run(grid, kernel):\n"
              "    return gp.GridCorrelations(grid.points, kernel)\n"
              "def build_posterior(state: Optional[GridCorrelations] = None): pass\n")
    assert use_sites(source, "optimizer", {"GridCorrelations"}, called=True) == {
        ("GridCorrelations", "optimizer.CandidateGrid.correlations"),
        ("GridCorrelations", "optimizer.grid_run")}


def test_model_state_built_in_two_places():
    assert sites_in_package({"GridCorrelations"}, called=True) == STATE_BUILDERS


def test_use_sites_skip_the_definition():
    source = ("DELTA_EQ_REL = 1e-9\n"
              "def _length_classes(deltas, j):\n    return DELTA_EQ_REL * deltas\n"
              "def csv_text(rows):\n    return csv.writer(buf).writerows(rows)\n")
    assert use_sites(source, "m", {"DELTA_EQ_REL", "writer"}) == {
        ("DELTA_EQ_REL", "m._length_classes"), ("writer", "m.csv_text")}


def test_length_classes_read_in_one_place():
    # The half-length classes under DELTA_EQ_REL have one home, which both
    # the potentially-optimal test and the translation shift call.
    assert sites_in_package({"DELTA_EQ_REL"}) == {("DELTA_EQ_REL", "direct1d._length_classes")}


def test_summed_means_rule_read_in_one_place():
    # The grid size from which means are summed is read where a state decides
    # whether to record V; a posterior sums its means where its state did.
    assert sites_in_package({"SUMMED_MEANS_GRID"}) == {
        ("SUMMED_MEANS_GRID", "gp.GridCorrelations._advance")}


def test_each_system_solved_in_one_place():
    # S^-1 1 depends on the points alone and is solved as a state records a
    # length; w = S^-1 (y - mu) is solved as every posterior is built.
    assert sites_in_package({"cho_solve"}, called=True) == {
        ("cho_solve", "gp.GridCorrelations._advance"),
        ("cho_solve", "gp.SurrogatePosterior.__init__")}


def test_one_csv_writer():
    assert sites_in_package({"writer"}) == {("writer", "optimizer.csv_text")}


def test_package_binds_only_its_version_and_submodules():
    # Each object has one import path, through the module that defines it.
    import scaleopt

    for module in pkgutil.iter_modules(scaleopt.__path__):
        importlib.import_module(f"scaleopt.{module.name}")
    bound = {name: value for name, value in vars(scaleopt).items()
             if not name.startswith("__")}
    assert bound and {name: sys.modules.get(f"scaleopt.{name}") for name in bound} == bound
    assert isinstance(scaleopt.__version__, str)


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    # The benchmark's traced run patches package names by attribute; a name
    # it patches that the package no longer has would break only that run.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    tracing.assert_untraced()


def test_bench_tracer_counts_the_factor_and_solves(monkeypatch):
    # The per-layer gp.cho_factor and gp.cho_solve metrics read these spans:
    # an mle posterior whose first factor fails and is retried with jitter.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    points = np.linspace(0.0, 1.0, 18)[:, None]
    history = gp.EvaluationHistory([0.0], [1.0], points, np.sin(3 * points[:, 0]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        posterior = gp.build_posterior(
            history, gp.CorrelationKernel("squared-exponential", 5.0), "mle")
    finally:
        tracer.uninstall()
    assert posterior.jitter > 0
    assert tracer.names.count("gp.cho_factor") == 2
    assert tracer.failed["gp.cho_factor"] == 1
    assert tracer.names.count("gp.cho_solve") == 2
    assert tracer.counts["posteriors_jittered"] == 1
