"""No module of the package reaches into another's private names, and
each rule's constant is used only in its home module.

A leading underscore marks a name as internal to its module or object, so
``from .mod import _name`` and ``obj._attr`` (with ``obj`` other than
``self`` or ``cls``) couple one module to another's internals.  Dunder
names such as ``__setattr__`` are protocol, not private.

The benchmark's tracer patches package names from outside the package, so
a test also checks that it still finds each of them.
"""

import ast
from pathlib import Path

import pytest

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
